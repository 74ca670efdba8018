import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from vulnaudit import graph_build as gb
from vulnaudit.grid_store import CategoryField, RasterGrid

from oracles import (brute_force_grid_edges, coo_grid_adjacency, coo_grid_nodes,
                     dense_normalized_adjacency, drop_edges_by_mirroring, graph_of_binary,
                     sample_epoch_from_whole_graph)


def heights_grid(values):
    arr = np.asarray(values, dtype=np.float32)
    return RasterGrid(arr.shape[1], arr.shape[0], arr)


def full_tile(grid):
    return [gb.Tile(0, 0, grid.width, grid.height_px)]


def assert_same_csr_bytes(m, n):
    """Two CSR matrices' shapes, and their indptr, indices and data equal in
    dtype, shape and bytes."""
    assert m.shape == n.shape
    for x, y in ((m.indptr, n.indptr), (m.indices, n.indices), (m.data, n.data)):
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()


def assert_same_graph_bytes(a, b):
    """Node pixels, features, the carried Â's and the binary view's CSR
    arrays, and the edge count equal; with ``b`` from an oracle, ``a``'s Â
    is ``normalize_adjacency`` of the oracle's binary graph."""
    for x, y in ((a.node_pixels, b.node_pixels), (a.features, b.features)):
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()
    assert_same_csr_bytes(a.a_hat, b.a_hat)
    assert_same_csr_bytes(a.adjacency, b.adjacency)
    assert a.n_undirected_edges == b.n_undirected_edges


def one_hot_prior(codes, k):
    codes = np.asarray(codes)
    props = np.eye(k)[codes]
    return CategoryField([f"c{i}" for i in range(k)], props,
                         np.ones(codes.shape, dtype=bool))


class TestTileRegion:
    def test_exact_tiling(self):
        tiles = gb.tile_region(900, 450, 450)
        assert [(t.origin_x, t.origin_y) for t in tiles] == [(0, 0), (450, 0)]
        assert all((t.width, t.height) == (450, 450) for t in tiles)

    def test_clipped_boundary(self):
        tiles = gb.tile_region(500, 450, 450)
        assert len(tiles) == 2
        assert (tiles[1].origin_x, tiles[1].width) == (450, 50)
        # index-arithmetic oracle: every pixel covered exactly once
        cover = np.zeros((450, 500), dtype=int)
        for t in tiles:
            cover[t.origin_y:t.origin_y + t.height,
                  t.origin_x:t.origin_x + t.width] += 1
        assert np.all(cover == 1)

    def test_single_clipped_tile(self):
        tiles = gb.tile_region(10, 10, 450)
        assert len(tiles) == 1
        assert (tiles[0].width, tiles[0].height) == (10, 10)

    def test_zero_extent(self):
        with pytest.raises(ValueError):
            gb.tile_region(0, 10, 450)

    def test_zero_tile_size(self):
        with pytest.raises(ValueError, match="tile_size must be >= 1"):
            gb.tile_region(10, 10, 0)

    @pytest.mark.parametrize("tile", [gb.Tile(-1, 0, 2, 2), gb.Tile(0, -1, 2, 2),
                                      gb.Tile(3, 0, 2, 2), gb.Tile(0, 2, 2, 2)],
                             ids=["left", "top", "right", "bottom"])
    def test_tile_outside_extent(self, tile):
        with pytest.raises(ValueError, match="exceeds raster extent 4x3"):
            gb.tiles_mask([gb.Tile(0, 0, 4, 3), tile], 4, 3)


class TestBuildGraph:
    def test_3x3_full_grid(self):
        grid = heights_grid(np.ones((3, 3)))
        graph = gb.build_graph(grid, full_tile(grid))
        assert graph.n_nodes == 9
        assert graph.n_undirected_edges == 20
        expected = brute_force_grid_edges({(x, y) for x in range(3) for y in range(3)})
        got = {frozenset([tuple(graph.node_pixels[u]), tuple(graph.node_pixels[v])])
               for u, v in zip(*sp.triu(graph.adjacency, k=1).nonzero())}
        assert got == expected

    def test_single_positive_pixel(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = 4.0
        graph = gb.build_graph(heights_grid(vals), full_tile(heights_grid(vals)))
        assert graph.n_nodes == 1
        assert graph.n_undirected_edges == 0

    def test_all_zero_grid(self):
        grid = heights_grid(np.zeros((4, 4)))
        graph = gb.build_graph(grid, full_tile(grid))
        assert graph.n_nodes == 0

    def test_nodata_pixels_excluded(self):
        vals = np.full((2, 2), -1.0)
        vals[0, 0] = 2.0
        grid = heights_grid(vals)
        graph = gb.build_graph(grid, full_tile(grid))
        assert graph.n_nodes == 1

    def test_tile_subset_restricts_nodes(self):
        grid = heights_grid(np.ones((4, 8)))
        left = gb.Tile(0, 0, 4, 4)
        graph = gb.build_graph(grid, [left])
        assert graph.n_nodes == 16
        assert all(x < 4 for x, _ in graph.node_pixels)

    def test_structural_invariants_fuzz(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            h, w = rng.integers(1, 12, size=2)
            vals = np.where(rng.random((h, w)) < 0.6,
                            rng.uniform(0.5, 9.0, size=(h, w)), 0.0)
            grid = heights_grid(vals)
            graph = gb.build_graph(grid, full_tile(grid))
            assert np.all(graph.features[:, 0] > 0)
            adj = graph.adjacency.toarray()
            np.testing.assert_array_equal(adj, adj.T)
            assert np.all(np.diag(adj) == 0)
            assert adj.sum(axis=1).max(initial=0) <= 8
            for u, v in zip(*sp.triu(graph.adjacency, k=1).nonzero()):
                ux, uy = graph.node_pixels[u]
                vx, vy = graph.node_pixels[v]
                assert max(abs(int(ux) - int(vx)), abs(int(uy) - int(vy))) == 1
            expected = brute_force_grid_edges(
                {(int(x), int(y)) for x, y in graph.node_pixels})
            assert len(expected) == graph.n_undirected_edges

    def test_neighborhood_slots(self):
        # slot 7 - s is the opposite offset of slot s, and with row-major
        # node numbering slots 0-3 point to earlier nodes and 4-7 to later
        # ones, in ascending order: the arcs of slots 4-7 are the upper
        # triangle, in CSR order
        hood = gb._NEIGHBORHOOD
        for s, (dx, dy) in enumerate(hood):
            assert hood[7 - s] == (-dx, -dy)
        order = [(dy, dx) for dx, dy in hood]
        assert order == sorted(order)
        assert all(o < (0, 0) for o in order[:4]) and all(o > (0, 0) for o in order[4:])

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 23), (23, 1), (9, 13), (24, 31)])
    def test_csr_equals_coo_construction(self, h, w):
        # the same indptr, indices, data and dtypes as building the arcs in
        # COO and converting; the first trial has no node at all, and the
        # odd trials use a positive nodata sentinel so that the validity
        # mask, not only the height > 0 test, removes pixels
        rng = np.random.default_rng(100 * h + w)
        for trial in range(8):
            vals = rng.uniform(0.5, 9.0, size=(h, w)).astype(np.float32)
            vals[rng.random((h, w)) < rng.uniform(0.0, 0.8)] = 0.0
            nodata = 5.0 if trial % 2 else -1.0
            vals[rng.random((h, w)) < 0.15] = nodata
            if trial == 0:
                vals[:] = 0.0
            grid = RasterGrid(w, h, vals, nodata=nodata)
            tiles = [t for t in gb.tile_region(w, h, 4) if rng.random() < 0.8]
            graph = gb.build_graph(grid, tiles)
            want = coo_grid_adjacency(gb.node_mask(grid, tiles))
            assert_same_csr_bytes(graph.adjacency, want)
            # the builder writes Â: normalize_adjacency's bytes for the
            # oracle's binary graph
            assert_same_csr_bytes(graph.a_hat, gb.normalize_adjacency(want))
            assert graph.n_undirected_edges == want.nnz // 2


class TestLogNormalize:
    def test_constant_features_map_to_zero(self):
        out, stats = gb.log_normalize(np.full((5, 1), 3.0))
        np.testing.assert_array_equal(out, np.zeros((5, 1)))
        assert stats.std == 1.0

    def test_hand_computation(self):
        feats = np.array([[np.e - 1.0], [np.e ** 2 - 1.0]])
        out, stats = gb.log_normalize(feats)
        assert stats.mean == pytest.approx(1.5)
        assert stats.std == pytest.approx(0.5)
        np.testing.assert_allclose(out, [[-1.0], [1.0]], atol=1e-12)

    def test_stats_reuse_is_idempotent(self):
        rng = np.random.default_rng(5)
        feats = rng.uniform(0.5, 20.0, size=(30, 1))
        _, stats1 = gb.log_normalize(feats)
        _, stats2 = gb.log_normalize(feats)
        assert (stats1.mean, stats1.std) == (stats2.mean, stats2.std)
        out_a, _ = gb.log_normalize(feats, stats1)
        out_b, _ = gb.log_normalize(feats)
        np.testing.assert_array_equal(out_a, out_b)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            gb.log_normalize(np.array([[0.0]]))


class TestNormalizeAdjacency:
    def test_single_node(self):
        grid = heights_grid([[1.0]])
        a_hat = gb.normalize_adjacency(gb.build_graph(grid, full_tile(grid)))
        np.testing.assert_allclose(a_hat.toarray(), [[1.0]])

    def test_two_connected_nodes(self):
        grid = heights_grid([[1.0, 1.0]])
        a_hat = gb.normalize_adjacency(gb.build_graph(grid, full_tile(grid)))
        np.testing.assert_allclose(a_hat.toarray(), np.full((2, 2), 0.5), atol=1e-15)

    def test_path_of_three(self):
        grid = heights_grid([[1.0, 1.0, 1.0]])
        a_hat = gb.normalize_adjacency(gb.build_graph(grid, full_tile(grid)))
        assert a_hat.toarray()[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)

    def test_dense_oracle_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(1, 101))
            upper = np.triu(rng.random((n, n)) < 0.2, k=1)
            dense = (upper | upper.T).astype(float)
            a_hat = gb.normalize_adjacency(sp.csr_matrix(dense))
            np.testing.assert_allclose(a_hat.toarray(),
                                       dense_normalized_adjacency(dense), atol=1e-12)

    def test_asymmetric_rejected(self):
        for dense in ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]):
            with pytest.raises(ValueError, match="symmetric"):
                gb.normalize_adjacency(sp.csr_matrix(np.array(dense)))


class TestSplitTiles:
    def test_single_stratum_ratios(self):
        prior = one_hot_prior(np.zeros((1, 10), dtype=int), 2)
        tiles = gb.tile_region(10, 1, 1)
        splits = gb.split_tiles(tiles, gb.dominant_categories(tiles, prior), (0.8, 0.1, 0.1),
                                seed=3)
        assert (len(splits.train), len(splits.test), len(splits.validation)) == (8, 1, 1)

    def test_bad_ratios_rejected(self):
        tiles = gb.tile_region(10, 1, 1)
        for ratios in ((0.5, 0.2, 0.2), (1.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="positive and sum to 1"):
                gb.split_tiles(tiles, [0] * 10, ratios)

    def test_deterministic_given_seed(self):
        prior = one_hot_prior(np.zeros((4, 4), dtype=int), 2)
        tiles = gb.tile_region(4, 4, 2)
        a = gb.split_tiles(tiles, gb.dominant_categories(tiles, prior), seed=9)
        b = gb.split_tiles(tiles, gb.dominant_categories(tiles, prior), seed=9)
        assert a.train == b.train and a.test == b.test and a.validation == b.validation

    def test_two_strata_counting_oracle(self):
        # 20 single-pixel tiles: left ten dominant cat 0, right ten cat 1
        codes = np.concatenate([np.zeros(10, int), np.ones(10, int)]).reshape(1, 20)
        prior = one_hot_prior(codes, 2)
        tiles = gb.tile_region(20, 1, 1)
        dominants = gb.dominant_categories(tiles, prior)
        assert dominants == [0] * 10 + [1] * 10
        splits = gb.split_tiles(tiles, dominants, (0.5, 0.25, 0.25), seed=0)
        for cat in (0, 1):
            per_split = [gb.dominant_categories(part, prior).count(cat)
                         for part in (splits.train, splits.test, splits.validation)]
            # exact half to train; the indivisible quarter splits 3/2
            assert per_split[0] == 5
            assert sorted(per_split[1:]) == [2, 3]

    def test_balanced_flag_follows_the_tolerance(self):
        # ten tiles of category 0 split 5/3/2 and two of category 1 split
        # 1/1/0: category 0's share is 5/6, 3/4 and 1 in the splits against
        # 10/12 overall, so validation misses it by 1/6
        codes = np.concatenate([np.zeros(10, int), np.ones(2, int)]).reshape(1, 12)
        prior = one_hot_prior(codes, 2)
        tiles = gb.tile_region(12, 1, 1)
        for tolerance, balanced in ((0.25, True), (0.17, True), (0.16, False), (0.0, False)):
            splits = gb.split_tiles(tiles, gb.dominant_categories(tiles, prior),
                                    (0.5, 0.25, 0.25), seed=0, tolerance=tolerance)
            assert splits.balanced is balanced, tolerance

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(17)
        prior = one_hot_prior(rng.integers(0, 3, size=(6, 6)), 3)
        tiles = gb.tile_region(6, 6, 2)
        splits = gb.split_tiles(tiles, gb.dominant_categories(tiles, prior), seed=1)
        seen = [(t.origin_x, t.origin_y)
                for t in [*splits.train, *splits.test, *splits.validation]]
        assert len(seen) == len(set(seen)) == len(tiles)

    def test_tiles_without_prior_form_none_stratum(self):
        prior = CategoryField(["a", "b"], np.zeros((2, 2, 2)),
                              np.zeros((2, 2), dtype=bool))
        tiles = gb.tile_region(2, 2, 1)
        dominants = gb.dominant_categories(tiles, prior)
        assert dominants == [None] * 4
        splits = gb.split_tiles(tiles, dominants, seed=0)
        assert sorted([*splits.train, *splits.test, *splits.validation],
                      key=lambda t: (t.origin_y, t.origin_x)) == tiles

    def test_empty_tiling_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            gb.split_tiles([], [])

    @pytest.mark.parametrize("n", [9, 11])
    def test_one_dominant_category_per_tile(self, n):
        # a list that misses or adds a tile would stratify the tiles wrongly
        with pytest.raises(ValueError, match="zip"):
            gb.split_tiles(gb.tile_region(10, 1, 1), [0] * n)


class TestSampleEpoch:
    """``epoch_subgraphs``: one epoch's sample, each part built from the raster."""

    @staticmethod
    def sample(vals, n_sub, dropout, seed):
        grid = heights_grid(vals)
        return list(gb.epoch_subgraphs(grid, full_tile(grid), n_sub, dropout, seed))

    def test_identity_when_no_dropout_single_part(self):
        grid = heights_grid(np.ones((4, 4)))
        graph = gb.build_graph(grid, full_tile(grid))
        (sub,) = gb.epoch_subgraphs(grid, full_tile(grid), 1, dropout=0.0, seed=5)
        np.testing.assert_array_equal(sub.node_pixels, graph.node_pixels)
        np.testing.assert_array_equal(sub.adjacency.toarray(),
                                      graph.adjacency.toarray())

    def test_dropout_counting(self):
        # path of 11 nodes has exactly 10 undirected edges
        grid = heights_grid(np.ones((1, 11)))
        assert gb.build_graph(grid, full_tile(grid)).n_undirected_edges == 10
        (sub,) = self.sample(np.ones((1, 11)), 1, dropout=0.2, seed=2)
        assert sub.n_undirected_edges == 8

    def test_deterministic(self):
        a = self.sample(np.ones((4, 4)), 3, dropout=0.2, seed=11)
        b = self.sample(np.ones((4, 4)), 3, dropout=0.2, seed=11)
        for sa, sb in zip(a, b, strict=True):
            np.testing.assert_array_equal(sa.node_pixels, sb.node_pixels)
            np.testing.assert_array_equal(sa.adjacency.toarray(),
                                          sb.adjacency.toarray())

    def test_partition_property(self):
        grid = heights_grid(np.ones((5, 5)))
        graph = gb.build_graph(grid, full_tile(grid))
        subs = self.sample(np.ones((5, 5)), 4, dropout=0.1, seed=3)
        pixels = [tuple(p) for sub in subs for p in sub.node_pixels]
        assert len(pixels) == graph.n_nodes
        assert set(pixels) == {tuple(p) for p in graph.node_pixels}
        sizes = [s.n_nodes for s in subs]
        assert max(sizes) - min(sizes) <= 1

    def test_post_dropout_symmetry(self):
        for sub in self.sample(np.ones((6, 6)), 2, dropout=0.3, seed=13):
            adj = sub.adjacency.toarray()
            np.testing.assert_array_equal(adj, adj.T)

    def test_too_many_subgraphs(self):
        # bad arguments raise at the call, before any part is drawn
        grid = heights_grid(np.ones((2, 2)))
        with pytest.raises(ValueError, match="n_subgraphs"):
            gb.epoch_subgraphs(grid, full_tile(grid), 5, dropout=0.0, seed=0)
        with pytest.raises(ValueError, match="dropout"):
            gb.epoch_subgraphs(grid, full_tile(grid), 1, dropout=1.0, seed=0)

    # sha256 over every subgraph's node pixels, adjacency and Â (indptr,
    # indices, data) of one fixed sample: pins which nodes each part gets and
    # which edges the seed drops, not only that a build repeats itself
    SAMPLE_DIGESTS = {
        1: "e341aeb6fdaba21078569f52d5801695505029a0ab20fc9c1a3c3556be910ebb",
        3: "0f5ee2ac2e82a516b15f7c8d1d7c09982cdf40bfae3a2981f73388628b2e9e38",
    }

    @pytest.mark.parametrize("n_sub", [1, 3])
    def test_sampling_stream_pinned(self, n_sub):
        rng = np.random.default_rng(1907)
        vals = np.where(rng.random((30, 31)) < 0.6, rng.uniform(0.5, 9.0, (30, 31)), 0.0)
        digest = hashlib.sha256()
        for sub in self.sample(vals, n_sub, dropout=0.2, seed=10903):
            digest.update(sub.node_pixels.tobytes())
            for m in (sub.adjacency, gb.normalize_adjacency(sub)):
                for arr in (m.indptr, m.indices, m.data):
                    digest.update(arr.tobytes())
        assert digest.hexdigest() == self.SAMPLE_DIGESTS[n_sub]

    @pytest.mark.parametrize("n_sub", [1, 2, 3, 7])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_same_bytes_as_cutting_the_whole_graph(self, n_sub, dropout):
        rng = np.random.default_rng(100 * n_sub + int(10 * dropout))
        for trial in range(12):
            h, w = (int(v) for v in rng.integers(3, 25, size=2))
            vals = rng.lognormal(0.5, 0.8, size=(h, w)).astype(np.float32)
            vals[rng.random((h, w)) < 0.25] = 0.0
            vals[rng.random((h, w)) < 0.1] = -1.0  # nodata
            grid = RasterGrid(w, h, vals, nodata=-1.0)
            # keep some tiles, so part of the raster is not covered
            tiles = gb.tile_region(w, h, int(rng.integers(2, 7)))
            tiles = [t for t in tiles if rng.random() < 0.7] or tiles[:1]
            if gb.node_mask(grid, tiles).sum() < n_sub:
                continue
            ours = list(gb.epoch_subgraphs(grid, tiles, n_sub, dropout, trial))
            ref = sample_epoch_from_whole_graph(grid, tiles, n_sub, dropout, trial)
            assert len(ours) == len(ref) == n_sub
            for a, b in zip(ours, ref):
                assert_same_graph_bytes(a, b)

    @pytest.mark.parametrize("dropout", [0.0, 0.2, 0.5, 0.9])
    def test_dropout_on_the_neighbor_table_matches_mirroring(self, dropout):
        # dropping edges from the neighbor table before the CSR matrix is
        # built gives the bytes, and leaves the rng where, the old route
        # left them: build, cut the upper triangle, prune and mirror. At 3
        # parts, the later parts' draws check the rng stream
        rng = np.random.default_rng(int(100 * dropout))
        for trial in range(30):
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            density = rng.uniform(0.2, 1.0)
            vals = np.where(rng.random((h, w)) < density,
                            rng.uniform(0.5, 9.0, size=(h, w)), 0.0)
            grid = heights_grid(vals)
            mask = gb.node_mask(grid, full_tile(grid))
            ours_rng, ref_rng = (np.random.default_rng(trial) for _ in range(2))
            pixels, features = coo_grid_nodes(grid, mask)
            dropped = drop_edges_by_mirroring(coo_grid_adjacency(mask), dropout, ref_rng)
            assert_same_graph_bytes(gb._mask_graph(grid, mask, dropout, ours_rng),
                                    graph_of_binary(pixels, dropped, features))
            assert ours_rng.random() == ref_rng.random()
            for n_sub in (1, 3):
                if mask.sum() < n_sub:
                    continue
                ours = list(gb.epoch_subgraphs(grid, full_tile(grid), n_sub, dropout, trial))
                ref = sample_epoch_from_whole_graph(grid, full_tile(grid), n_sub,
                                                    dropout, trial)
                for a, b in zip(ours, ref, strict=True):
                    assert_same_graph_bytes(a, b)
