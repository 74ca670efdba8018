import numpy as np
import pytest

from vulnaudit import audit as au
from vulnaudit.grid_store import CategoryField, RasterGrid, StackKind

from oracles import ad_map_whole, aitchison_double_loop


def posterior_from(probs, valid=None, timestep="t0"):
    probs = np.asarray(probs, dtype=float)
    if valid is None:
        valid = np.ones(probs.shape[:2], dtype=bool)
    probs = np.where(valid[:, :, None], probs, -1.0)
    return CategoryField([f"c{i}" for i in range(probs.shape[2])],
                         probs, valid, timestep)


def random_posterior(rng, h, w, k, p_valid=1.0, timestep="t0"):
    valid = rng.random((h, w)) < p_valid
    probs = rng.dirichlet(np.ones(k), size=(h, w))
    return posterior_from(probs, valid, timestep)


class TestAitchisonDistance:
    def test_zero_at_equality(self):
        assert au.aitchison_distance([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_against_double_loop(self):
        got = au.aitchison_distance([0.8, 0.2], [0.2, 0.8])
        assert got == pytest.approx(np.sqrt(2.0) * np.log(4.0), abs=1e-9)
        assert got == pytest.approx(aitchison_double_loop([0.8, 0.2], [0.2, 0.8], 1e-6),
                                    abs=1e-9)

    def test_matches_double_loop_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            if rng.random() < 0.3:
                p = p.copy()
                p[rng.integers(0, k)] = 0.0  # structural zero path
                p = p / p.sum()
            assert au.aitchison_distance(p, q) == pytest.approx(
                aitchison_double_loop(p, q, 1e-6), abs=1e-9)

    def test_symmetry_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            assert au.aitchison_distance(p, q) == pytest.approx(
                au.aitchison_distance(q, p), abs=1e-12)

    def test_perturbation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            c = rng.uniform(0.1, 10.0, size=k)
            pc = (c * p) / (c * p).sum()
            qc = (c * q) / (c * q).sum()
            assert au.aitchison_distance(pc, qc) == pytest.approx(
                au.aitchison_distance(p, q), abs=1e-9)

    def test_zero_iff_equal_after_smoothing(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert au.aitchison_distance(p, p) < 1e-12
        assert au.aitchison_distance(p, q) > 1e-6

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            au.aitchison_distance([1.0], [1.0])


class TestAdMap:
    def test_equal_fields_give_zero(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=(4, 5))
        prior = CategoryField(["c0", "c1", "c2"], probs, np.ones((4, 5), dtype=bool))
        post = posterior_from(probs)
        out = au.ad_map(prior, post)
        valid = out.grid.valid_mask()
        assert valid.all()
        np.testing.assert_allclose(out.grid.values, 0.0, atol=1e-6)

    def test_missing_prior_gives_nodata(self):
        probs = np.full((1, 2, 2), 0.5)
        mask = np.array([[True, False]])
        prior = CategoryField(["a", "b"], np.where(mask[:, :, None], probs, 0.0), mask)
        out = au.ad_map(prior, posterior_from(probs))
        assert out.grid.valid_mask()[0, 0]
        assert not out.grid.valid_mask()[0, 1]

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        h, w, k = 3, 4, 3
        prior_probs = rng.dirichlet(np.ones(k), size=(h, w))
        prior = CategoryField([f"c{i}" for i in range(k)], prior_probs,
                              rng.random((h, w)) < 0.8)
        prior.probs[~prior.valid] = 0.0
        post = random_posterior(rng, h, w, k, p_valid=0.8)
        out = au.ad_map(prior, post)
        for y in range(h):
            for x in range(w):
                if prior.valid[y, x] and post.valid[y, x]:
                    expected = aitchison_double_loop(prior_probs[y, x],
                                                     post.probs[y, x], 1e-6)
                    assert out.grid.values[y, x] == pytest.approx(expected, abs=1e-5)
                else:
                    assert out.grid.values[y, x] == np.float32(-1.0)

    def test_single_pixel_equals_aitchison_distance(self):
        # ad_map and aitchison_distance share one kernel: a 1 x 1 map holds
        # the scalar distance, cast to float32
        rng = np.random.default_rng(11)
        for k in (2, 3, 5, 9):
            for _ in range(20):
                p, q = rng.dirichlet(np.ones(k), size=2)
                p[rng.integers(k)] = 0.0  # a zero part takes the epsilon smoothing
                p /= p.sum()
                prior = CategoryField([f"c{i}" for i in range(k)], p[None, None, :],
                                      np.ones((1, 1), dtype=bool))
                out = au.ad_map(prior, posterior_from(q[None, None, :]))
                assert out.grid.values[0, 0] == np.float32(au.aitchison_distance(p, q))

    @pytest.mark.parametrize("k", [2, 3])
    def test_banded_map_equals_whole_raster_oracle(self, k):
        # 250 rows of 300 pixels span three row bands
        rng = np.random.default_rng(k)
        h, w = 250, 300
        prior_probs = rng.dirichlet(np.ones(k), size=(h, w))
        one_hot = rng.random((h, w)) < 0.3  # zero parts take the epsilon smoothing
        prior_probs[one_hot] = np.eye(k)[rng.integers(k, size=one_hot.sum())]
        prior = CategoryField([f"c{i}" for i in range(k)], prior_probs,
                              rng.random((h, w)) < 0.8)
        post = random_posterior(rng, h, w, k, p_valid=0.7)
        out = au.ad_map(prior, post).grid.values
        assert out.dtype == np.float32
        assert out.tobytes() == ad_map_whole(prior, post, au._aitchison_rows).tobytes()

    def test_dimension_mismatch(self):
        prior = CategoryField(["a", "b"], np.full((2, 2, 2), 0.5),
                              np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            au.ad_map(prior, random_posterior(np.random.default_rng(0), 3, 3, 2))

    def test_category_count_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="category counts differ"):
            au.ad_map(random_posterior(rng, 3, 3, 2), random_posterior(rng, 3, 3, 3))


def height(vals, nodata=-1.0):
    arr = np.asarray(vals, dtype=np.float32)
    return RasterGrid(arr.shape[1], arr.shape[0], arr, nodata=nodata)


class TestChangeMap:
    def test_identical_rasters(self):
        h = height(np.full((2, 2), 3.0))
        out = au.change_map(h, h)
        np.testing.assert_array_equal(out.grid.values, np.zeros((2, 2)))

    def test_boundary_table(self):
        base = height([[0.0, 0.0, 3.0, 3.0]])
        after = height([[1.5, 1.5 + 1e-6, 1.5, 1.5 - 1e-6]])
        out = au.change_map(base, after, 1.5)
        np.testing.assert_array_equal(out.grid.values[0], [0.0, 1.0, 0.0, -1.0])

    def test_large_deltas(self):
        out = au.change_map(height([[1.0, 5.0]]), height([[3.0, 3.0]]), 1.5)
        np.testing.assert_array_equal(out.grid.values[0], [1.0, -1.0])

    def test_swap_negates(self):
        rng = np.random.default_rng(6)
        a = height(rng.uniform(0, 10, size=(4, 4)))
        b = height(rng.uniform(0, 10, size=(4, 4)))
        ab = au.change_map(a, b).grid.values
        ba = au.change_map(b, a).grid.values
        np.testing.assert_array_equal(ab, -ba)

    def test_shift_below_threshold_invariant(self):
        rng = np.random.default_rng(7)
        a = height(rng.uniform(1, 10, size=(3, 3)))
        b = height(rng.uniform(1, 10, size=(3, 3)))
        shifted_a = height(a.values + 0.7)
        shifted_b = height(b.values + 0.7)
        np.testing.assert_array_equal(au.change_map(a, b).grid.values,
                                      au.change_map(shifted_a, shifted_b).grid.values)

    def test_nodata_counts_as_zero_height(self):
        gone = au.change_map(height([[4.0]]), height([[-1.0]]))
        assert gone.grid.values[0, 0] == -1.0  # demolition registers as decrease

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            au.change_map(height([[1.0]]), height([[1.0, 2.0]]))

    @pytest.mark.parametrize("threshold_m", [0.0, -1.5, float("nan")])
    def test_nonpositive_threshold_raises(self, threshold_m):
        # a NaN threshold would code no pixel as changed
        with pytest.raises(ValueError, match="threshold must be positive"):
            au.change_map(height([[0.0, 3.0]]), height([[2.0, 3.0]]), threshold_m)


class TestRegionalTrend:
    def test_single_pixel_region(self):
        rng = np.random.default_rng(8)
        posts = [random_posterior(rng, 3, 3, 2, timestep=f"t{i}") for i in range(3)]
        for post in posts:
            np.testing.assert_allclose(au.region_mean(post, (1, 2, 1, 1)), post.probs[2, 1])

    def test_uniform_posterior_flat_trend(self):
        posts = [posterior_from(np.full((2, 2, 4), 0.25), timestep=f"t{i}")
                 for i in range(2)]
        series = np.array([au.region_mean(post, (0, 0, 2, 2)) for post in posts])
        np.testing.assert_allclose(series, 0.25)

    def test_two_pixel_mean(self):
        probs = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        np.testing.assert_allclose(au.region_mean(posterior_from(probs), (0, 0, 2, 1)),
                                   [0.5, 0.5])

    def test_empty_region_flagged(self):
        # a region with no node pixel has no mean: its row is NaN
        post = posterior_from(np.full((2, 2, 2), 0.5), np.zeros((2, 2), dtype=bool))
        mean = au.region_mean(post, (0, 0, 2, 2))
        assert mean.shape == (2,) and np.isnan(mean).all()

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            au.check_region((1, 1, 3, 1), 2, 2)


class TestTransitionMatrix:
    def test_all_none_degenerate(self):
        empty = posterior_from(np.full((2, 2, 2), 0.5), np.zeros((2, 2), dtype=bool))
        tm = au.transition_matrix([empty, empty], "one_step")
        assert tm.labels == ["c0", "c1", "NONE"]
        expected_raw = np.zeros((3, 3))
        expected_raw[2, 2] = 1.0
        np.testing.assert_allclose(tm.raw, expected_raw, atol=1e-15)
        for row in tm.normalized:
            np.testing.assert_array_equal(row, [0.0, 0.0, 1.0])
        assert tm.zero_mass_rows == ["c0", "c1"]

    def test_single_pixel_uniform_hand_value(self):
        post = posterior_from(np.full((1, 1, 2), 0.5))
        tm = au.transition_matrix([post, post], "one_step")
        np.testing.assert_allclose(tm.raw, [[0.25, 0.25, 0.0],
                                            [0.25, 0.25, 0.0],
                                            [0.0, 0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(tm.normalized, [[0.5, 0.5, 0.0],
                                                   [0.5, 0.5, 0.0],
                                                   [0.0, 0.0, 1.0]], atol=1e-15)

    def test_averaged_equals_mean_of_one_step_raws(self):
        rng = np.random.default_rng(9)
        posts = [random_posterior(rng, 3, 4, 3, p_valid=0.7, timestep=f"t{i}")
                 for i in range(4)]
        averaged = au.transition_matrix(posts, "averaged")
        raws = [au.transition_matrix([a, b], "one_step").raw
                for a, b in zip(posts, posts[1:])]
        np.testing.assert_allclose(averaged.raw, np.mean(raws, axis=0), atol=1e-12)

    def test_rows_stochastic_fuzz(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            t = int(rng.integers(2, 5))
            posts = [random_posterior(rng, 4, 4, 3, p_valid=rng.random(),
                                      timestep=f"t{i}") for i in range(t)]
            tm = au.transition_matrix(posts, "averaged")
            np.testing.assert_allclose(tm.normalized.sum(axis=1), 1.0, atol=1e-9)
            assert tm.raw.min() >= 0.0
            assert tm.normalized.min() >= 0.0 and tm.normalized.max() <= 1.0

    @pytest.mark.parametrize("t, p_valid", [(2, 1.0), (5, 0.6)])
    def test_one_walk_equals_each_mode(self, t, p_valid):
        # p_valid 1 leaves the NONE row without mass, so it is pinned
        rng = np.random.default_rng(t)
        posts = [random_posterior(rng, 5, 6, 3, p_valid=p_valid, timestep=f"t{i}")
                 for i in range(t)]
        walk = au.transition_matrices(posts)
        expected = [au.transition_matrix([a, b], "one_step") for a, b in zip(posts, posts[1:])]
        expected.append(au.transition_matrix(posts, "averaged"))
        assert len(walk) == len(expected) == t
        for got, want in zip(walk, expected):
            np.testing.assert_array_equal(got.raw, want.raw)
            np.testing.assert_array_equal(got.normalized, want.normalized)
            assert (got.labels, got.period, got.zero_mass_rows) == \
                (want.labels, want.period, want.zero_mass_rows)
        assert [tm.period for tm in walk] == \
            [f"t{i} -> t{i + 1}" for i in range(t - 1)] + ["averaged"]
        if p_valid == 1.0:
            assert walk[-1].zero_mass_rows == ["NONE"]

    @pytest.mark.parametrize("t, p_valid", [(2, 1.0), (5, 0.6)])
    def test_a_stream_equals_the_list(self, t, p_valid):
        rng = np.random.default_rng(10 + t)
        posts = [random_posterior(rng, 5, 6, 3, p_valid=p_valid, timestep=f"t{i}")
                 for i in range(t)]
        streamed = au.transition_matrices(iter(posts))
        listed = au.transition_matrices(posts)
        assert len(streamed) == len(listed) == t
        for got, want in zip(streamed, listed):
            np.testing.assert_array_equal(got.raw, want.raw)
            np.testing.assert_array_equal(got.normalized, want.normalized)
            assert (got.labels, got.period, got.zero_mass_rows) == \
                (want.labels, want.period, want.zero_mass_rows)

    def test_fewer_than_two_fields_give_no_matrix(self):
        post = posterior_from(np.full((1, 1, 2), 0.5))
        assert au.transition_matrices(iter([post])) == []
        assert au.transition_matrices([]) == []

    def test_category_named_none_rejected(self):
        # it would collide with the no-building state in the CSVs and the DOT
        post = CategoryField(["NONE", "b"], np.full((2, 2, 2), 0.5), np.ones((2, 2), bool))
        with pytest.raises(ValueError, match="'NONE' collides with the no-building state"):
            au.transition_matrices([post, post])

    @pytest.mark.parametrize("other", [
        lambda rng: random_posterior(rng, 3, 4, 2, timestep="t1"),
        lambda rng: random_posterior(rng, 4, 3, 3, timestep="t1"),
        lambda rng: CategoryField(["x", "y", "z"], rng.dirichlet(np.ones(3), (3, 4)),
                                  np.ones((3, 4), dtype=bool), "t1"),
    ], ids=["categories", "shape", "labels"])
    def test_fields_that_disagree_rejected(self, other):
        rng = np.random.default_rng(2)
        posts = [random_posterior(rng, 3, 4, 3), other(rng)]
        with pytest.raises(ValueError, match="disagree on shape or categories"):
            au.transition_matrices(posts)

    def test_too_few_timesteps(self):
        post = posterior_from(np.full((1, 1, 2), 0.5))
        with pytest.raises(ValueError):
            au.transition_matrix([post], "averaged")

    def test_one_step_requires_exactly_one_pair(self):
        post = posterior_from(np.full((1, 1, 2), 0.5))
        with pytest.raises(ValueError):
            au.transition_matrix([post, post, post], "one_step")


class TestTransitionDot:
    def make_tm(self, normalized):
        normalized = np.asarray(normalized, dtype=float)
        labels = [f"c{i}" for i in range(len(normalized) - 1)] + ["NONE"]
        return au.TransitionMatrix(labels, normalized.copy(), normalized,
                                   "t0 -> t1", [])

    def test_identity_keeps_only_self_loops(self, monkeypatch):
        monkeypatch.setattr(au, "MIN_EDGE", 0.5)
        dot = au.transition_to_dot(self.make_tm(np.eye(3)))
        edges = [l for l in dot.splitlines() if "->" in l]
        assert len(edges) == 3
        assert all(f'"{lab}" -> "{lab}"' in line
                   for lab, line in zip(["c0", "c1", "NONE"], edges))

    def test_uniform_rows_below_threshold(self, monkeypatch):
        k1 = 3
        monkeypatch.setattr(au, "MIN_EDGE", 1.0 / k1 + 0.01)
        dot = au.transition_to_dot(self.make_tm(np.full((k1, k1), 1.0 / k1)))
        assert not any("->" in l for l in dot.splitlines())

    def test_full_matrix_min_edge_zero(self, monkeypatch):
        monkeypatch.setattr(au, "MIN_EDGE", 0.0)
        rng = np.random.default_rng(11)
        normalized = rng.dirichlet(np.ones(4), size=4)
        dot = au.transition_to_dot(self.make_tm(normalized))
        assert sum("->" in l for l in dot.splitlines()) == 16


class TestExports:
    def test_transition_csv(self, tmp_path):
        au.write_transition_csv(["a", "NONE"], np.array([[0.5, 0.5], [0.0, 1.0]]),
                                tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert lines[0] == "from\\to,a,NONE"
        assert lines[1] == "a,0.5,0.5"

    def test_trend_csv(self, tmp_path):
        au.write_trend_csv(["t0", "t1"], ["a", "b"], np.array([[0.25, 0.75], [0.5, 0.5]]),
                           tmp_path / "trend.csv")
        lines = (tmp_path / "trend.csv").read_text().strip().splitlines()
        assert lines[0] == "timestep,a,b"
        assert lines[1] == "t0,0.25,0.75"

    def test_trend_csv_empty_rows_read_nan(self, tmp_path):
        # a timestep whose region held no node pixel has no mean to write
        post = posterior_from(np.full((2, 2, 2), 0.5), timestep="t0")
        empty = posterior_from(np.full((2, 2, 2), 0.5), np.zeros((2, 2), dtype=bool),
                               timestep="t1")
        series = np.array([au.region_mean(p, (0, 0, 2, 2)) for p in (post, empty)])
        au.write_trend_csv(["t0", "t1"], post.categories, series, tmp_path / "trend.csv")
        lines = (tmp_path / "trend.csv").read_text().strip().splitlines()
        assert lines[1:] == ["t0,0.5,0.5", "t1,nan,nan"]

    def test_ppm_heatmap(self, tmp_path):
        grid = RasterGrid(2, 2, np.array([[0.0, 1.0], [-1.0, 0.5]], dtype=np.float32))
        au.write_ppm_heatmap(grid, tmp_path / "m.ppm")
        blob = (tmp_path / "m.ppm").read_bytes()
        assert blob.startswith(b"P6\n2 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P6\n2 2\n255\n"):], dtype=np.uint8)
        rgb = pixels.reshape(2, 2, 3)
        np.testing.assert_array_equal(rgb[0, 0], [0, 0, 255])    # min -> blue
        np.testing.assert_array_equal(rgb[0, 1], [255, 0, 0])    # max -> red
        np.testing.assert_array_equal(rgb[1, 0], [0, 0, 0])      # nodata -> black
        np.testing.assert_array_equal(rgb[1, 1], [128, 0, 128])  # midpoint

    def test_ppm_heatmap_all_nodata(self, tmp_path):
        # the AD map of a timestep with no building: every pixel black
        grid = RasterGrid(3, 2, np.full((2, 3), -1.0, dtype=np.float32))
        au.write_ppm_heatmap(grid, tmp_path / "m.ppm")
        assert (tmp_path / "m.ppm").read_bytes() == b"P6\n3 2\n255\n" + bytes(3 * 2 * 3)

    def test_maps_to_stack_needs_a_map(self):
        with pytest.raises(ValueError, match="no maps to stack"):
            au.maps_to_stack([], [], StackKind.AD_MAP)

    def test_maps_to_stack_kind(self):
        grid = RasterGrid(1, 1, np.array([[0.3]], dtype=np.float32))
        stack = au.maps_to_stack([grid], ["t0"], StackKind.AD_MAP)
        assert stack.manifest.kind is StackKind.AD_MAP
