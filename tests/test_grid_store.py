import json
import os
from pathlib import Path

import numpy as np
import pytest

from vulnaudit import grid_store as gs
from vulnaudit.grid_store import (CategoryField, GridFormatError, GridStack, RasterGrid,
                                  StackKind, StackManifest)

from oracles import category_field_error_whole, stack_to_field_whole


def make_stack(kind, width, height, layers, nodata=-1.0):
    manifest = StackManifest(kind, width, height, list(layers), nodata=nodata)
    grids = [RasterGrid(width, height, layers[label], nodata=nodata)
             for label in layers]
    return GridStack(manifest, grids)


def random_stack(rng, max_dim=6, max_layers=3):
    width = int(rng.integers(1, max_dim + 1))
    height = int(rng.integers(1, max_dim + 1))
    n_layers = int(rng.integers(1, max_layers + 1))
    kind = list(StackKind)[int(rng.integers(0, len(StackKind)))]
    layers = {}
    for i in range(n_layers):
        if kind in (StackKind.PRIOR_PROPORTIONS, StackKind.POSTERIOR):
            vals = rng.random((height, width)).astype(np.float32)
        else:
            vals = (rng.normal(size=(height, width)) * 10).astype(np.float32)
        vals[rng.random((height, width)) < 0.2] = np.float32(-1.0)
        layers[f"layer{i}"] = vals
    return make_stack(StackKind(kind), width, height, layers)


class TestRoundTrip:
    def test_single_layer_values(self, tmp_path):
        stack = make_stack(StackKind.HEIGHT_SERIES, 2, 2,
                           {"t0": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)})
        gs.write_grid_stack(stack, tmp_path / "s")
        back = gs.read_grid_stack(tmp_path / "s")
        np.testing.assert_array_equal(back.grids[0].values,
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_smallest_stack(self, tmp_path):
        stack = make_stack(StackKind.HEIGHT_SERIES, 1, 1,
                           {"only": np.array([[2.5]], dtype=np.float32)})
        gs.write_grid_stack(stack, tmp_path / "s")
        files = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert files == ["manifest.json", "only.f32"]
        assert (tmp_path / "s" / "only.f32").stat().st_size == 4

    def test_write_read_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(40):
            stack = random_stack(rng)
            path = tmp_path / f"s{i}"
            gs.write_grid_stack(stack, path)
            back = gs.read_grid_stack(path)
            assert gs.stacks_equal(stack, back)
            # layer files round-trip byte-for-byte
            gs.write_grid_stack(back, tmp_path / f"s{i}_again")
            for label in stack.manifest.layer_labels:
                a = (path / f"{label}.f32").read_bytes()
                b = (tmp_path / f"s{i}_again" / f"{label}.f32").read_bytes()
                assert a == b


class TestStacksEqual:
    def test_differing_manifests_are_unequal(self):
        ones = np.ones((2, 2), np.float32)
        stack = make_stack(StackKind.HEIGHT_SERIES, 2, 2, {"a": ones})
        assert gs.stacks_equal(stack, make_stack(StackKind.HEIGHT_SERIES, 2, 2, {"a": ones}))
        # the same layer bytes under another kind, label or nodata
        for other in (make_stack(StackKind.PRIOR_COUNTS, 2, 2, {"a": ones}),
                      make_stack(StackKind.HEIGHT_SERIES, 2, 2, {"b": ones}),
                      make_stack(StackKind.HEIGHT_SERIES, 2, 2, {"a": ones}, nodata=-2.0)):
            assert not gs.stacks_equal(stack, other)
            assert not gs.stacks_equal(other, stack)


class TestReadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(GridFormatError, match="missing manifest"):
            gs.read_grid_stack(tmp_path)

    def test_missing_layer(self, tmp_path):
        stack = make_stack(StackKind.HEIGHT_SERIES, 1, 1,
                           {"a": np.ones((1, 1), np.float32),
                            "b": np.ones((1, 1), np.float32),
                            "c": np.ones((1, 1), np.float32)})
        gs.write_grid_stack(stack, tmp_path / "s")
        (tmp_path / "s" / "c.f32").unlink()
        with pytest.raises(GridFormatError, match="missing layer"):
            gs.read_grid_stack(tmp_path / "s")

    def test_kind_checked_before_any_layer(self, tmp_path):
        stack = make_stack(StackKind.PRIOR_COUNTS, 1, 1, {"a": np.ones((1, 1), np.float32)})
        gs.write_grid_stack(stack, tmp_path / "s")
        (tmp_path / "s" / "a.f32").unlink()  # never opened
        message = f"{tmp_path / 's'}: expected HEIGHT_SERIES stack, got PRIOR_COUNTS"
        for read in (gs.read_manifest, gs.read_grid_stack):
            with pytest.raises(GridFormatError) as caught:
                read(tmp_path / "s", StackKind.HEIGHT_SERIES)
            assert str(caught.value) == message
        assert gs.read_manifest(tmp_path / "s", StackKind.PRIOR_COUNTS).kind \
            is StackKind.PRIOR_COUNTS

    def test_byte_length_mismatch(self, tmp_path):
        stack = make_stack(StackKind.HEIGHT_SERIES, 2, 2,
                           {"a": np.ones((2, 2), np.float32)})
        gs.write_grid_stack(stack, tmp_path / "s")
        (tmp_path / "s" / "a.f32").write_bytes(b"\x00" * 12)
        with pytest.raises(GridFormatError, match="12 bytes"):
            gs.read_grid_stack(tmp_path / "s")

    def test_duplicate_labels(self):
        with pytest.raises(GridFormatError, match="duplicate"):
            StackManifest(StackKind.HEIGHT_SERIES, 1, 1, ["a", "a"])

    def test_no_layers(self):
        with pytest.raises(GridFormatError, match="a stack needs at least one layer"):
            StackManifest(StackKind.HEIGHT_SERIES, 1, 1, [])

    # a label names a file, a CSV column and a DOT node
    @pytest.mark.parametrize("label", ["", "a/b", "a\\b", "..", "a,b", 'a"b', "a\tb",
                                       "a\nb", "a\x00b", "a\x7fb", "a\x85b"])
    def test_unusable_label(self, label):
        assert not gs.usable_label(label)
        with pytest.raises(GridFormatError, match="unusable layer label"):
            StackManifest(StackKind.HEIGHT_SERIES, 1, 1, [label])

    @pytest.mark.parametrize("label", ["t0", "low rise", "café", "a.b", "a-b_c"])
    def test_usable_label(self, label):
        assert gs.usable_label(label)

    @pytest.mark.parametrize("key, value, named", [
        ("width", 4.9, "'width'"),
        ("width", "4", "'width'"),
        ("nodata", "-1", "'nodata'"),
        ("crs_note", 5, "'crs_note'"),
        ("layers", "ab", "'layers'"),
        ("layers", [1, 2], "'layers'"),
        ("layer_count", 2, "'layer_count'"),
        ("kind", "BOGUS", "'kind'"),
    ], ids=["float-width", "string-width", "string-nodata", "int-crs-note",
            "string-layers", "int-layers", "unknown-key", "unknown-kind"])
    def test_manifest_read_strictly(self, tmp_path, key, value, named):
        ones = np.ones((4, 4), np.float32)
        gs.write_grid_stack(make_stack(StackKind.HEIGHT_SERIES, 4, 4, {"a": ones, "b": ones}),
                            tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(GridFormatError) as info:
            gs.read_grid_stack(tmp_path / "s")
        assert str(path) in str(info.value) and named in str(info.value), info.value

    def test_non_finite_value(self, tmp_path):
        stack = make_stack(StackKind.HEIGHT_SERIES, 1, 1,
                           {"a": np.ones((1, 1), np.float32)})
        gs.write_grid_stack(stack, tmp_path / "s")
        (tmp_path / "s" / "a.f32").write_bytes(
            np.array([np.nan], dtype="<f4").tobytes())
        with pytest.raises(GridFormatError, match="non-finite"):
            gs.read_grid_stack(tmp_path / "s")


class TestWriteErrors:
    def test_posterior_range_violation(self, tmp_path):
        manifest = StackManifest(StackKind.POSTERIOR, 1, 1, ["a"])
        grid = RasterGrid(1, 1, np.array([[1.2]], dtype=np.float32))
        with pytest.raises(GridFormatError, match="range violation"):
            GridStack(manifest, [grid])

    @pytest.mark.parametrize("width, height_px, size, named", [
        (0, 2, 0, "grid dimensions must be positive"),
        (2, -1, 2, "grid dimensions must be positive"),
        (2, 2, 3, "values length 3 != 2x2"),
    ], ids=["zero-width", "negative-height", "size-mismatch"])
    def test_bad_raster_grid(self, width, height_px, size, named):
        with pytest.raises(GridFormatError, match=named):
            RasterGrid(width, height_px, np.ones(size, np.float32))

    @pytest.mark.parametrize("width, height_px", [(0, 1), (1, -1)],
                             ids=["zero-width", "negative-height"])
    def test_non_positive_manifest_dimensions(self, width, height_px):
        with pytest.raises(GridFormatError, match="manifest dimensions must be positive"):
            StackManifest(StackKind.HEIGHT_SERIES, width, height_px, ["a"])

    @pytest.mark.parametrize("grid, named", [
        (RasterGrid(2, 1, np.ones(2, np.float32)), "layer dimensions differ from manifest"),
        (RasterGrid(1, 1, np.ones(1, np.float32), nodata=-2.0),
         "layer nodata differs from manifest"),
    ], ids=["dimensions", "nodata"])
    def test_layer_disagrees_with_manifest(self, grid, named):
        # GridStack runs validate_stack on construction
        with pytest.raises(GridFormatError, match=named):
            GridStack(StackManifest(StackKind.HEIGHT_SERIES, 1, 1, ["a"]), [grid])

    def test_layer_count_mismatch(self):
        manifest = StackManifest(StackKind.HEIGHT_SERIES, 1, 1, ["a", "b"])
        grid = RasterGrid(1, 1, np.ones((1, 1), np.float32))
        with pytest.raises(GridFormatError, match="grids for"):
            GridStack(manifest, [grid])

    def test_layers_of_built_and_read_stacks_are_read_only(self, tmp_path):
        # the writer trusts the constructor's check: a POSTERIOR value set to
        # 2.0 after it would be written unchecked
        built = make_stack(StackKind.POSTERIOR, 2, 2, {"a": np.full((2, 2), 0.5, np.float32)})
        gs.write_grid_stack(built, tmp_path / "s")
        for stack in (built, gs.read_grid_stack(tmp_path / "s")):
            with pytest.raises(ValueError, match="read-only"):
                stack.grids[0].values[0, 0] = 2.0
        # a float32 layer is wrapped without a copy: the caller's array, and
        # the array it is a view of, are locked with it
        whole = np.full((2, 2, 2), 0.5, np.float32)
        layer = whole[0]
        grid = RasterGrid(2, 2, layer)
        for kept in (layer, whole):
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 2.0
        assert (grid.values == 0.5).all()
        # a layer of another dtype is copied, and the caller's array stays writable
        float64 = np.full((2, 2), 0.5)
        grid = RasterGrid(2, 2, float64)
        float64[0, 0] = 2.0
        assert (grid.values == 0.5).all()


class TestAtomicWrite:
    @staticmethod
    def fail_second_layer(monkeypatch, written_frac):
        """Make the second layer file write ``written_frac`` of its bytes and
        then fail, as a crash or a full disk would."""
        real_write = Path.write_bytes
        calls = []

        def flaky_write(self, data):
            calls.append(self.name)
            if len(calls) == 2:
                real_write(self, data[:int(len(data) * written_frac)])
                raise OSError("disk full")
            return real_write(self, data)

        monkeypatch.setattr(Path, "write_bytes", flaky_write)

    @staticmethod
    def two_layer_stack(scale):
        ones = np.ones((2, 2), np.float32)
        return make_stack(StackKind.HEIGHT_SERIES, 2, 2,
                          {"a": scale * ones, "b": 2 * scale * ones})

    @pytest.mark.parametrize("written_frac", [0.0, 0.5])
    def test_failed_rewrite_keeps_previous_stack(self, tmp_path, monkeypatch,
                                                 written_frac):
        old, new = self.two_layer_stack(1.0), self.two_layer_stack(3.0)
        gs.write_grid_stack(old, tmp_path / "s")
        self.fail_second_layer(monkeypatch, written_frac)
        with pytest.raises(OSError, match="disk full"):
            gs.write_grid_stack(new, tmp_path / "s")
        monkeypatch.undo()
        assert gs.stacks_equal(gs.read_grid_stack(tmp_path / "s"), old)
        assert [p.name for p in tmp_path.iterdir()] == ["s"]

        gs.write_grid_stack(new, tmp_path / "s")
        assert gs.stacks_equal(gs.read_grid_stack(tmp_path / "s"), new)
        assert [p.name for p in tmp_path.iterdir()] == ["s"]

    def test_failed_swap_moves_previous_stack_back(self, tmp_path, monkeypatch):
        # the staged directory cannot take the place of the previous one,
        # which was already moved aside: it is moved back
        gs.write_grid_stack(self.two_layer_stack(1.0), tmp_path / "s")
        before = {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()}
        real_replace = os.replace

        def failing_swap(src, dst):
            if ".s.tmp-" in Path(src).name:
                raise OSError("swap failed")
            return real_replace(src, dst)

        monkeypatch.setattr(gs.os, "replace", failing_swap)
        with pytest.raises(OSError, match="swap failed"):
            gs.write_grid_stack(self.two_layer_stack(3.0), tmp_path / "s")
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["s"]  # no .tmp- or .old- sibling

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        self.fail_second_layer(monkeypatch, 0.5)
        with pytest.raises(OSError, match="disk full"):
            gs.write_grid_stack(self.two_layer_stack(1.0), tmp_path / "s")
        assert list(tmp_path.iterdir()) == []


class TestNormalizePriorCounts:
    def make_counts(self, arrays):
        layers = {f"c{i}": np.asarray(a, dtype=np.float32)
                  for i, a in enumerate(arrays)}
        h, w = next(iter(layers.values())).shape
        return make_stack(StackKind.PRIOR_COUNTS, w, h, layers)

    def test_kind_is_checked(self):
        stack = make_stack(StackKind.HEIGHT_SERIES, 1, 1,
                           {"a": np.ones((1, 1), np.float32)})
        with pytest.raises(ValueError, match="PRIOR_COUNTS"):
            gs.normalize_prior_counts(stack)

    def test_symmetric_counts(self):
        prior = gs.normalize_prior_counts(self.make_counts([[[2.0]], [[2.0]]]))
        assert prior.valid[0, 0]
        np.testing.assert_allclose(prior.probs[0, 0], [0.5, 0.5])

    def test_zero_counts_mean_no_prior(self):
        prior = gs.normalize_prior_counts(self.make_counts([[[0.0]], [[0.0]]]))
        assert not prior.valid[0, 0]

    def test_direct_arithmetic(self):
        prior = gs.normalize_prior_counts(
            self.make_counts([[[3.0]], [[1.0]], [[0.0]]]))
        np.testing.assert_allclose(prior.probs[0, 0], [0.75, 0.25, 0.0])

    def test_negative_count_rejected(self):
        # -1.0 is the nodata sentinel, so use a different negative value
        with pytest.raises(ValueError, match="negative count"):
            gs.normalize_prior_counts(self.make_counts([[[-2.0]], [[2.0]]]))

    def test_all_nodata_pixel_has_no_prior(self):
        counts = self.make_counts([[[-1.0]], [[-1.0]]])  # nodata sentinel
        prior = gs.normalize_prior_counts(counts)
        assert not prior.valid[0, 0]

    def test_simplex_invariant_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h, w, k = rng.integers(1, 6, size=3) + np.array([0, 0, 1])
            arrays = [rng.integers(0, 5, size=(h, w)).astype(np.float32)
                      for _ in range(k)]
            prior = gs.normalize_prior_counts(self.make_counts(arrays))
            if prior.valid.any():
                sums = prior.probs[prior.valid].sum(axis=1)
                np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestUpsampleNearest:
    def single_pixel(self, vec):
        k = len(vec)
        return CategoryField([f"c{i}" for i in range(k)],
                             np.array(vec, dtype=float).reshape(1, 1, k),
                             np.ones((1, 1), dtype=bool))

    def test_constant_replication(self):
        fine = gs.upsample_nearest(self.single_pixel([0.25, 0.75]), 3)
        assert fine.probs.shape == (3, 3, 2)
        assert np.all(fine.probs == [0.25, 0.75])
        assert fine.valid.all()

    def test_factor_one_identity(self):
        coarse = self.single_pixel([0.1, 0.9])
        fine = gs.upsample_nearest(coarse, 1)
        np.testing.assert_array_equal(fine.probs, coarse.probs)

    def test_index_arithmetic_oracle(self):
        props = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # 2 wide, 1 tall
        coarse = CategoryField(["a", "b"], props, np.ones((1, 2), dtype=bool))
        factor = 2
        fine = gs.upsample_nearest(coarse, factor)
        assert fine.probs.shape == (2, 4, 2)
        for y in range(2):
            for x in range(4):
                np.testing.assert_array_equal(
                    fine.probs[y, x], props[y // factor, x // factor])

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            gs.upsample_nearest(self.single_pixel([1.0, 0.0]), 0)

    def test_preserves_distinct_vectors_and_simplex(self):
        rng = np.random.default_rng(2)
        raw = rng.random((3, 4, 3))
        props = raw / raw.sum(axis=2, keepdims=True)
        coarse = CategoryField(["a", "b", "c"], props, np.ones((3, 4), dtype=bool))
        fine = gs.upsample_nearest(coarse, 3)
        before = {tuple(v) for v in props.reshape(-1, 3)}
        after = {tuple(v) for v in fine.probs.reshape(-1, 3)}
        assert before == after
        np.testing.assert_allclose(fine.probs.sum(axis=2), 1.0, atol=1e-12)


class TestPriorStackRoundTrip:
    def test_roundtrip_with_gaps(self):
        rng = np.random.default_rng(3)
        raw = rng.random((4, 5, 3))
        props = raw / raw.sum(axis=2, keepdims=True)
        mask = rng.random((4, 5)) < 0.7
        props[~mask] = 0.0
        prior = CategoryField(["a", "b", "c"], props, mask)
        kind = StackKind.PRIOR_PROPORTIONS
        back = gs.stack_to_field(gs.field_to_stack(prior, kind), kind)
        np.testing.assert_array_equal(back.valid, mask)
        np.testing.assert_allclose(back.probs[mask], props[mask], atol=1e-6)
        assert back.categories == ["a", "b", "c"]


class TestCategoryFieldRule:
    @pytest.mark.parametrize("row, named", [
        ([np.nan, 1.0], "non-finite"),
        ([-0.25, 1.25], "negative"),
        ([0.5, 0.5 + 1e-7], "sum to 1"),
    ], ids=["nan", "negative", "off-simplex"])
    def test_bad_row_at_valid_pixel_rejected(self, row, named):
        probs = np.array([[row, [0.5, 0.5]]])
        with pytest.raises(ValueError, match=named):
            CategoryField(["a", "b"], probs, np.ones((1, 2), dtype=bool))
        # the same row at an invalid pixel is not checked
        CategoryField(["a", "b"], probs, np.array([[False, True]]))

    @pytest.mark.parametrize("categories, valid, named", [
        (["a", "b", "c"], np.ones((1, 2), dtype=bool), "probs last axis != number of categories"),
        (["a", "b"], np.ones((2, 1), dtype=bool), "valid mask shape mismatch"),
    ], ids=["k-mismatch", "valid-shape"])
    def test_shape_mismatch_rejected(self, categories, valid, named):
        with pytest.raises(ValueError, match=named):
            CategoryField(categories, np.full((1, 2, 2), 0.5), valid)

    def test_zero_mass_prior_pixel_rejected(self):
        stack = make_stack(StackKind.PRIOR_PROPORTIONS, 2, 1,
                           {"a": np.array([[0.0, 0.25]], dtype=np.float32),
                            "b": np.array([[0.0, 0.75]], dtype=np.float32)})
        with pytest.raises(GridFormatError, match="zero probability mass"):
            gs.stack_to_field(stack, StackKind.PRIOR_PROPORTIONS)

    def test_posterior_pixel_nodata_in_some_layers_rejected(self):
        stack = make_stack(StackKind.POSTERIOR, 2, 1,
                           {"a": np.array([[-1.0, 0.25]], dtype=np.float32),
                            "b": np.array([[1.0, 0.75]], dtype=np.float32)})
        with pytest.raises(GridFormatError, match="nodata in some layers"):
            gs.stack_to_field(stack, StackKind.POSTERIOR)

    def test_kind_must_match(self):
        stack = make_stack(StackKind.POSTERIOR, 1, 1,
                           {"a": np.array([[1.0]], dtype=np.float32)})
        with pytest.raises(GridFormatError, match="expected PRIOR_PROPORTIONS"):
            gs.stack_to_field(stack, StackKind.PRIOR_PROPORTIONS)


# 250 rows of 300 pixels span three row bands of 109, 109 and 32 rows
BAND_H, BAND_W = 250, 300
LAST = (BAND_H - 1, BAND_W - 1)  # a pixel of the last band
PARTIAL_NODATA = "pixel that is nodata in some layers but not in others"
ZERO_MASS = "pixel with data but zero probability mass"


class TestRowBands:
    @pytest.mark.parametrize("h, w", [(BAND_H, BAND_W), (1, 1), (3, 2 * gs.BAND_PIXELS),
                                      (gs.BAND_PIXELS + 5, 1), (0, 4)])
    def test_bands_cover_the_rows_in_order(self, h, w):
        bands = list(gs.row_bands(h, w))
        rows = [y for band in bands for y in range(h)[band]]
        assert rows == list(range(h))
        # a band holds at most BAND_PIXELS pixels, or one row wider than that
        assert all((b.stop - b.start) * w <= gs.BAND_PIXELS or b.stop - b.start == 1
                   for b in bands)

    def test_test_raster_spans_three_bands(self):
        assert [(b.start, b.stop) for b in gs.row_bands(BAND_H, BAND_W)] == \
            [(0, 109), (109, 218), (218, 250)]


def banded_layers(seed=0, k=3):
    """Float32 category layers of a BAND_H x BAND_W field, a third of its
    pixels nodata, some rows with a zero part."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k), size=(BAND_H, BAND_W))
    probs[rng.random((BAND_H, BAND_W)) < 0.2, 0] = 0.0
    probs /= probs.sum(axis=-1, keepdims=True)
    valid = rng.random((BAND_H, BAND_W)) > 0.3
    valid[LAST] = True
    return {f"c{i}": np.where(valid, probs[:, :, i], -1.0).astype(np.float32)
            for i in range(k)}


def set_pixel(layers, yx, values):
    for layer, value in zip(layers.values(), values):
        layer[yx] = value


class TestBandedCategoryField:
    @pytest.mark.parametrize("kind", [StackKind.PRIOR_PROPORTIONS, StackKind.POSTERIOR])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_decode_equals_whole_raster_oracle(self, kind, seed):
        stack = make_stack(kind, BAND_W, BAND_H, banded_layers(seed))
        field = gs.stack_to_field(stack, kind, "t0")
        probs, valid = stack_to_field_whole(stack, kind)
        assert field.probs.tobytes() == probs.tobytes()
        np.testing.assert_array_equal(field.valid, valid)
        assert field.timestep == "t0"

    @pytest.mark.parametrize("defects, message", [
        ([(LAST, [0.5, -1.0, 0.5])], PARTIAL_NODATA),
        ([(LAST, [0.0, 0.0, 0.0])], ZERO_MASS),
        # a partial-nodata pixel in any band is reported before a zero-mass
        # pixel in an earlier one, as a whole-raster check would
        ([((0, 0), [0.0, 0.0, 0.0]), (LAST, [-1.0, 0.5, 0.5])], PARTIAL_NODATA),
    ], ids=["partial-nodata-last-band", "zero-mass-last-band", "partial-after-zero-mass"])
    def test_bad_pixel_raises_the_whole_raster_error(self, defects, message):
        layers = banded_layers()
        for yx, values in defects:
            set_pixel(layers, yx, values)
        stack = make_stack(StackKind.POSTERIOR, BAND_W, BAND_H, layers)
        assert stack_to_field_whole(stack, StackKind.POSTERIOR) == message
        with pytest.raises(GridFormatError, match=f"^{message}$"):
            gs.stack_to_field(stack, StackKind.POSTERIOR)

    @pytest.mark.parametrize("defects, named", [
        ([], None),
        ([(LAST, [np.nan, 0.5, 0.5])], "non-finite"),
        ([(LAST, [-0.25, 1.0, 0.25])], "negative"),
        ([(LAST, [0.5, 0.5, 1e-7])], "sum to 1"),
        ([((0, 0), [-0.25, 1.0, 0.25]), (LAST, [np.inf, 0.0, 0.0])], "non-finite"),
        ([((0, 0), [0.5, 0.5, 1e-7]), (LAST, [-0.25, 1.0, 0.25])], "negative"),
    ], ids=["none", "nan-last-band", "negative-last-band", "off-simplex-last-band",
            "non-finite-after-negative", "negative-after-off-simplex"])
    def test_check_equals_whole_raster_oracle(self, defects, named):
        field = gs.stack_to_field(make_stack(StackKind.POSTERIOR, BAND_W, BAND_H,
                                             banded_layers()), StackKind.POSTERIOR)
        probs, valid = field.probs.copy(), field.valid
        for yx, values in defects:
            valid[yx] = True
            probs[yx] = values
        expected = category_field_error_whole(probs, valid)
        assert (expected is None) == (named is None)
        if named is None:
            CategoryField(field.categories, probs, valid)
            return
        assert named in expected
        with pytest.raises(ValueError, match=f"^{expected}$"):
            CategoryField(field.categories, probs, valid)
        # the same rows at invalid pixels are not checked
        for yx, _ in defects:
            valid[yx] = False
        CategoryField(field.categories, probs, valid)
