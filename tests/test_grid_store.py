from pathlib import Path

import numpy as np
import pytest

from vulnaudit import grid_store as gs
from vulnaudit.grid_store import (GridFormatError, GridStack, PriorField, RasterGrid,
                                  StackKind, StackManifest)


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

    def test_layer_count_mismatch(self):
        manifest = StackManifest(StackKind.HEIGHT_SERIES, 1, 1, ["a", "b"])
        grid = RasterGrid(1, 1, np.ones((1, 1), np.float32))
        with pytest.raises(GridFormatError, match="grids for"):
            GridStack(manifest, [grid])


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
        assert prior.has_prior[0, 0]
        np.testing.assert_allclose(prior.proportions[0, 0], [0.5, 0.5])

    def test_zero_counts_mean_no_prior(self):
        prior = gs.normalize_prior_counts(self.make_counts([[[0.0]], [[0.0]]]))
        assert not prior.has_prior[0, 0]

    def test_direct_arithmetic(self):
        prior = gs.normalize_prior_counts(
            self.make_counts([[[3.0]], [[1.0]], [[0.0]]]))
        np.testing.assert_allclose(prior.proportions[0, 0], [0.75, 0.25, 0.0])

    def test_negative_count_rejected(self):
        # -1.0 is the nodata sentinel, so use a different negative value
        with pytest.raises(ValueError, match="negative count"):
            gs.normalize_prior_counts(self.make_counts([[[-2.0]], [[2.0]]]))

    def test_all_nodata_pixel_has_no_prior(self):
        counts = self.make_counts([[[-1.0]], [[-1.0]]])  # nodata sentinel
        prior = gs.normalize_prior_counts(counts)
        assert not prior.has_prior[0, 0]

    def test_simplex_invariant_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h, w, k = rng.integers(1, 6, size=3) + np.array([0, 0, 1])
            arrays = [rng.integers(0, 5, size=(h, w)).astype(np.float32)
                      for _ in range(k)]
            prior = gs.normalize_prior_counts(self.make_counts(arrays))
            if prior.has_prior.any():
                sums = prior.proportions[prior.has_prior].sum(axis=1)
                np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestUpsampleNearest:
    def single_pixel(self, vec):
        k = len(vec)
        return PriorField([f"c{i}" for i in range(k)],
                          np.array(vec, dtype=float).reshape(1, 1, k),
                          np.ones((1, 1), dtype=bool))

    def test_constant_replication(self):
        fine = gs.upsample_nearest(self.single_pixel([0.25, 0.75]), 3)
        assert fine.proportions.shape == (3, 3, 2)
        assert np.all(fine.proportions == [0.25, 0.75])
        assert fine.has_prior.all()

    def test_factor_one_identity(self):
        coarse = self.single_pixel([0.1, 0.9])
        fine = gs.upsample_nearest(coarse, 1)
        np.testing.assert_array_equal(fine.proportions, coarse.proportions)

    def test_index_arithmetic_oracle(self):
        props = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # 2 wide, 1 tall
        coarse = PriorField(["a", "b"], props, np.ones((1, 2), dtype=bool))
        factor = 2
        fine = gs.upsample_nearest(coarse, factor)
        assert fine.proportions.shape == (2, 4, 2)
        for y in range(2):
            for x in range(4):
                np.testing.assert_array_equal(
                    fine.proportions[y, x], props[y // factor, x // factor])

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            gs.upsample_nearest(self.single_pixel([1.0, 0.0]), 0)

    def test_preserves_distinct_vectors_and_simplex(self):
        rng = np.random.default_rng(2)
        raw = rng.random((3, 4, 3))
        props = raw / raw.sum(axis=2, keepdims=True)
        coarse = PriorField(["a", "b", "c"], props, np.ones((3, 4), dtype=bool))
        fine = gs.upsample_nearest(coarse, 3)
        before = {tuple(v) for v in props.reshape(-1, 3)}
        after = {tuple(v) for v in fine.proportions.reshape(-1, 3)}
        assert before == after
        np.testing.assert_allclose(fine.proportions.sum(axis=2), 1.0, atol=1e-12)


class TestPriorStackRoundTrip:
    def test_roundtrip_with_gaps(self):
        rng = np.random.default_rng(3)
        raw = rng.random((4, 5, 3))
        props = raw / raw.sum(axis=2, keepdims=True)
        mask = rng.random((4, 5)) < 0.7
        props[~mask] = 0.0
        prior = PriorField(["a", "b", "c"], props, mask)
        back = gs.stack_to_prior(gs.prior_to_stack(prior))
        np.testing.assert_array_equal(back.has_prior, mask)
        np.testing.assert_allclose(back.proportions[mask], props[mask], atol=1e-6)
        assert back.categories == ["a", "b", "c"]
