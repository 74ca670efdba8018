import hashlib

import numpy as np
import pytest

from vulnaudit import synth as sy

from oracles import grow_categories_heap


class QuarterGenerator(np.random.Generator):
    """Rounds every ``random()`` draw down to a multiple of 1/4, so many
    pending pushes share a draw and the push-order tie-break decides."""

    def random(self, size=None):
        return np.floor(super().random(size) * 4) / 4


def assert_same_as_oracle(width, height_px, k, n_blobs, make_rng):
    expected_rng, rng = make_rng(), make_rng()
    expected = grow_categories_heap(width, height_px, k, n_blobs, expected_rng)
    got = sy.grow_categories(width, height_px, k, n_blobs, rng)
    assert got.dtype == np.int64
    assert got.shape == (height_px, width)
    np.testing.assert_array_equal(got, expected)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def random_case(seed):
    r = np.random.default_rng(seed)
    width, height_px = (int(v) for v in r.integers(1, 26, size=2))
    k = int(r.integers(2, 9))
    n_blobs = int(r.integers(1, width * height_px + 6))
    return width, height_px, k, n_blobs


class TestGrowCategories:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_cases_match_heap_oracle(self, seed):
        width, height_px, k, n_blobs = random_case(seed)
        assert_same_as_oracle(width, height_px, k, n_blobs,
                              lambda: np.random.default_rng(1000 + seed))

    @pytest.mark.parametrize("width, height_px, k, n_blobs", [
        (1, 1, 2, 1),      # one pixel: one seed, no growth
        (1, 1, 3, 5),
        (1, 23, 3, 2),     # one column
        (31, 1, 2, 4),     # one row
        (6, 5, 3, 30),     # n_blobs == W*H: every pixel a seed
        (6, 5, 4, 200),    # n_blobs > W*H
        (17, 13, 6, 2),    # n_blobs < k: k seeds anyway
        (20, 18, 300, 3),  # k > 255
        (9, 9, 400, 1),    # k > W*H: only W*H seeds
        (64, 64, 3, 16),   # the README spec's size and blob count
    ])
    def test_edge_cases_match_heap_oracle(self, width, height_px, k, n_blobs):
        for seed in range(3):
            assert_same_as_oracle(width, height_px, k, n_blobs,
                                  lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("width, height_px, k, n_blobs",
                             [(1, 1, 2, 1), (1, 12, 2, 2), (12, 1, 3, 3),
                              (7, 9, 3, 5), (33, 20, 4, 3), (40, 40, 3, 10)])
    def test_tied_draws_break_by_push_order(self, width, height_px, k, n_blobs):
        assert_same_as_oracle(width, height_px, k, n_blobs,
                              lambda: QuarterGenerator(np.random.PCG64(5)))


# sha256 of each file that write_dataset(default_spec()) writes: the README
# and acceptance dataset (64 x 64, 3 timesteps, k=3, seed 42)
DEFAULT_SPEC_SHA256 = {
    "ground_truth/cat0.f32": "736e0758e11d08149a2869790e34c752a87fdb816e1fa8d2952012909e08fd51",
    "ground_truth/cat1.f32": "6e38ffb16e4686f59e2058d7d7eb693869e6750657a85e7eca9295dd9106d572",
    "ground_truth/cat2.f32": "1b7c6570c789d6f6b5a5762cb28ade21e9a95d1491b4733aa5cbaa45f0a8dd5f",
    "ground_truth/manifest.json": "6818a51bbd26af690c2c74d416793f4765c488e71eb615dca4ea8eff132c8c82",
    "heights/manifest.json": "7eee21b01f78725fb9025790c9ec849eb8c36921c5dcd568577eb10d8237f90b",
    "heights/t0.f32": "cd1902318afe35c85d440dee52a70c9d48d6f70dfc86f26fcd5ad3fdafe1adfd",
    "heights/t1.f32": "cb742ab54d67ff5d510b3f2556862ff6f623d0f5ec985ea664be1bf180e524a3",
    "heights/t2.f32": "31ec9640da5682eb92276105a86a9833e628729fb4bfbe8ffa2026752ac895a1",
    "prior_counts/cat0.f32": "3d04b22353ee5f617f2dc18f8053be02f46b33592982313e0b9858c04091b9a1",
    "prior_counts/cat1.f32": "30b1fc698f8ed7baab70372dcb04c58e22e55396070b7d25493f0933ffa1b217",
    "prior_counts/cat2.f32": "741a17a3b26cc17cd5eefdfd78d0b780a94756906921fd618ac58761772f0fe5",
    "prior_counts/manifest.json": "57e1aea7cf2f093074535e786fabc4f1287da83f7f35956b8cce7a63e3e1abed",
}


def test_default_spec_dataset_digest(tmp_path):
    sy.write_dataset(sy.default_spec(), tmp_path)
    written = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.rglob("*") if f.is_file()}
    assert written == DEFAULT_SPEC_SHA256
