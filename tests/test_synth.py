import hashlib

import numpy as np
import pytest

from vulnaudit import synth as sy


class StillGenerator(np.random.Generator):
    """Draws no displacement, so ``grow_categories`` reduces to plain
    nearest-seed (Voronoi) assignment, which a brute force can check."""

    def standard_normal(self, size=None, **kwargs):
        return np.zeros(size)


def assert_planting_properties(width, height_px, k, n_blobs, make_rng):
    """int64 (H, W) codes in [0, k); every category present when W*H >= k,
    else exactly W*H of them; the same rng state gives the same array and
    leaves the same state behind."""
    first_rng, rng = make_rng(), make_rng()
    first = sy.grow_categories(width, height_px, k, n_blobs, first_rng)
    got = sy.grow_categories(width, height_px, k, n_blobs, rng)
    assert got.dtype == np.int64
    assert got.shape == (height_px, width)
    assert got.min() >= 0 and got.max() < k
    assert len(np.unique(got)) == min(k, width * height_px)
    np.testing.assert_array_equal(got, first)
    assert rng.bit_generator.state == first_rng.bit_generator.state


def random_case(seed):
    r = np.random.default_rng(seed)
    width, height_px = (int(v) for v in r.integers(1, 26, size=2))
    k = int(r.integers(2, 9))
    n_blobs = int(r.integers(1, width * height_px + 6))
    return width, height_px, k, n_blobs


class TestGrowCategories:
    """Properties of the nearest-seed planting. The test names are older
    than it: these cases were first checked against a heap flood fill whose
    draws the generator replayed, and they now check the properties in
    ``assert_planting_properties`` and the nearest-seed rule."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_cases_match_heap_oracle(self, seed):
        width, height_px, k, n_blobs = random_case(seed)
        assert_planting_properties(width, height_px, k, n_blobs,
                                   lambda: np.random.default_rng(1000 + seed))

    @pytest.mark.parametrize("width, height_px, k, n_blobs", [
        (1, 1, 2, 1),      # one pixel: one seed
        (1, 1, 3, 5),
        (1, 23, 3, 2),     # one column
        (31, 1, 2, 4),     # one row
        (6, 5, 3, 30),     # n_blobs == W*H: every pixel a seed
        (6, 5, 4, 200),    # n_blobs > W*H
        (17, 13, 6, 2),    # n_blobs < k: k seeds anyway
        (20, 18, 300, 3),  # k > W*H: only W*H seeds and categories
        (9, 9, 400, 1),
        (64, 64, 3, 16),   # the README spec's size and blob count
    ])
    def test_edge_cases_match_heap_oracle(self, width, height_px, k, n_blobs):
        for seed in range(3):
            assert_planting_properties(width, height_px, k, n_blobs,
                                       lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("width, height_px, k, n_blobs",
                             [(1, 1, 2, 1), (1, 12, 2, 2), (12, 1, 3, 3),
                              (7, 9, 3, 5), (33, 20, 4, 3), (40, 40, 3, 10)])
    def test_tied_draws_break_by_push_order(self, width, height_px, k, n_blobs):
        # With no displacement every pixel takes the category of a seed at
        # the least distance; where seeds tie, any of them will do.
        got = sy.grow_categories(width, height_px, k, n_blobs,
                                 StillGenerator(np.random.PCG64(5)))
        rng = np.random.default_rng(5)  # replays the documented draws
        n_seeds = min(max(k, n_blobs), width * height_px)
        seeds = rng.choice(width * height_px, size=n_seeds, replace=False)
        n_fixed = min(k, n_seeds)
        cats = np.concatenate([np.arange(n_fixed),
                               rng.integers(0, k, size=n_seeds - n_fixed)])
        seed_y, seed_x = np.divmod(seeds, width)
        ys, xs = np.divmod(np.arange(width * height_px), width)
        d2 = (ys[:, None] - seed_y) ** 2 + (xs[:, None] - seed_x) ** 2
        nearest = d2 == d2.min(axis=1, keepdims=True)  # (pixels, seeds)
        allowed = nearest & (cats == got.ravel()[:, None])
        assert allowed.any(axis=1).all()
        np.testing.assert_array_equal(got.ravel()[seeds], cats)


def test_every_category_planted_when_blobs_equal_k():
    # one seed per category, and each seed pixel keeps its own
    for seed in range(200):
        got = sy.grow_categories(16, 16, 5, 5, np.random.default_rng(seed))
        assert np.bincount(got.ravel(), minlength=5).min() > 0, seed


def test_minimum_category_share_at_readme_size():
    # 64 x 64, k=3, 16 blobs: the smallest share over seeds 0-99 is 0.0271
    # (seed 35); the bound leaves a margin of 0.0071 below it
    worst = min(np.bincount(sy.grow_categories(64, 64, 3, 16,
                                               np.random.default_rng(seed)).ravel(),
                            minlength=3).min() / 64 ** 2
                for seed in range(100))
    assert worst >= 0.02


# sha256 of each file that write_dataset(default_spec()) writes: the README
# and acceptance dataset (64 x 64, 3 timesteps, k=3, seed 42)
DEFAULT_SPEC_SHA256 = {
    "ground_truth/cat0.f32": "6ab3f0c31124494b9f8936623040ffd79ee559d5c7aad5501bdabd62fcea5f02",
    "ground_truth/cat1.f32": "3bea5fd767e485e14946f881c60b29dc05df23b89eccfe8df5930a47e9645a85",
    "ground_truth/cat2.f32": "50bd1678975d5ff5e0dcb94515ca4d6b349c9bbf7f16ffc06badafc7b7ec885c",
    "ground_truth/manifest.json": "6818a51bbd26af690c2c74d416793f4765c488e71eb615dca4ea8eff132c8c82",
    "heights/manifest.json": "7eee21b01f78725fb9025790c9ec849eb8c36921c5dcd568577eb10d8237f90b",
    "heights/t0.f32": "0187c390bd1f107b1a7b2539ca67a70837287c03a562e6a2ba36d8dfffd43d15",
    "heights/t1.f32": "3de2df03899a2ec12136dc85b725b5bf7e4968dfecfc66e34f517588fa85974c",
    "heights/t2.f32": "7173706b5f563ab7cbe4fcd952dfa0a5fc48cc5dcd2c5b1bd09a496a07c77af6",
    "prior_counts/cat0.f32": "be33f5bc17e66f24f8f769411b75b86690c6b5361a34f332a940d6037e8f6210",
    "prior_counts/cat1.f32": "eb71a0fcd6d8809455c311d1dfe13e4471fdf894cdc051cf60a09419b5bc4afb",
    "prior_counts/cat2.f32": "8f4f312da45b8ceea7e2960aabe1adb463ecff274319d80c25aef870fac042d3",
    "prior_counts/manifest.json": "57e1aea7cf2f093074535e786fabc4f1287da83f7f35956b8cce7a63e3e1abed",
}


def test_default_spec_dataset_digest(tmp_path):
    sy.write_dataset(sy.default_spec(), tmp_path)
    written = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.rglob("*") if f.is_file()}
    assert written == DEFAULT_SPEC_SHA256


# sha256 of each file that write_dataset writes for a non-square spec of
# 264 x 200 pixels and 4 timesteps, taken before the generator built its
# heights in place and its counts from per-category masks
WIDE_SPEC_SHA256 = {
    "ground_truth/cat0.f32": "adf0033fc77ac591455b53de24f6e538511111fa592f05f640254c93399772f2",
    "ground_truth/cat1.f32": "9324c784c98259f05156641791da26847d5bee5f96095aef9930abd19280e099",
    "ground_truth/cat2.f32": "c62050102d63179de4f5ca30e1d24b5c2267822808ace431f9abb0ac0609a84c",
    "ground_truth/manifest.json": "51f91dcbe2a0ed5ca5323909738ddc4059940f48b46160a7191a399597cd046d",
    "heights/manifest.json": "88b905066c1179fb24e9c6ee3560ece8120aa673bfc14acacc2b5495e5d3340f",
    "heights/t0.f32": "54206f388b8d8efdc01d1da791912fba9f0013e084cea38ead86e2722c54e80e",
    "heights/t1.f32": "c584b070d77909070a96c1a6873527e19255c49c61d156f02914e55cab1c0523",
    "heights/t2.f32": "b26c27cd906dcbb6e9a47697fab3037c383cc4d91776709ee6843ffc096728b4",
    "heights/t3.f32": "020c9b47a1647e5ca79114b858067e29a5f5ae5b430ddc223fee0a6860039fcd",
    "prior_counts/cat0.f32": "a86cb49bbbeb905b9326191bdea9d73284492c1127afc7188713a356387dd9ef",
    "prior_counts/cat1.f32": "a2b9c040dba6bc480aad0ebf1cf5feeb98733353717b866cb2b0a010401538a7",
    "prior_counts/cat2.f32": "8132cb7927b6b8167c5f08a8cc68bc925c73d5d9df4b971d34595cdac24d7d2c",
    "prior_counts/manifest.json": "aace0699bd954ce2a0bbf8e8e0ddb26dd191290c25f83b896b9a4900b52911aa",
}


def test_wide_spec_dataset_digest(tmp_path):
    sy.write_dataset(sy.default_spec(width=264, height_px=200, timesteps=4), tmp_path)
    written = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.rglob("*") if f.is_file()}
    assert written == WIDE_SPEC_SHA256


@pytest.mark.parametrize("mean", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "minus-inf", "nan"])
def test_spec_rejects_non_finite_mean(mean):
    # a spec file cannot carry one (its reader takes only finite numbers);
    # a spec built in code can
    with pytest.raises(ValueError, match="mean_log_heights must be finite"):
        sy.SyntheticSpec(8, 8, 1, 2, [0.5, mean], [0.3, 0.3], block_size=4, seed=0)
