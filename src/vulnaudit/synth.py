"""Seeded synthetic datasets for desk-scale verification.

Plants a per-pixel category map as organic blobs (each pixel takes the
category of the seed pixel nearest to its noise-displaced position), samples
building heights log-normally per category for each timestep, and aggregates
the ground truth into coarse prior-count blocks, a configurable fraction of
which are corrupted by resampling their counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .grid_store import GridStack, RasterGrid, StackKind, StackManifest, write_grid_stack

PIXELS_PER_BLOB = 256  # generate plants one seed pixel per this many pixels, at least k


@dataclass
class SyntheticSpec:
    width: int
    height_px: int
    timesteps: int
    k: int
    mean_log_heights: list[float]
    std_log_heights: list[float]
    block_size: int
    seed: int
    corruption: float = 0.0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2 categories, got {self.k}")
        if len(self.mean_log_heights) != self.k or len(self.std_log_heights) != self.k:
            raise ValueError(f"mean_log_heights and std_log_heights need k = {self.k} values")
        if len(set(self.mean_log_heights)) != self.k:
            raise ValueError("mean_log_heights must be distinct")
        if not all(math.isfinite(m) for m in self.mean_log_heights):
            raise ValueError("mean_log_heights must be finite")
        if not all(math.isfinite(s) and s >= 0 for s in self.std_log_heights):
            raise ValueError("std_log_heights must be finite and >= 0")
        if not 0.0 <= self.corruption < 1.0:
            raise ValueError("corruption must lie in [0, 1)")
        if self.width < 1 or self.height_px < 1:
            raise ValueError(f"width and height_px must be >= 1, got "
                             f"{self.width} x {self.height_px}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.width % self.block_size or self.height_px % self.block_size:
            raise ValueError("extent must be a multiple of block_size")
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")


def default_spec(width: int = 64, height_px: int = 64, timesteps: int = 3,
                 k: int = 3, block_size: int = 8, seed: int = 42,
                 corruption: float = 0.2) -> SyntheticSpec:
    """Well-separated log-height bands: means 0.5 apart-by-1.0, std 0.3."""
    return SyntheticSpec(width, height_px, timesteps, k,
                         [0.5 + 1.0 * i for i in range(k)],
                         [0.3] * k, block_size, seed, corruption)


def grow_categories(width: int, height_px: int, k: int, n_blobs: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Plant organic blobs: each pixel takes the category of the seed pixel
    nearest to its noise-displaced position. Returns an (H, W) int64 array
    of category codes.

    The rng contract, which fixes every synthetic dataset: one ``rng.choice``
    call picks ``min(max(k, n_blobs), W*H)`` distinct seed pixels; the first
    ``k`` seeds take categories 0..k-1 and the rest one ``rng.integers``
    call; one ``rng.standard_normal((2, H, W))`` call gives the displacement
    field. The field is Gaussian-smoothed and scaled by the blob radius
    ``r = sqrt(W*H / seeds)``: sigma ``r / 2``, standard deviation ``r / 2``.
    Each seed pixel keeps its own category, so every category is present
    whenever ``W*H >= k``.
    """
    n_pixels = width * height_px
    n_seeds = min(max(k, n_blobs), n_pixels)
    seeds = rng.choice(n_pixels, size=n_seeds, replace=False)
    n_fixed = min(k, n_seeds)
    seed_cats = np.concatenate([np.arange(n_fixed),
                                rng.integers(0, k, size=n_seeds - n_fixed)])
    not_seed = np.ones((height_px, width), dtype=bool)
    not_seed.flat[seeds] = False
    # the coordinates of each pixel's nearest seed
    iy, ix = ndimage.distance_transform_edt(not_seed, return_distances=False,
                                            return_indices=True)
    radius = math.sqrt(n_pixels / n_seeds)
    shift = ndimage.gaussian_filter(rng.standard_normal((2, height_px, width)),
                                    (0, radius / 2, radius / 2))
    shift *= radius / 2 / (shift.std() or 1.0)
    py = np.clip(np.rint(shift[0] + np.arange(height_px)[:, None]), 0, height_px - 1)
    px = np.clip(np.rint(shift[1] + np.arange(width)), 0, width - 1)
    py, px = py.astype(np.intp), px.astype(np.intp)
    cats = np.zeros((height_px, width), dtype=np.int64)
    cats.flat[seeds] = seed_cats
    out = cats[iy[py, px], ix[py, px]]
    out.flat[seeds] = seed_cats
    return out


def generate(spec: SyntheticSpec) -> dict[str, GridStack]:
    """Build the height series, prior counts, and one-hot ground-truth stacks."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5E7]))
    w, h, k, b = spec.width, spec.height_px, spec.k, spec.block_size
    categories = grow_categories(w, h, k, max(k, round(w * h / PIXELS_PER_BLOB)), rng)
    labels = [f"cat{i}" for i in range(k)]

    mu = np.asarray(spec.mean_log_heights)[categories]
    sigma = np.asarray(spec.std_log_heights)[categories]
    height_grids = []
    for _ in range(spec.timesteps):
        z = rng.normal(size=(h, w))  # exp(z * sigma + mu), computed in place
        z *= sigma
        z += mu
        np.exp(z, out=z)
        height_grids.append(RasterGrid(w, h, z.astype(np.float32)))
    del mu, sigma, z
    heights_stack = GridStack(
        StackManifest(StackKind.HEIGHT_SERIES, w, h,
                      [f"t{i}" for i in range(spec.timesteps)]),
        height_grids)

    # each category's pixels counted per block from its own mask: no (H, W, K) one-hot
    bw, bh = w // b, h // b
    counts = np.empty((bh, bw, k))
    for i in range(k):
        counts[:, :, i] = (categories == i).reshape(bh, b, bw, b).sum(axis=(1, 3))
    corrupt = rng.random((bh, bw)) < spec.corruption
    n_corrupt = int(corrupt.sum())
    if n_corrupt:
        counts[corrupt] = rng.integers(0, b * b + 1, size=(n_corrupt, k)).astype(np.float64)
    counts_stack = GridStack(
        StackManifest(StackKind.PRIOR_COUNTS, bw, bh, labels),
        [RasterGrid(bw, bh, counts[:, :, i].astype(np.float32)) for i in range(k)])

    truth_stack = GridStack(
        StackManifest(StackKind.PRIOR_PROPORTIONS, w, h, labels),
        [RasterGrid(w, h, (categories == i).astype(np.float32)) for i in range(k)])

    return {"heights": heights_stack, "prior_counts": counts_stack,
            "ground_truth": truth_stack}


def write_dataset(spec: SyntheticSpec, out_dir: str | Path) -> dict[str, Path]:
    out_dir = Path(out_dir)
    stacks = generate(spec)
    paths = {}
    for name, stack in stacks.items():
        path = out_dir / name
        write_grid_stack(stack, path)
        paths[name] = path
    return paths
