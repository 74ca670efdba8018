"""Seeded synthetic datasets for desk-scale verification.

Plants a per-pixel category map as organic blobs (randomized multi-source
region growing), samples building heights log-normally per category for each
timestep, and aggregates the ground truth into coarse prior-count blocks, a
configurable fraction of which are corrupted by resampling their counts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid_store import (GridStack, RasterGrid, StackKind, StackManifest,
                         write_grid_stack)

_NEIGHBORS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


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
    n_blobs: int | None = None
    labels: list[str] | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least 2 categories")
        if len(self.mean_log_heights) != self.k or len(self.std_log_heights) != self.k:
            raise ValueError("height distribution parameters must match k")
        if len(set(self.mean_log_heights)) != self.k:
            raise ValueError("mean log-heights must be distinct")
        if not 0.0 <= self.corruption < 1.0:
            raise ValueError("corruption must lie in [0, 1)")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.width % self.block_size or self.height_px % self.block_size:
            raise ValueError("extent must be a multiple of block_size")
        if self.timesteps < 1:
            raise ValueError("need at least one timestep")
        if self.labels is None:
            self.labels = [f"cat{i}" for i in range(self.k)]


def default_spec(width: int = 64, height_px: int = 64, timesteps: int = 3,
                 k: int = 3, block_size: int = 8, seed: int = 42,
                 corruption: float = 0.2) -> SyntheticSpec:
    """Well-separated log-height bands: means 0.5 apart-by-1.0, std 0.3."""
    return SyntheticSpec(width, height_px, timesteps, k,
                         [0.5 + 1.0 * i for i in range(k)],
                         [0.3] * k, block_size, seed, corruption)


def grow_categories(width: int, height_px: int, k: int, n_blobs: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Randomized multi-source region growing; every category seeds at least
    one blob. Returns an (H, W) int array of category codes."""
    n_blobs = max(k, n_blobs)
    cat = np.full((height_px, width), -1, dtype=np.int64)
    flat_seeds = rng.choice(width * height_px, size=min(n_blobs, width * height_px),
                            replace=False)
    heap: list[tuple[float, int, int, int, int]] = []
    counter = 0
    for i, flat in enumerate(flat_seeds):
        y, x = divmod(int(flat), width)
        c = i % k if i < k else int(rng.integers(0, k))
        heapq.heappush(heap, (float(rng.random()), counter, x, y, c))
        counter += 1
    while heap:
        _, _, x, y, c = heapq.heappop(heap)
        if cat[y, x] != -1:
            continue
        cat[y, x] = c
        for dx, dy in _NEIGHBORS:
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height_px and cat[ny, nx] == -1:
                heapq.heappush(heap, (float(rng.random()), counter, nx, ny, c))
                counter += 1
    return cat


def generate(spec: SyntheticSpec) -> dict[str, GridStack]:
    """Build the height series, prior counts, and one-hot ground-truth stacks."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5E7]))
    w, h, k, b = spec.width, spec.height_px, spec.k, spec.block_size
    n_blobs = spec.n_blobs if spec.n_blobs else max(k, round(w * h / 256))
    categories = grow_categories(w, h, k, n_blobs, rng)

    mu = np.asarray(spec.mean_log_heights)[categories]
    sigma = np.asarray(spec.std_log_heights)[categories]
    height_grids = []
    for _ in range(spec.timesteps):
        heights = np.exp(rng.normal(size=(h, w)) * sigma + mu)
        height_grids.append(RasterGrid(w, h, heights.astype(np.float32)))
    heights_stack = GridStack(
        StackManifest(StackKind.HEIGHT_SERIES, w, h,
                      [f"t{i}" for i in range(spec.timesteps)]),
        height_grids)

    one_hot = np.eye(k)[categories]  # (H, W, K)
    bw, bh = w // b, h // b
    counts = one_hot.reshape(bh, b, bw, b, k).sum(axis=(1, 3))  # (bh, bw, K)
    corrupt = rng.random((bh, bw)) < spec.corruption
    n_corrupt = int(corrupt.sum())
    if n_corrupt:
        counts[corrupt] = rng.integers(0, b * b + 1, size=(n_corrupt, k)).astype(np.float64)
    counts_stack = GridStack(
        StackManifest(StackKind.PRIOR_COUNTS, bw, bh, list(spec.labels)),
        [RasterGrid(bw, bh, counts[:, :, i].astype(np.float32)) for i in range(k)])

    truth_stack = GridStack(
        StackManifest(StackKind.PRIOR_PROPORTIONS, w, h, list(spec.labels)),
        [RasterGrid(w, h, one_hot[:, :, i].astype(np.float32)) for i in range(k)])

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
