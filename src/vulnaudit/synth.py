"""Seeded synthetic datasets for desk-scale verification.

Plants a per-pixel category map as organic blobs (randomized multi-source
region growing), samples building heights log-normally per category for each
timestep, and aggregates the ground truth into coarse prior-count blocks, a
configurable fraction of which are corrupted by resampling their counts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid_store import (GridStack, RasterGrid, StackKind, StackManifest,
                         write_grid_stack)

_NEIGHBORS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
_UNIT = float(1 << 53)  # random() draws are multiples of 2**-53


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
            raise ValueError("need at least one timestep")
        if self.n_blobs is not None and self.n_blobs < 1:
            raise ValueError(f"n_blobs must be >= 1 when given, got {self.n_blobs}")
        if self.labels is None:
            self.labels = [f"cat{i}" for i in range(self.k)]
        elif len(self.labels) != self.k:
            raise ValueError(f"labels has {len(self.labels)} entries, k is {self.k}")


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
    one blob. Returns an (H, W) int64 array of category codes.

    The rng contract, which fixes every synthetic dataset: ``rng.choice``
    picks the seed pixels; then each seed, in order, takes one
    ``rng.integers(0, k)`` draw for its category (the first ``k`` seeds take
    categories 0..k-1 without one) and one ``rng.random()`` draw. Growing
    then takes one ``random()`` draw per push, in push order. A push puts an
    unclaimed 8-neighbour (in ``_NEIGHBORS`` order) of a newly claimed cell on
    the frontier with its claimer's category; the pending push with the
    lowest draw claims its cell next, ties broken by push order.
    """
    n_blobs = max(k, n_blobs)
    n_seeds = min(n_blobs, width * height_px)
    # one flat mask with a claimed border, so neighbours need no bounds check
    stride = width + 2
    padded = np.ones((height_px + 2, stride), dtype=np.uint8)
    padded[1:-1, 1:-1] = 0
    taken = bytearray(padded.tobytes())
    offsets = [dy * stride + dx for dx, dy in _NEIGHBORS]
    # A heap key packs (53-bit draw, push counter, cell) into one int, so it
    # sorts like the (draw, push order) pair.
    cell_bits = len(taken).bit_length()
    counter_bits = (n_seeds + 8 * width * height_px).bit_length()
    cell_mask = (1 << cell_bits) - 1
    cats = [-1] * len(taken)
    # lowest pending key per cell: a push above it could only pop stale
    best = [1 << (53 + counter_bits + cell_bits)] * len(taken)
    heap = []
    flat_seeds = rng.choice(width * height_px, size=n_seeds, replace=False)
    for i, flat in enumerate(flat_seeds.tolist()):
        y, x = divmod(flat, width)
        cell = (y + 1) * stride + x + 1
        cats[cell] = i % k if i < k else int(rng.integers(0, k))
        best[cell] = (int(float(rng.random()) * _UNIT) << counter_bits | i) << cell_bits | cell
        heap.append(best[cell])
    heapq.heapify(heap)

    # Draws come in blocks; random(m) gives the same doubles as m random()
    # calls. At the end the rng is rewound to just past the last draw used.
    block_len = width * height_px
    block, used, before_block = [], block_len, None
    counter = n_seeds
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        cell = heappop(heap) & cell_mask
        if taken[cell]:
            continue
        taken[cell] = 1
        c = cats[cell]
        for off in offsets:
            nb = cell + off
            if taken[nb]:
                continue
            if used == block_len:
                before_block = rng.bit_generator.state
                block = (rng.random(block_len) * _UNIT).astype(np.int64).tolist()
                used = 0
            key = (block[used] << counter_bits | counter) << cell_bits | nb
            used += 1
            counter += 1
            if key < best[nb]:
                best[nb] = key
                cats[nb] = c
                heappush(heap, key)
    if before_block is not None:
        rng.bit_generator.state = before_block
        rng.random(used)
    return np.array(cats, dtype=np.int64).reshape(height_px + 2, stride)[1:-1, 1:-1].copy()


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
