"""Workload definitions and the seeded datasets the pipeline runs on.

Every workload uses ``synth.default_spec`` (k=3, 8-pixel prior blocks, 20%
corrupted blocks) with tile 64 and upsample 8; they differ in raster size,
timesteps, epochs and building density, so that each stresses a different
layer:

- dense-train: 256x256, 3 timesteps, 12 epochs, so that train is over 80%
  of the pipeline. Every pixel is a node and the training graph stays under
  the 50k-node cap (one subgraph), so the many train steps on the numcore
  tape dominate.
- dense-large: 512x512, 3 timesteps, 1 epoch. Four training subgraphs per
  timestep; graph building, full-raster inference and grid I/O dominate.
- sparse-churn: 512x512, 8 timesteps, 1 epoch. Heights are zeroed outside a
  seeded map of 4x4-pixel footprints covering 35% of pixels, and 8% of the
  footprints flip (half demolished, half built) at each step. Per-pixel work
  (stacks, posteriors, audit maps, (H*W)x(K+1) transitions) grows with
  area x timesteps while per-node work shrinks; graphs have irregular degree
  and the NONE state carries real transition mass.

The program only ever sees the generated stacks; the ground truth is read by
the benchmark to score test accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vulnaudit import grid_store as gs
from vulnaudit import synth as sy

K = 3
TILE_SIZE = 64
UPSAMPLE = 8
FOOTPRINT_PX = 4
FOOTPRINT_SHARE = 0.35
FLIP_SHARE = 0.08


@dataclass(frozen=True)
class Workload:
    name: str
    size: int       # raster width and height in pixels
    timesteps: int
    epochs: int
    sparse: bool    # heights zeroed outside the footprint map


WORKLOADS = {w.name: w for w in (
    Workload("dense-train", 256, 3, 12, False),
    Workload("dense-large", 512, 3, 1, False),
    Workload("sparse-churn", 512, 8, 1, True),
)}


@dataclass
class DatasetInfo:
    """Measured shape of a generated dataset."""

    node_frac: float   # share of pixels with height > 0, mean over timesteps
    churn_frac: float  # share of pixels whose building state flips, mean over steps
    nodes: int         # node pixels summed over timesteps


def footprint_masks(size: int, timesteps: int, seed: int) -> list[np.ndarray]:
    """Per-timestep building masks made of FOOTPRINT_PX-square footprints.

    The first step occupies exactly FOOTPRINT_SHARE of the footprint cells;
    each later step demolishes FLIP_SHARE/2 of all cells from the occupied
    ones and builds as many on empty ones, so the occupied share holds.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF007]))
    cells = size // FOOTPRINT_PX
    n = cells * cells
    occupied = np.zeros(n, dtype=bool)
    occupied[rng.permutation(n)[:round(FOOTPRINT_SHARE * n)]] = True
    half_flip = round(FLIP_SHARE * n / 2)
    masks = []
    for t in range(timesteps):
        if t:
            built, empty = np.flatnonzero(occupied), np.flatnonzero(~occupied)
            occupied = occupied.copy()
            occupied[rng.choice(built, half_flip, replace=False)] = False
            occupied[rng.choice(empty, half_flip, replace=False)] = True
        block = occupied.reshape(cells, cells)
        masks.append(np.repeat(np.repeat(block, FOOTPRINT_PX, 0), FOOTPRINT_PX, 1))
    return masks


def write_dataset(workload: Workload, seed: int, out_dir: Path) -> DatasetInfo:
    """Generate the workload's stacks with the program's synth module and
    write them under ``out_dir`` (heights/, prior_counts/, ground_truth/)."""
    spec = sy.default_spec(width=workload.size, height_px=workload.size,
                           timesteps=workload.timesteps, k=K, block_size=UPSAMPLE,
                           seed=seed, corruption=0.2)
    stacks = sy.generate(spec)
    heights = stacks["heights"]
    if workload.sparse:
        masks = footprint_masks(workload.size, workload.timesteps, seed)
        grids = [gs.RasterGrid(g.width, g.height_px, np.where(m, g.values, 0.0))
                 for g, m in zip(heights.grids, masks)]
        heights = gs.GridStack(heights.manifest, grids)
        stacks["heights"] = heights
    for name, stack in stacks.items():
        gs.write_grid_stack(stack, out_dir / name)

    built = [g.values > 0 for g in heights.grids]
    churn = [float((a != b).mean()) for a, b in zip(built, built[1:])]
    return DatasetInfo(node_frac=float(np.mean([b.mean() for b in built])),
                       churn_frac=float(np.mean(churn)) if churn else 0.0,
                       nodes=int(sum(b.sum() for b in built)))


def write_config(workload: Workload, seed: int, data_dir: Path, out_dir: Path,
                 path: Path) -> None:
    """Run config; training keeps the program's default seed, so accuracy
    differs between benchmark seeds through the data, not the initialisation."""
    doc = {"heights": str(data_dir / "heights"),
           "prior_counts": str(data_dir / "prior_counts"),
           "out_dir": str(out_dir),
           "tile_size": TILE_SIZE, "upsample_factor": UPSAMPLE, "split_seed": seed,
           "train": {"epochs": workload.epochs}}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
