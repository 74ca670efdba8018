"""Post-training analytics over posterior fields.

Covers compositional distance maps between prior and posterior (each a plain
``RasterGrid``), thresholded building-height change maps, regional
mean-posterior trends, and soft first-order transition matrices augmented with
a NONE (no building) category, plus their CSV/DOT/heatmap export formats.
``cli.cmd_audit`` stacks the maps of all timesteps itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .grid_store import (DEFAULT_NODATA, NONE_LABEL, CategoryField, RasterGrid,
                         row_bands, write_atomic)

EPSILON = 1e-6  # the value that replaces a zero part before the log-ratios
CHANGE_THRESHOLD_M = 1.5
MIN_EDGE = 0.05  # the smallest transition probability drawn as a DOT edge
# codes are -1/0/+1, so the change-map sentinel must live outside that set
CHANGE_NODATA = -9999.0


@dataclass
class ChangeMap:
    grid: RasterGrid


@dataclass
class TransitionMatrix:
    """Raw and row-normalized soft transitions over K categories plus NONE."""

    labels: list[str]          # K category labels + NONE
    raw: np.ndarray            # (K+1, K+1) non-negative
    normalized: np.ndarray     # (K+1, K+1) row-stochastic
    period: str                # "t -> t+1" label or "averaged"
    zero_mass_rows: list[str]  # rows that had no raw mass and were pinned to NONE


def _smooth(v: np.ndarray) -> np.ndarray:
    """Replace zero components with EPSILON, then renormalize to the simplex."""
    out = np.where(v == 0.0, EPSILON, v)
    return out / out.sum(axis=-1, keepdims=True)


def _aitchison_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Compositional distance sqrt(1/(2K) sum_ij (ln(p_i/p_j) - ln(q_i/q_j))^2)
    between the compositions along the last axis of ``p`` and ``q``."""
    d = np.log(_smooth(p)) - np.log(_smooth(q))
    # the double log-ratio sum collapses to the centered-log-ratio norm
    k = p.shape[-1]
    return np.sqrt(np.maximum((d * d).sum(axis=-1) - d.sum(axis=-1) ** 2 / k, 0.0))


def aitchison_distance(p, q) -> float:
    """Aitchison distance between two compositions of K >= 2 finite,
    non-negative parts."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1 or p.size < 2:
        raise ValueError("inputs must be equal-length vectors with K >= 2")
    if not ((p >= 0) & (p < np.inf) & (q >= 0) & (q < np.inf)).all():  # NaN fails too
        raise ValueError("parts must be finite and non-negative")
    return float(_aitchison_rows(p, q))


def ad_map(prior: CategoryField, posterior: CategoryField) -> RasterGrid:
    """The grid of pixel-wise distances where both a prior and a posterior
    exist, DEFAULT_NODATA elsewhere, taken one row band at a time (see
    ``grid_store.row_bands``)."""
    if prior.shape != posterior.shape:
        raise ValueError("prior/posterior dimensions differ")
    if prior.k != posterior.k:
        raise ValueError("prior/posterior category counts differ")
    h, w = posterior.shape
    out = np.full((h, w), DEFAULT_NODATA, dtype=np.float32)
    for band in row_bands(h, w):  # float64 -> float32 assignment rounds as astype does
        mask = prior.valid[band] & posterior.valid[band]
        out[band][mask] = _aitchison_rows(prior.probs[band][mask], posterior.probs[band][mask])
    return RasterGrid(w, h, out, nodata=DEFAULT_NODATA)


def change_map(h_t: RasterGrid, h_t1: RasterGrid, threshold_m: float) -> ChangeMap:
    """Code +1/-1 where the height delta strictly exceeds +-threshold_m, else 0.

    Nodata (absent building) counts as height 0, so demolition registers as a
    decrease. ``cli.cmd_audit`` passes CHANGE_THRESHOLD_M.
    """
    if (h_t.width, h_t.height_px) != (h_t1.width, h_t1.height_px):
        raise ValueError("height rasters have different dimensions")
    if not threshold_m > 0:  # NaN fails too
        raise ValueError("threshold must be positive")
    a = np.where(h_t.valid_mask(), h_t.values.astype(np.float64), 0.0)
    b = np.where(h_t1.valid_mask(), h_t1.values.astype(np.float64), 0.0)
    delta = b - a
    codes = np.zeros_like(delta)
    codes[delta > threshold_m] = 1.0
    codes[delta < -threshold_m] = -1.0
    grid = RasterGrid(h_t.width, h_t.height_px, codes.astype(np.float32),
                      nodata=CHANGE_NODATA)
    return ChangeMap(grid)


def region_mean(post: CategoryField, region: tuple[int, int, int, int]) -> np.ndarray:
    """The mean posterior over the node pixels inside the (x, y, width,
    height) rectangle; a region that held none has no mean, and reads NaN."""
    x, y, w, h = region
    inside = post.valid[y:y + h, x:x + w]
    if not inside.any():
        return np.full(post.k, np.nan)
    return post.probs[y:y + h, x:x + w][inside].mean(axis=0)


def _extended_distribution(post: CategoryField) -> np.ndarray:
    """(H*W, K+1) rows: node pixels get (p, 0); empty pixels are one-hot NONE."""
    h, w, k = post.probs.shape
    ext = np.zeros((h * w, k + 1), dtype=np.float64)
    flat_valid = post.valid.ravel()
    ext[flat_valid, :k] = post.probs.reshape(-1, k)[flat_valid]
    ext[~flat_valid, k] = 1.0
    return ext


def transition_matrices(posteriors: Iterable[CategoryField]) -> list[TransitionMatrix]:
    """Expected category-to-category transition mass between consecutive
    steps: the matrix of each consecutive pair in order, then the averaged one.

    One pass consumes ``posteriors`` once, in order, so it may be a stream:
    it holds only the previous timestep's extended distribution and the pair
    products Pₜᵀ·Pₜ₊₁, each built once. A pair's raw entries average its
    per-pixel products over all H*W pixels; the averaged raw matrix is the
    pair products summed in order and divided once by H*W*(T-1). Rows are
    then normalized to sum to one (see ``_row_normalized``). Fewer than two
    fields have no pair and give no matrix.
    """
    pairs, timesteps = [], []
    for post in posteriors:
        if timesteps and (post.shape, post.categories) != (shape, categories):
            raise ValueError("posterior fields disagree on shape or categories")
        shape, categories = post.shape, post.categories
        ext_next = _extended_distribution(post)
        if timesteps:
            pairs.append(ext_prev.T @ ext_next)
        timesteps.append(post.timestep)
        del post  # a stream's next field is read without this one
        ext_prev = ext_next
    if not pairs:
        return []
    hw = shape[0] * shape[1]
    periods = [f"{a} -> {b}" for a, b in zip(timesteps, timesteps[1:])]
    raws = [pair / hw for pair in pairs] + [sum(pairs) / (hw * len(pairs))]
    return [_row_normalized(categories, raw, period)
            for raw, period in zip(raws, periods + ["averaged"])]


def _row_normalized(categories: list[str], raw: np.ndarray, period: str) -> TransitionMatrix:
    """``raw`` with each row divided by its sum. A row with no raw mass has
    no observed source category and is pinned one-hot on NONE (recorded in
    ``zero_mass_rows``). A category named NONE would collide with that
    state, so it is rejected."""
    if NONE_LABEL in categories:
        raise ValueError(f"category {NONE_LABEL!r} collides with the no-building state")
    labels = list(categories) + [NONE_LABEL]
    normalized = np.zeros_like(raw)
    row_sums = raw.sum(axis=1)
    zero_rows = row_sums == 0.0
    np.divide(raw, row_sums[:, None], out=normalized, where=~zero_rows[:, None])
    normalized[zero_rows, -1] = 1.0
    return TransitionMatrix(labels, raw, normalized, period,
                            [labels[i] for i in np.nonzero(zero_rows)[0]])


def transition_matrix(posteriors: list[CategoryField],
                      mode: str = "averaged") -> TransitionMatrix:
    """The ``averaged`` matrix of ``transition_matrices``, or the
    ``one_step`` matrix of exactly one consecutive pair."""
    if mode not in ("one_step", "averaged"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(posteriors) < 2:
        raise ValueError("need at least 2 timesteps")
    if mode == "one_step" and len(posteriors) > 2:
        raise ValueError("one_step mode takes exactly one consecutive pair")
    return transition_matrices(posteriors)[0 if mode == "one_step" else -1]


def transition_to_dot(tm: TransitionMatrix) -> str:
    """DOT digraph with one edge per normalized entry >= MIN_EDGE."""
    lines = ["digraph transitions {", "  rankdir=LR;"]
    for label in tm.labels:
        lines.append(f'  "{label}";')
    n = len(tm.labels)
    for i in range(n):
        for j in range(n):
            p = tm.normalized[i, j]
            if p >= MIN_EDGE:
                lines.append(f'  "{tm.labels[i]}" -> "{tm.labels[j]}" '
                             f'[label="{p:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_transition_csv(labels: list[str], matrix: np.ndarray, path: str | Path) -> None:
    """One row per source state of a transition ``matrix`` (a
    ``TransitionMatrix``'s ``raw`` or ``normalized``), its states ``labels``."""
    _write_rows(path, ["from\\to", *labels], labels, matrix)


def write_trend_csv(timesteps: list[str], categories: list[str], series: np.ndarray,
                    path: str | Path) -> None:
    """One row per timestep of the (T, K) mean posteriors ``series`` (see
    ``region_mean``); a NaN row, a region with no node pixel, reads ``nan``."""
    _write_rows(path, ["timestep", *categories], timesteps, series)


def _write_rows(path: str | Path, header: list[str], labels: list[str], rows) -> None:
    """A CSV of ``header``, then one ``label,%.9g,%.9g,...`` line per row."""
    lines = [",".join(header)] + [label + "," + ",".join(f"{v:.9g}" for v in row)
                                  for label, row in zip(labels, rows)]
    write_atomic(path, "\n".join(lines) + "\n")


def write_ppm_heatmap(grid: RasterGrid, path: str | Path) -> None:
    """8-bit P6 pixmap: linear blue-to-red ramp over [min, max]; nodata black."""
    valid = grid.valid_mask()
    vals = grid.values.astype(np.float64)
    if valid.any():
        lo = vals[valid].min()
        hi = vals[valid].max()
        t = np.zeros_like(vals) if hi == lo else \
            np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    else:
        t = np.zeros_like(vals)
    rgb = np.zeros((grid.height_px, grid.width, 3), dtype=np.uint8)
    rgb[:, :, 0] = np.where(valid, np.round(255 * t), 0).astype(np.uint8)
    rgb[:, :, 2] = np.where(valid, np.round(255 * (1.0 - t)), 0).astype(np.uint8)
    header = f"P6\n{grid.width} {grid.height_px}\n255\n".encode("ascii")
    write_atomic(path, header + rgb.tobytes())
