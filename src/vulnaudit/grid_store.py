"""On-disk raster stacks and prior-field preparation.

A grid stack is a directory holding ``manifest.json`` plus one ``<label>.f32``
file per layer: width * height_px little-endian IEEE-754 32-bit floats,
row-major, top row first. Values are kept as float32 in memory so that
write -> read round-trips are bit-exact.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

DEFAULT_NODATA = -1.0
SIMPLEX_TOL = 1e-6

_BAD_LABEL_PARTS = ("/", "\\", "..")


class GridFormatError(ValueError):
    """Malformed stack directory, manifest, or layer payload."""


class StackKind(str, Enum):
    HEIGHT_SERIES = "HEIGHT_SERIES"
    PRIOR_COUNTS = "PRIOR_COUNTS"
    PRIOR_PROPORTIONS = "PRIOR_PROPORTIONS"
    POSTERIOR = "POSTERIOR"
    AD_MAP = "AD_MAP"
    CHANGE_MAP = "CHANGE_MAP"


# kinds whose non-nodata values must lie in [0, 1]
_UNIT_RANGE_KINDS = (StackKind.PRIOR_PROPORTIONS, StackKind.POSTERIOR)


@dataclass
class RasterGrid:
    """One 2-D field of float32 values with a nodata sentinel.

    ``values`` has shape (height_px, width); pixel (x, y) is ``values[y, x]``.
    """

    width: int
    height_px: int
    values: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        if self.width <= 0 or self.height_px <= 0:
            raise GridFormatError("grid dimensions must be positive")
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.size != self.width * self.height_px:
            raise GridFormatError(
                f"values length {self.values.size} != {self.width}x{self.height_px}")
        self.values = self.values.reshape(self.height_px, self.width)
        bad = ~np.isfinite(self.values) & ~self._sentinel_mask(self.values)
        if np.any(bad):
            raise GridFormatError("non-finite value outside nodata sentinel")

    def _sentinel_mask(self, arr: np.ndarray) -> np.ndarray:
        return arr == np.float32(self.nodata)

    def valid_mask(self) -> np.ndarray:
        return ~self._sentinel_mask(self.values)


@dataclass
class StackManifest:
    kind: StackKind
    width: int
    height_px: int
    layer_labels: list[str]
    nodata: float = DEFAULT_NODATA
    crs_note: str = ""

    def __post_init__(self):
        self.kind = StackKind(self.kind)
        if self.width <= 0 or self.height_px <= 0:
            raise GridFormatError("manifest dimensions must be positive")
        if len(set(self.layer_labels)) != len(self.layer_labels):
            raise GridFormatError("duplicate labels in manifest")
        for label in self.layer_labels:
            if not label or any(p in label for p in _BAD_LABEL_PARTS):
                raise GridFormatError(f"unusable layer label {label!r}")


@dataclass
class GridStack:
    manifest: StackManifest
    grids: list[RasterGrid]

    def __post_init__(self):
        validate_stack(self)

    def layer(self, label: str) -> RasterGrid:
        return self.grids[self.manifest.layer_labels.index(label)]


def validate_stack(stack: GridStack) -> None:
    m = stack.manifest
    if len(stack.grids) != len(m.layer_labels):
        raise GridFormatError(
            f"{len(stack.grids)} grids for {len(m.layer_labels)} labels")
    for grid in stack.grids:
        if (grid.width, grid.height_px) != (m.width, m.height_px):
            raise GridFormatError("layer dimensions differ from manifest")
        if grid.nodata != m.nodata:
            raise GridFormatError("layer nodata differs from manifest")
        if m.kind in _UNIT_RANGE_KINDS:
            vals = grid.values[grid.valid_mask()]
            if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
                raise GridFormatError(f"range violation: {m.kind.value} value outside [0,1]")


def read_grid_stack(path: str | Path) -> GridStack:
    """Load a stack directory; values are read bit-exactly as little-endian f32."""
    path = Path(path)
    manifest_file = path / "manifest.json"
    if not manifest_file.is_file():
        raise GridFormatError(f"missing manifest: {manifest_file}")
    try:
        raw = json.loads(manifest_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GridFormatError(f"unreadable manifest: {exc}") from exc
    try:
        manifest = StackManifest(
            kind=raw["kind"],
            width=int(raw["width"]),
            height_px=int(raw["height_px"]),
            layer_labels=list(raw["layers"]),
            nodata=float(raw["nodata"]),
            crs_note=str(raw.get("crs_note", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, GridFormatError):
            raise
        raise GridFormatError(f"bad manifest fields: {exc}") from exc

    expected = 4 * manifest.width * manifest.height_px
    grids = []
    for label in manifest.layer_labels:
        layer_file = path / f"{label}.f32"
        if not layer_file.is_file():
            raise GridFormatError(f"missing layer: {layer_file}")
        blob = layer_file.read_bytes()
        if len(blob) != expected:
            raise GridFormatError(
                f"layer {label!r} has {len(blob)} bytes, expected {expected}")
        values = np.frombuffer(blob, dtype="<f4").astype(np.float32)
        grids.append(RasterGrid(manifest.width, manifest.height_px, values,
                                nodata=manifest.nodata))
    return GridStack(manifest, grids)


def write_grid_stack(stack: GridStack, path: str | Path) -> None:
    """Write manifest + layer files; re-reading yields an equal stack.

    The files go into a sibling temporary directory that then takes the
    place of ``path``, so a write that fails part-way leaves ``path`` holding
    the previous stack or nothing, never new files beside old ones.
    """
    validate_stack(stack)
    m = stack.manifest
    doc = {
        "kind": m.kind.value,
        "width": m.width,
        "height_px": m.height_px,
        "nodata": m.nodata,
        "layers": m.layer_labels,
        "crs_note": m.crs_note,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _sibling(path, "tmp")
    tmp.mkdir()
    try:
        (tmp / "manifest.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for label, grid in zip(m.layer_labels, stack.grids):
            (tmp / f"{label}.f32").write_bytes(
                np.ascontiguousarray(grid.values, dtype="<f4").tobytes())
        if path.is_dir():
            # os.replace cannot replace a non-empty directory: move it aside
            old = _sibling(path, "old")
            os.replace(path, old)
            try:
                os.replace(tmp, path)
            except OSError:
                os.replace(old, path)
                raise
            shutil.rmtree(old)
        else:
            os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _sibling(path: Path, tag: str) -> Path:
    return path.with_name(f".{path.name}.{tag}-{uuid.uuid4().hex[:12]}")


def stacks_equal(a: GridStack, b: GridStack) -> bool:
    if (a.manifest.kind, a.manifest.width, a.manifest.height_px,
            a.manifest.layer_labels, a.manifest.nodata) != \
       (b.manifest.kind, b.manifest.width, b.manifest.height_px,
            b.manifest.layer_labels, b.manifest.nodata):
        return False
    return all(ga.values.tobytes() == gb.values.tobytes()
               for ga, gb in zip(a.grids, b.grids))


@dataclass
class PriorField:
    """Per-pixel category proportions plus a mask of pixels that carry a prior.

    Where ``has_prior`` is False the pixel contributes nothing to the
    divergence/cross-entropy terms downstream; ``proportions`` holds zeros
    there.
    """

    categories: list[str]
    proportions: np.ndarray  # (H, W, K) float64
    has_prior: np.ndarray    # (H, W) bool

    def __post_init__(self):
        self.proportions = np.asarray(self.proportions, dtype=np.float64)
        self.has_prior = np.asarray(self.has_prior, dtype=bool)
        h, w, k = self.proportions.shape
        if k != len(self.categories):
            raise ValueError("proportions last axis != number of categories")
        if self.has_prior.shape != (h, w):
            raise ValueError("has_prior shape mismatch")
        if np.any(self.has_prior):
            sums = self.proportions[self.has_prior].sum(axis=1)
            comps = self.proportions[self.has_prior]
            if comps.min() < -SIMPLEX_TOL or comps.max() > 1.0 + SIMPLEX_TOL:
                raise ValueError("prior proportion outside [0,1]")
            if np.max(np.abs(sums - 1.0)) > SIMPLEX_TOL:
                raise ValueError("prior proportions do not sum to 1")

    @property
    def width(self) -> int:
        return self.proportions.shape[1]

    @property
    def height_px(self) -> int:
        return self.proportions.shape[0]

    @property
    def k(self) -> int:
        return self.proportions.shape[2]


def normalize_prior_counts(counts: GridStack) -> PriorField:
    """Turn per-category count layers into per-pixel proportions.

    Pixels whose counts sum to zero (or are nodata in every layer) carry no
    prior. A negative count at a non-nodata pixel is an error.
    """
    m = counts.manifest
    if m.kind is not StackKind.PRIOR_COUNTS:
        raise ValueError(f"expected PRIOR_COUNTS stack, got {m.kind.value}")
    layers = np.stack([g.values.astype(np.float64) for g in counts.grids])  # (K, H, W)
    valid = np.stack([g.valid_mask() for g in counts.grids])
    if np.any((layers < 0) & valid):
        raise ValueError("negative count at a non-nodata pixel")
    layers = np.where(valid, layers, 0.0)
    totals = layers.sum(axis=0)
    has_prior = totals > 0
    props = np.zeros_like(layers)
    np.divide(layers, totals, out=props, where=has_prior)
    return PriorField(
        categories=list(m.layer_labels),
        proportions=np.moveaxis(props, 0, -1),
        has_prior=has_prior,
    )


def upsample_nearest(coarse: PriorField, factor: int) -> PriorField:
    """Block-replicate each coarse pixel ``factor`` times along both axes."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    if factor == 1:
        return PriorField(list(coarse.categories), coarse.proportions.copy(),
                          coarse.has_prior.copy())
    props = np.repeat(np.repeat(coarse.proportions, factor, axis=0), factor, axis=1)
    mask = np.repeat(np.repeat(coarse.has_prior, factor, axis=0), factor, axis=1)
    return PriorField(list(coarse.categories), props, mask)


def prior_to_stack(prior: PriorField, nodata: float = DEFAULT_NODATA) -> GridStack:
    """Encode a PriorField as a PRIOR_PROPORTIONS stack (no-prior pixels -> nodata)."""
    h, w, k = prior.proportions.shape
    manifest = StackManifest(StackKind.PRIOR_PROPORTIONS, w, h,
                             list(prior.categories), nodata=nodata)
    grids = []
    for i in range(k):
        vals = np.where(prior.has_prior, prior.proportions[:, :, i], nodata)
        grids.append(RasterGrid(w, h, vals.astype(np.float32), nodata=nodata))
    return GridStack(manifest, grids)


def stack_to_prior(stack: GridStack) -> PriorField:
    if stack.manifest.kind is not StackKind.PRIOR_PROPORTIONS:
        raise ValueError(f"expected PRIOR_PROPORTIONS stack, got {stack.manifest.kind.value}")
    layers = np.stack([g.values.astype(np.float64) for g in stack.grids], axis=-1)
    valid = np.stack([g.valid_mask() for g in stack.grids], axis=-1)
    has_prior = valid.all(axis=-1)
    if np.any(valid.any(axis=-1) & ~has_prior):
        raise GridFormatError("pixel with prior in some layers but nodata in others")
    props = np.where(has_prior[:, :, None], layers, 0.0)
    # float32 storage drifts row sums by ~1e-7; restore exact simplex membership
    sums = props.sum(axis=-1)
    np.divide(props, sums[:, :, None], out=props, where=has_prior[:, :, None])
    return PriorField(list(stack.manifest.layer_labels), props, has_prior)
