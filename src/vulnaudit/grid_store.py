"""On-disk raster stacks and the per-pixel category fields they carry.

A grid stack is a directory holding ``manifest.json`` plus one ``<label>.f32``
file per layer: width * height_px little-endian IEEE-754 32-bit floats,
row-major, top row first. Values are kept as float32 in memory so that
write -> read round-trips are bit-exact.

A prior and a posterior are both a ``CategoryField``: one categorical
distribution per pixel. ``stack_to_field`` decodes a PRIOR_PROPORTIONS or
POSTERIOR stack, one category per layer, as ``field_to_stack`` (or infer,
core by core) encodes it: a pixel is nodata in every layer or in none.
"""

from __future__ import annotations

import math
import os
import shutil
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

from . import schema

DEFAULT_NODATA = -1.0
SIMPLEX_TOL = 1e-9
NONE_LABEL = "NONE"  # the no-building state, which no category may name
# the pixels of one row band: per-pixel kernels hold their temporaries for
# one band at a time, so their memory does not grow with the raster
BAND_PIXELS = 1 << 15


def row_bands(height_px: int, width: int) -> Iterator[slice]:
    """Consecutive row slices that cover ``height_px`` rows of ``width``
    pixels, each at most BAND_PIXELS pixels (but at least one row)."""
    step = max(1, BAND_PIXELS // max(width, 1))
    for top in range(0, height_px, step):
        yield slice(top, min(top + step, height_px))


def usable_label(label: str) -> bool:
    """Whether ``label`` can name a file and a CSV or DOT field: non-empty,
    with no ``/``, ``\\``, ``..``, ``,``, ``"`` or control character."""
    return (bool(label) and not any(p in label for p in ("/", "\\", "..", ",", '"'))
            and not any(ord(c) < 0x20 or 0x7F <= ord(c) <= 0x9F for c in label))  # Cc


class GridFormatError(schema.ConfigError):
    """Malformed stack directory, manifest, or layer payload."""


class StackKind(str, Enum):
    HEIGHT_SERIES = "HEIGHT_SERIES"
    PRIOR_COUNTS = "PRIOR_COUNTS"
    PRIOR_PROPORTIONS = "PRIOR_PROPORTIONS"
    POSTERIOR = "POSTERIOR"
    AD_MAP = "AD_MAP"
    CHANGE_MAP = "CHANGE_MAP"


# kinds whose layers hold one CategoryField; their non-nodata values lie in [0, 1]
_CATEGORY_KINDS = (StackKind.PRIOR_PROPORTIONS, StackKind.POSTERIOR)


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
        array = np.ascontiguousarray(self.values, dtype=np.float32)
        if array.size != self.width * self.height_px:
            raise GridFormatError(
                f"values length {array.size} != {self.width}x{self.height_px}")
        self.values = array.reshape(self.height_px, self.width)
        if np.any(~np.isfinite(self.values) & self.valid_mask()):
            raise GridFormatError("non-finite value outside nodata sentinel")
        # a checked layer stays as checked: where no copy was made, the
        # caller's array and each array it views are locked with it
        self.values.flags.writeable = False
        while isinstance(array, np.ndarray):
            array.flags.writeable = False
            array = array.base

    def valid_mask(self) -> np.ndarray:
        return self.values != np.float32(self.nodata)


@dataclass
class StackManifest:
    """A stack's ``manifest.json``; the labels are stored under ``layers``."""
    kind: StackKind
    width: int
    height_px: int
    layer_labels: list[str] = field(metadata={"key": "layers"})
    nodata: float = DEFAULT_NODATA
    crs_note: str = ""

    def __post_init__(self):
        self.kind = StackKind(self.kind)
        if self.width <= 0 or self.height_px <= 0:
            raise GridFormatError("manifest dimensions must be positive")
        if not self.layer_labels:
            raise GridFormatError("a stack needs at least one layer")
        if len(set(self.layer_labels)) != len(self.layer_labels):
            raise GridFormatError("duplicate labels in manifest")
        for label in self.layer_labels:
            if not usable_label(label):
                raise GridFormatError(f"unusable layer label {label!r}")


@dataclass
class GridStack:
    manifest: StackManifest
    grids: list[RasterGrid]

    def __post_init__(self):
        validate_stack(self)


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
        if m.kind in _CATEGORY_KINDS:
            vals = grid.values[grid.valid_mask()]
            if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
                raise GridFormatError(f"range violation: {m.kind.value} value outside [0,1]")


def read_manifest(path: str | Path, kind: StackKind | None = None) -> StackManifest:
    """Load and check only the manifest of the stack directory ``path``,
    strictly (see ``schema.from_doc``). A missing or malformed manifest is a
    GridFormatError naming the file; given a ``kind``, a manifest of another
    kind is one naming ``path``."""
    path = Path(path)
    manifest_file = path / "manifest.json"
    if not manifest_file.is_file():
        raise GridFormatError(f"missing manifest: {manifest_file}")
    try:
        m = schema.load(StackManifest, manifest_file)
    except schema.ConfigError as exc:
        raise GridFormatError(str(exc)) from exc
    if kind is not None and m.kind is not kind:
        raise GridFormatError(f"{path}: expected {kind.value} stack, got {m.kind.value}")
    return m


def read_grid_stack(path: str | Path, kind: StackKind | None = None) -> GridStack:
    """Load a stack directory; values are read bit-exactly as little-endian f32.
    The manifest is checked first, its kind too when ``kind`` is given (see
    ``read_manifest``), so a stack of another kind opens no layer file. A bad
    layer value is a GridFormatError naming its layer file, and a stack that
    breaks ``validate_stack`` one naming ``path``."""
    path = Path(path)
    m = read_manifest(path, kind)
    grids = []
    for label in m.layer_labels:
        layer = path / f"{label}.f32"
        values = read_array(layer, (m.height_px, m.width))
        try:
            grids.append(RasterGrid(m.width, m.height_px, values, nodata=m.nodata))
        except GridFormatError as exc:
            raise GridFormatError(f"{layer}: {exc}") from exc
    try:
        return GridStack(m, grids)
    except GridFormatError as exc:
        raise GridFormatError(f"{path}: {exc}") from exc


def write_grid_stack(stack: GridStack, path: str | Path) -> None:
    """Write manifest + layer files through ``write_arrays``; re-reading
    yields an equal stack. ``validate_stack`` is not re-run: ``GridStack``
    ran it when the stack was built, and each layer has been read-only since."""
    m = stack.manifest
    write_arrays(path, m, {label: grid.values
                           for label, grid in zip(m.layer_labels, stack.grids)})


def write_arrays(path: str | Path, manifest, arrays: dict[str, np.ndarray]) -> None:
    """Write ``manifest`` (a dataclass) as ``manifest.json`` and each array as
    ``<name>.f32``, row-major little-endian f32, into a staged directory that
    then takes the place of ``path`` (see ``staged_dir``)."""
    with staged_dir(path) as tmp:
        (tmp / "manifest.json").write_text(schema.dumps(manifest), encoding="utf-8")
        for name, values in arrays.items():
            (tmp / f"{name}.f32").write_bytes(
                np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_array(path: str | Path, shape: tuple[int, ...]) -> np.ndarray:
    """The float32 array of ``shape`` in the ``.f32`` file ``path``, read
    bit-exactly. A missing file, or one that does not hold exactly 4 bytes
    per value, is a GridFormatError naming ``path``."""
    path = Path(path)
    if not path.is_file():
        raise GridFormatError(f"missing layer: {path}")
    size, expected = path.stat().st_size, 4 * math.prod(shape)
    if size != expected:
        raise GridFormatError(f"{path}: {size} bytes, expected {expected}, 4 per value")
    return np.fromfile(path, dtype="<f4").reshape(shape)


@contextmanager
def staged_dir(path: str | Path) -> Iterator[Path]:
    """Yield a fresh sibling temporary directory to fill; when the block
    completes, it takes the place of ``path``. If the block raises, ``path``
    keeps its previous contents (or stays absent) and the temporary directory
    is removed, so readers never see new files beside old ones."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _sibling(path, "tmp")
    tmp.mkdir()
    try:
        yield tmp
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


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) into a sibling temporary file that then
    replaces ``path``, so a failed write leaves the previous file (or none)
    and no temporary file."""
    path = Path(path)
    tmp = _sibling(path, "tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
class CategoryField:
    """One categorical distribution over ``categories`` per pixel, for a
    prior and for a posterior alike.

    ``probs`` is (H, W, K) and ``valid`` (H, W). Each valid pixel's row is
    finite, non-negative and sums to 1 within SIMPLEX_TOL; rows at invalid
    pixels are not checked and carry no meaning.
    """

    categories: list[str]
    probs: np.ndarray  # (H, W, K) float64
    valid: np.ndarray  # (H, W) bool
    timestep: str = ""

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        h, w, k = self.probs.shape
        if k != len(self.categories):
            raise ValueError("probs last axis != number of categories")
        if self.valid.shape != (h, w):
            raise ValueError("valid mask shape mismatch")
        # checked one row band at a time; a rule broken in any band raises
        # the error the whole field would, non-finite before negative
        # before off-simplex
        negative = off_simplex = False
        for band in row_bands(h, w):
            valid = self.valid[band]
            if not valid.any():
                continue
            rows = self.probs[band][valid]
            if not np.all(np.isfinite(rows)):
                raise ValueError("non-finite category probability")
            negative |= rows.min() < 0
            off_simplex |= np.max(np.abs(rows.sum(axis=1) - 1.0)) > SIMPLEX_TOL
        if negative:
            raise ValueError("negative category probability")
        if off_simplex:
            raise ValueError("category probabilities do not sum to 1")

    @property
    def k(self) -> int:
        return self.probs.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape[:2]


def normalize_prior_counts(counts: GridStack) -> CategoryField:
    """Turn per-category count layers into per-pixel proportions.

    Pixels whose counts sum to zero (or are nodata in every layer) carry no
    prior. A negative count at a non-nodata pixel, or a category labelled
    NONE_LABEL, is an error.
    """
    m = counts.manifest
    if m.kind is not StackKind.PRIOR_COUNTS:
        raise ValueError(f"expected PRIOR_COUNTS stack, got {m.kind.value}")
    if NONE_LABEL in m.layer_labels:
        raise ValueError(f"category label {NONE_LABEL!r} names the no-building state")
    layers = np.stack([g.values.astype(np.float64) for g in counts.grids])  # (K, H, W)
    valid = np.stack([g.valid_mask() for g in counts.grids])
    if np.any((layers < 0) & valid):
        raise ValueError("negative count at a non-nodata pixel")
    layers = np.where(valid, layers, 0.0)
    totals = layers.sum(axis=0)
    has_prior = totals > 0
    props = np.zeros_like(layers)
    np.divide(layers, totals, out=props, where=has_prior)
    return CategoryField(list(m.layer_labels), np.moveaxis(props, 0, -1), has_prior)


def upsample_nearest(coarse: CategoryField, factor: int) -> CategoryField:
    """Block-replicate each coarse pixel ``factor`` times along both axes."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    return replace(coarse,
                   probs=np.repeat(np.repeat(coarse.probs, factor, axis=0), factor, axis=1),
                   valid=np.repeat(np.repeat(coarse.valid, factor, axis=0), factor, axis=1))


def field_to_stack(field: CategoryField, kind: StackKind) -> GridStack:
    """Encode a field as a ``kind`` stack, one float32 layer per category;
    invalid pixels are ``DEFAULT_NODATA`` in every layer."""
    h, w = field.shape
    manifest = StackManifest(kind, w, h, list(field.categories))
    grids = [RasterGrid(w, h, np.where(field.valid, field.probs[:, :, i],
                                       DEFAULT_NODATA).astype(np.float32))
             for i in range(field.k)]
    return GridStack(manifest, grids)


def stack_to_field(stack: GridStack, kind: StackKind, timestep: str = "") -> CategoryField:
    """Decode a ``kind`` stack written by ``field_to_stack`` or ``infer_posterior``.

    Each pixel must be nodata in every layer (an invalid pixel, whose row
    holds the nodata value) or in none (a valid pixel, which must have
    positive mass). Valid rows are renormalised in place, since float32
    storage drifts their sums by about 1e-7. A stack of another kind, a
    pixel that is nodata in some layers only, or a valid pixel with zero
    mass raises GridFormatError.
    """
    m = stack.manifest
    if m.kind is not kind:
        raise GridFormatError(f"expected {kind.value} stack, got {m.kind.value}")
    probs = np.empty((m.height_px, m.width, len(stack.grids)), dtype=np.float64)
    valid = np.empty((m.height_px, m.width), dtype=bool)
    nodata = np.float32(m.nodata)
    zero_mass = False
    # decoded, checked and renormalised one row band at a time; a pixel that
    # is nodata in some layers only is reported before a zero-mass pixel in
    # any band, as a whole-raster check would
    for band in row_bands(m.height_px, m.width):
        rows = probs[band]
        for i, grid in enumerate(stack.grids):
            rows[:, :, i] = grid.values[band]
        has_data = rows != nodata  # float32 -> float64 is exact, so this is the f32 test
        valid[band] = band_valid = has_data.all(axis=-1)
        if np.any(has_data.any(axis=-1) & ~band_valid):
            raise GridFormatError("pixel that is nodata in some layers but not in others")
        sums = rows.sum(axis=-1)
        zero_mass = zero_mass or bool(np.any(band_valid & (sums <= 0)))
        if not zero_mass:
            np.divide(rows, sums[:, :, None], out=rows, where=band_valid[:, :, None])
    if zero_mass:
        raise GridFormatError("pixel with data but zero probability mass")
    return CategoryField(list(m.layer_labels), probs, valid, timestep)
