"""Rasters to graphs: tiling, node filtering, the normalized 8-neighbor
adjacency, feature normalization, balanced splits, and per-epoch subgraph
sampling with edge dropout, each subgraph built from the raster when it is
drawn."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid_store import CategoryField, RasterGrid

if TYPE_CHECKING:  # scipy is imported only where a CSR matrix is built
    import scipy.sparse as sp

DEFAULT_TILE_SIZE = 450
DEFAULT_EDGE_DROPOUT = 0.20
DEFAULT_SPLIT_RATIOS = (0.70, 0.15, 0.15)  # train, test, validation
DEFAULT_SPLIT_TOLERANCE = 0.25
MAX_SUBGRAPH_NODES = 50_000
NODE_FEATURES = 1  # build_graph gives each node one feature: its height

# 8-neighbor (dx, dy) offsets in row-major order, so with row-major node
# numbering each node's neighbor indices come out ascending
_NEIGHBORHOOD = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


@dataclass(frozen=True)
class Tile:
    """Axis-aligned raster window, clipped to the region extent."""

    origin_x: int
    origin_y: int
    width: int
    height: int


@dataclass
class GridGraph:
    """Filtered pixel nodes and their normalized 8-neighbor adjacency Â.

    Node i sits at raster pixel ``node_pixels[i]``, numbered in row-major
    pixel order; column 0 of ``features[i]`` is its raw height (the model
    normalizes it at its input). ``a_hat`` is D^(-1/2) (A + I) D^(-1/2) of
    the binary graph A, as sorted float64 CSR, the bytes that
    ``normalize_adjacency`` gives for A; ``_mask_graph`` writes it directly.
    """

    node_pixels: np.ndarray            # (N, 2) int32, columns (x, y)
    a_hat: sp.csr_matrix               # (N, N) float64, symmetric, A + I's pattern
    features: np.ndarray               # (N, F) float64

    @property
    def n_nodes(self) -> int:
        return len(self.node_pixels)

    @property
    def n_undirected_edges(self) -> int:
        return (self.a_hat.nnz - self.n_nodes) // 2

    @property
    def adjacency(self):
        """The binary graph A, derived from Â by dropping each row's one
        self-loop; ``normalize_adjacency`` of it gives Â back, byte for byte."""
        import scipy.sparse as sp
        a_hat = self.a_hat
        rows = np.repeat(np.arange(self.n_nodes, dtype=a_hat.indices.dtype),
                         np.diff(a_hat.indptr))
        off_diagonal = a_hat.indices != rows
        indptr = a_hat.indptr - np.arange(self.n_nodes + 1, dtype=a_hat.indptr.dtype)
        return sp.csr_matrix((np.ones(self.n_undirected_edges * 2),
                              a_hat.indices[off_diagonal], indptr), shape=a_hat.shape)


@dataclass
class NormStats:
    """``log_normalize`` statistics: a finite mean and a finite, positive std."""

    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std) and self.std > 0):
            raise ValueError(f"norm stats need a finite mean and a finite, positive std, "
                             f"got mean {self.mean!r} and std {self.std!r}")


@dataclass
class SplitAssignment:
    train: list[Tile]
    test: list[Tile]
    validation: list[Tile]
    balanced: bool = True  # False when a split's category mix misses the tolerance


def tile_region(width: int, height_px: int, tile_size: int = DEFAULT_TILE_SIZE) -> list[Tile]:
    """Cover the extent with non-overlapping tiles; boundary tiles are clipped."""
    if width <= 0 or height_px <= 0:
        raise ValueError("zero-sized extent")
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    tiles = []
    for oy in range(0, height_px, tile_size):
        for ox in range(0, width, tile_size):
            tiles.append(Tile(ox, oy,
                              min(tile_size, width - ox),
                              min(tile_size, height_px - oy)))
    return tiles


def tiles_mask(tiles: list[Tile], width: int, height_px: int) -> np.ndarray:
    mask = np.zeros((height_px, width), dtype=bool)
    for t in tiles:
        if t.origin_x < 0 or t.origin_y < 0 or \
           t.origin_x + t.width > width or t.origin_y + t.height > height_px:
            raise ValueError(f"tile {t} exceeds raster extent {width}x{height_px}")
        mask[t.origin_y:t.origin_y + t.height, t.origin_x:t.origin_x + t.width] = True
    return mask


def node_mask(heights: RasterGrid, tiles: list[Tile]) -> np.ndarray:
    """In-tile pixels with a valid height > 0: the pixels that become nodes."""
    in_tiles = tiles_mask(tiles, heights.width, heights.height_px)
    return in_tiles & (heights.values > 0) & heights.valid_mask()


def build_graph(heights: RasterGrid, tiles: list[Tile]) -> GridGraph:
    """Nodes are in-tile pixels with height > 0; edges join 8-neighbor nodes."""
    return _mask_graph(heights, node_mask(heights, tiles))


def _mask_graph(heights: RasterGrid, mask: np.ndarray, dropout: float = 0.0,
                rng: np.random.Generator | None = None) -> GridGraph:
    """The 8-neighbor graph on the pixels of ``mask``, nodes in row-major
    order, with ``round(dropout * m)`` of its m undirected edges dropped,
    carried as its normalized adjacency Â.

    Row i of an int32 table lists node i's neighbors at its eight
    ``_NEIGHBORHOOD`` offsets, found in an index raster padded with -1, with
    i itself between slots 3 and 4: slots 0-3 point to earlier nodes and the
    last four to later ones, so a row read in slot order is the sorted CSR
    row of A + I. The last four slots' arcs read row-major are the upper
    triangle, and slot 8 - s is the opposite of slot s. The one rng draw is
    ``rng.choice(m, n_drop, replace=False)`` over those upper arcs, and each
    drawn edge is removed with both its arcs; there is no draw when nothing
    is dropped. With d = (count present)^(-1/2) in float64, each value is
    written as d[i]·d[j], which equals ``normalize_adjacency``'s
    (d[i]·1.0)·d[j] bit for bit."""
    import scipy.sparse as sp
    ys, xs = np.nonzero(mask)  # row-major node order
    n = len(xs)
    if n * (len(_NEIGHBORHOOD) + 1) > np.iinfo(np.int32).max:
        raise ValueError(f"{n} nodes overflow the int32 indices of A_hat")
    h, w = mask.shape
    index = np.full((h + 2, w + 2), -1, dtype=np.int32)
    index[ys + 1, xs + 1] = np.arange(n)
    nbr = np.empty((n, len(_NEIGHBORHOOD) + 1), dtype=np.int32)
    nbr[:, 4] = np.arange(n)
    for j, (dx, dy) in enumerate(_NEIGHBORHOOD):
        nbr[:, j + (j >= 4)] = index[ys + 1 + dy, xs + 1 + dx]
    del index
    present = nbr >= 0
    n_drop = int(round(dropout * np.count_nonzero(present[:, 5:])))  # half to even
    if n_drop:
        rows, slots = np.nonzero(present[:, 5:])  # the upper arcs, row-major
        drop = rng.choice(len(rows), size=n_drop, replace=False)
        rows, slots = rows[drop], slots[drop] + 5
        present[rows, slots] = False
        present[nbr[rows, slots], 8 - slots] = False
    counts = present.sum(axis=1, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = nbr[present]
    del nbr, present
    d = 1.0 / np.sqrt(counts.astype(np.float64))
    data = np.repeat(d, counts)
    data *= d[indices]
    a_hat = sp.csr_matrix((data, indices, indptr), shape=(n, n))

    features = heights.values[ys, xs].astype(np.float64).reshape(n, NODE_FEATURES)
    pixels = np.column_stack([xs, ys]).astype(np.int32)
    return GridGraph(pixels, a_hat, features)


def log_normalize(features: np.ndarray,
                  stats: NormStats | None = None) -> tuple[np.ndarray, NormStats]:
    """x' = (log1p(x) - mean) / std.

    With ``stats=None`` the statistics are fitted on the given (training)
    features and returned for reuse on inference features.
    A std below 1e-12 is replaced by 1 so constant inputs map to zeros.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.size and x.min() <= 0:
        raise ValueError("log_normalize requires strictly positive features")
    logged = np.log1p(x)
    if stats is None:
        mean = float(logged.mean()) if logged.size else 0.0
        std = float(logged.std()) if logged.size else 1.0
        if std < 1e-12:
            std = 1.0
        stats = NormStats(mean, std)
    return (logged - stats.mean) / stats.std, stats


def fit_norm_stats(grids: list[RasterGrid], tiles: list[Tile]) -> NormStats:
    """``log_normalize`` statistics over the node heights inside ``tiles``,
    pooled over every grid in order: the same pool as the concatenated
    ``build_graph(grid, tiles).features``, without building the graphs."""
    pooled = np.concatenate([g.values[node_mask(g, tiles)].astype(np.float64)
                             for g in grids])
    if not pooled.size:
        raise ValueError("no training nodes at any timestep")
    return log_normalize(pooled)[1]


def normalize_adjacency(graph_or_adj: GridGraph | sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric normalization with self-loops: D^(-1/2) (A + I) D^(-1/2).

    With d = deg^(-1/2), each stored value of A + I is scaled in place to
    ``d[i] * a_ij * d[j]``, evaluated left to right. This equals the sparse
    product (D (A + I)) D value for value: a product with a diagonal factor
    has one term per entry, added to zero, so it computes exactly
    ``(d[i] * a_ij) * d[j]`` too.

    The result has sorted column indices, which fixes the summation order of
    every product with it. No pipeline stage calls this: ``_mask_graph``
    writes the same bytes directly. It is the reference the builder is
    tested against, and acceptance 4 compares it with a dense oracle."""
    import scipy.sparse as sp
    adj = graph_or_adj.adjacency if isinstance(graph_or_adj, GridGraph) else graph_or_adj
    if adj.shape[0] != adj.shape[1] or (adj != adj.T).nnz:
        raise ValueError("adjacency must be symmetric")
    a_hat = adj + sp.identity(adj.shape[0], format="csr")
    a_hat.sort_indices()
    d_inv_sqrt = 1.0 / np.sqrt(np.asarray(a_hat.sum(axis=1)).ravel())
    rows = np.repeat(np.arange(a_hat.shape[0]), np.diff(a_hat.indptr))
    a_hat.data = d_inv_sqrt[rows] * a_hat.data * d_inv_sqrt[a_hat.indices]
    return a_hat


def dominant_categories(tiles: list[Tile], prior: CategoryField) -> list[int | None]:
    """Each tile's dominant category: the argmax of prior proportions summed
    over its pixels that carry a prior (None when no such pixel exists)."""
    out = []
    for t in tiles:
        block = prior.probs[t.origin_y:t.origin_y + t.height,
                            t.origin_x:t.origin_x + t.width]
        mask = prior.valid[t.origin_y:t.origin_y + t.height,
                           t.origin_x:t.origin_x + t.width]
        out.append(int(np.argmax(block[mask].sum(axis=0))) if mask.any() else None)
    return out


def _largest_remainder(n: int, ratios: tuple[float, float, float]) -> list[int]:
    exact = [r * n for r in ratios]
    base = [int(np.floor(e)) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split_tiles(tiles: list[Tile], dominants: list[int | None],
                ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
                seed: int = 0, tolerance: float = DEFAULT_SPLIT_TOLERANCE) -> SplitAssignment:
    """Stratified random train/test/validation assignment by the tiles' ``dominant_categories``.

    Within each stratum the split sizes follow the ratios by largest-remainder
    apportionment (ties to the earlier of train, test, validation), so the
    assignment is deterministic given the seed. It is balanced when each
    non-empty split's share of every stratum is within ``tolerance`` of the
    stratum's share of all tiles.
    """
    if not tiles:
        raise ValueError("empty tiling")
    if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be positive and sum to 1")
    strata: dict[int, list[Tile]] = {}
    for t, dominant in zip(tiles, dominants, strict=True):
        strata.setdefault(-1 if dominant is None else dominant, []).append(t)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    splits: tuple[list[Tile], list[Tile], list[Tile]] = ([], [], [])
    sizes: dict[int, list[int]] = {}  # each stratum's tile count per split
    for key in sorted(strata):
        group = strata[key]
        shuffled = [group[i] for i in rng.permutation(len(group))]
        sizes[key] = _largest_remainder(len(group), ratios)
        n_train, n_test, _ = sizes[key]
        splits[0].extend(shuffled[:n_train])
        splits[1].extend(shuffled[n_train:n_train + n_test])
        splits[2].extend(shuffled[n_train + n_test:])

    balanced = all(abs(counts[i] / len(part) - len(strata[key]) / len(tiles)) <= tolerance
                   for i, part in enumerate(splits) if part
                   for key, counts in sizes.items())
    return SplitAssignment(*splits, balanced=balanced)


def epoch_subgraphs(heights: RasterGrid, tiles: list[Tile], n_subgraphs: int,
                    dropout: float, seed: int) -> Iterator[GridGraph]:
    """One epoch's training subgraphs: the nodes of ``build_graph(heights,
    tiles)`` split at random into ``n_subgraphs`` near-equal parts, each part's
    induced subgraph with ``round(dropout * m)`` of its m undirected edges
    dropped. Deterministic given the seed: one ``permutation(n)`` over the
    row-major nodes, split by ``np.array_split``, then per part in order
    ``_mask_graph``'s one dropout ``choice``. The permutation is drawn, and bad
    arguments raise, at the call; until the last part the iterator keeps only
    a raster of part ids and the rng. Each part is built when it is drawn, as
    the 8-neighbor graph on its pixels, with raw heights as features."""
    pixels = np.flatnonzero(node_mask(heights, tiles))  # row-major nodes
    n = len(pixels)
    if n_subgraphs < 1 or n_subgraphs > n:
        raise ValueError(f"n_subgraphs must be in [1, {n}]")
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout must lie in [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    part_ids = np.zeros((heights.height_px, heights.width), np.min_scalar_type(n_subgraphs))
    for i, part in enumerate(np.array_split(rng.permutation(n), n_subgraphs), 1):
        part_ids.flat[pixels[part]] = i
    return (_mask_graph(heights, part_ids == i, dropout, rng)
            for i in range(1, n_subgraphs + 1))


def auto_n_subgraphs(n_nodes: int) -> int:
    return max(1, -(-n_nodes // MAX_SUBGRAPH_NODES))
