"""Rasters to graphs: tiling, node filtering, 8-neighbor adjacency, feature
normalization, balanced splits, and per-epoch subgraph sampling with edge
dropout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid_store import PriorField, RasterGrid
from .numcore import SparseMatrix

DEFAULT_TILE_SIZE = 450
DEFAULT_EDGE_DROPOUT = 0.20
MAX_SUBGRAPH_NODES = 50_000
NODE_FEATURES = 1  # build_graph gives each node one feature: its height

# 8-neighbor offsets; scanning half of them with both edge directions added
# covers the full neighborhood
_HALF_NEIGHBORHOOD = ((1, 0), (0, 1), (1, 1), (-1, 1))


@dataclass(frozen=True)
class Tile:
    """Axis-aligned raster window, clipped to the region extent."""

    origin_x: int
    origin_y: int
    width: int
    height: int
    dominant_category: int | None = None

    def with_dominant(self, cat: int | None) -> "Tile":
        return Tile(self.origin_x, self.origin_y, self.width, self.height, cat)


@dataclass
class GridGraph:
    """Filtered pixel nodes with sparse symmetric 8-neighbor adjacency.

    Node i sits at raster pixel ``node_pixels[i]``, numbered in row-major
    pixel order; column 0 of ``features[i]`` is its raw or normalized height.
    """

    node_pixels: np.ndarray            # (N, 2) int32, columns (x, y)
    adjacency: SparseMatrix            # (N, N) binary, symmetric, zero diagonal
    features: np.ndarray               # (N, F) float64

    @property
    def n_nodes(self) -> int:
        return len(self.node_pixels)

    @property
    def n_undirected_edges(self) -> int:
        return self.adjacency.nnz // 2

    def undirected_edges(self) -> np.ndarray:
        """(m, 2) array of node pairs with u < v."""
        coo = self.adjacency.to_scipy().tocoo()
        keep = coo.row < coo.col
        return np.column_stack([coo.row[keep], coo.col[keep]]).astype(np.int64)


@dataclass
class NormStats:
    mean: float
    std: float


@dataclass
class SplitAssignment:
    train: list[Tile]
    test: list[Tile]
    validation: list[Tile]
    balanced: bool = True  # False when a split's category mix misses the tolerance

    def all_tiles(self) -> list[Tile]:
        return [*self.train, *self.test, *self.validation]


@dataclass
class EpochSample:
    subgraphs: list[GridGraph]


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


def _csr_from_arcs(n: int, rows: np.ndarray, cols: np.ndarray) -> SparseMatrix:
    data = np.ones(len(rows), dtype=np.float64)
    m = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    m.sum_duplicates()
    m.data[:] = 1.0
    return SparseMatrix.from_scipy(m)


def _node_mask(heights: RasterGrid, tiles: list[Tile]) -> np.ndarray:
    """In-tile pixels with a valid height > 0: the pixels that become nodes."""
    in_tiles = tiles_mask(tiles, heights.width, heights.height_px)
    return in_tiles & (heights.values > 0) & heights.valid_mask()


def build_graph(heights: RasterGrid, tiles: list[Tile]) -> GridGraph:
    """Nodes are in-tile pixels with height > 0; edges join 8-neighbor nodes."""
    node_mask = _node_mask(heights, tiles)
    ys, xs = np.nonzero(node_mask)  # row-major node order
    n = len(xs)
    index = np.full(node_mask.shape, -1, dtype=np.int64)
    index[ys, xs] = np.arange(n)

    rows_all, cols_all = [], []
    h, w = node_mask.shape
    for dx, dy in _HALF_NEIGHBORHOOD:
        x2, y2 = xs + dx, ys + dy
        ok = (x2 >= 0) & (x2 < w) & (y2 >= 0) & (y2 < h)
        ok[ok] &= node_mask[y2[ok], x2[ok]]
        u = index[ys[ok], xs[ok]]
        v = index[y2[ok], x2[ok]]
        rows_all.extend((u, v))
        cols_all.extend((v, u))
    if rows_all:
        rows = np.concatenate(rows_all)
        cols = np.concatenate(cols_all)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
    adjacency = _csr_from_arcs(n, rows, cols)

    features = heights.values[ys, xs].astype(np.float64).reshape(n, NODE_FEATURES)
    pixels = np.column_stack([xs, ys]).astype(np.int32)
    return GridGraph(pixels, adjacency, features)


def log_normalize(features: np.ndarray,
                  stats: NormStats | None = None) -> tuple[np.ndarray, NormStats]:
    """x' = (log1p(x) - mean) / std.

    With ``stats=None`` the statistics are fitted on the given (training)
    features and returned for reuse on validation/test/inference features.
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
    pooled = np.concatenate([g.values[_node_mask(g, tiles)].astype(np.float64)
                             for g in grids])
    if not pooled.size:
        raise ValueError("no training nodes at any timestep")
    return log_normalize(pooled)[1]


def normalize_adjacency(graph_or_adj: GridGraph | SparseMatrix) -> SparseMatrix:
    """Symmetric normalization with self-loops: D^(-1/2) (A + I) D^(-1/2)."""
    adj = graph_or_adj.adjacency if isinstance(graph_or_adj, GridGraph) else graph_or_adj
    if not adj.is_symmetric():
        raise ValueError("adjacency must be symmetric")
    a = adj.to_scipy()
    a_tilde = a + sp.identity(adj.rows, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv_sqrt = sp.diags(1.0 / np.sqrt(deg))
    return SparseMatrix.from_scipy(d_inv_sqrt @ a_tilde @ d_inv_sqrt)


def dominant_categories(tiles: list[Tile], prior: PriorField) -> list[Tile]:
    """Label each tile with the argmax of prior proportions summed over its
    pixels that carry a prior (None when no such pixel exists)."""
    out = []
    for t in tiles:
        block = prior.proportions[t.origin_y:t.origin_y + t.height,
                                  t.origin_x:t.origin_x + t.width]
        mask = prior.has_prior[t.origin_y:t.origin_y + t.height,
                               t.origin_x:t.origin_x + t.width]
        if not mask.any():
            out.append(t.with_dominant(None))
            continue
        totals = block[mask].sum(axis=0)
        out.append(t.with_dominant(int(np.argmax(totals))))
    return out


def _largest_remainder(n: int, ratios: tuple[float, float, float]) -> list[int]:
    exact = [r * n for r in ratios]
    base = [int(np.floor(e)) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split_tiles(tiles: list[Tile], prior: PriorField,
                ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
                seed: int = 0, tolerance: float = 0.25) -> SplitAssignment:
    """Stratified random train/test/validation assignment by dominant category.

    Within each stratum the split sizes follow the ratios by largest-remainder
    apportionment (ties to the earlier of train, test, validation), so the
    assignment is deterministic given the seed.
    """
    if not tiles:
        raise ValueError("empty tiling")
    if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be positive and sum to 1")
    tiles = dominant_categories(tiles, prior)
    strata: dict[int, list[Tile]] = {}
    for t in tiles:
        key = -1 if t.dominant_category is None else t.dominant_category
        strata.setdefault(key, []).append(t)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    splits: tuple[list[Tile], list[Tile], list[Tile]] = ([], [], [])
    for key in sorted(strata):
        group = strata[key]
        perm = rng.permutation(len(group))
        shuffled = [group[i] for i in perm]
        n_train, n_test, n_val = _largest_remainder(len(group), ratios)
        splits[0].extend(shuffled[:n_train])
        splits[1].extend(shuffled[n_train:n_train + n_test])
        splits[2].extend(shuffled[n_train + n_test:])

    assignment = SplitAssignment(*splits)
    global_dist = _category_distribution(tiles)
    balanced = True
    for part in splits:
        if not part:
            continue
        dist = _category_distribution(part)
        keys = set(global_dist) | set(dist)
        if any(abs(dist.get(k, 0.0) - global_dist.get(k, 0.0)) > tolerance for k in keys):
            balanced = False
    assignment.balanced = balanced
    return assignment


def _category_distribution(tiles: list[Tile]) -> dict[int, float]:
    counts: dict[int, int] = {}
    for t in tiles:
        key = -1 if t.dominant_category is None else t.dominant_category
        counts[key] = counts.get(key, 0) + 1
    total = len(tiles)
    return {k: v / total for k, v in counts.items()}


def _induced_subgraph(graph: GridGraph, nodes: np.ndarray) -> GridGraph:
    nodes = np.sort(nodes)
    sub_adj = graph.adjacency.to_scipy()[nodes][:, nodes]
    pixels = graph.node_pixels[nodes]
    features = graph.features[nodes]
    return GridGraph(pixels, SparseMatrix.from_scipy(sub_adj), features)


def _drop_edges(graph: GridGraph, fraction: float, rng: np.random.Generator) -> GridGraph:
    edges = graph.undirected_edges()
    m = len(edges)
    n_drop = int(round(fraction * m))  # round-half-to-even for determinism
    if n_drop == 0:
        return graph
    drop_idx = rng.choice(m, size=n_drop, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[drop_idx] = False
    kept = edges[keep]
    rows = np.concatenate([kept[:, 0], kept[:, 1]])
    cols = np.concatenate([kept[:, 1], kept[:, 0]])
    adjacency = _csr_from_arcs(graph.n_nodes, rows, cols)
    return GridGraph(graph.node_pixels, adjacency, graph.features)


def sample_epoch(train_graph: GridGraph, n_subgraphs: int,
                 dropout: float = DEFAULT_EDGE_DROPOUT, seed: int = 0) -> EpochSample:
    """Randomly partition the training nodes into near-equal induced subgraphs
    and drop the configured fraction of each subgraph's undirected edges
    (both directions removed). Deterministic given the seed."""
    n = train_graph.n_nodes
    if n_subgraphs < 1 or n_subgraphs > n:
        raise ValueError(f"n_subgraphs must be in [1, {n}]")
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout must lie in [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    parts = np.array_split(perm, n_subgraphs)
    subgraphs = []
    for part in parts:
        sub = _induced_subgraph(train_graph, part)
        subgraphs.append(_drop_edges(sub, dropout, rng))
    return EpochSample(subgraphs)


def auto_n_subgraphs(n_nodes: int) -> int:
    return max(1, -(-n_nodes // MAX_SUBGRAPH_NODES))
