"""Independent reference implementations used to freeze expected test values.

Everything here deliberately recomputes results by a different route than the
library (dense formulas, double loops, finite differences) so the two sides
can disagree.
"""

import math

import numpy as np
import scipy.sparse as sp

from vulnaudit import graph_build as gb
from vulnaudit import grid_store as gs
from vulnaudit.numcore import (GRAD_BLOCK_ROWS, Var, _check_finite, add_const, scale,
                               softmax_rows)


def central_difference(loss_fn, arrays: dict[str, np.ndarray],
                       h: float = 1e-4) -> dict[str, np.ndarray]:
    """Numerical gradient of a scalar function of the given (mutated in place)
    arrays."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray]) -> float:
    """max over entries of |g - fd| / max(1, |g|)."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        rel = np.abs(a - n) / np.maximum(1.0, np.abs(a))
        if rel.size:
            worst = max(worst, float(rel.max()))
    return worst


def brute_force_grid_edges(pixels: set[tuple[int, int]]) -> set[frozenset]:
    """All unordered 8-neighbor pairs within a pixel set."""
    edges = set()
    for (x, y) in pixels:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                if (x + dx, y + dy) in pixels:
                    edges.add(frozenset([(x, y), (x + dx, y + dy)]))
    return edges


def dense_normalized_adjacency(a: np.ndarray) -> np.ndarray:
    a_tilde = a + np.eye(len(a))
    d = a_tilde.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(d))
    return d_inv_sqrt @ a_tilde @ d_inv_sqrt


def aitchison_double_loop(p, q, eps: float) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p = np.where(p == 0.0, eps, p)
    q = np.where(q == 0.0, eps, q)
    p = p / p.sum()
    q = q / q.sum()
    k = len(p)
    total = 0.0
    for i in range(k):
        for j in range(k):
            total += (math.log(p[i] / p[j]) - math.log(q[i] / q[j])) ** 2
    return math.sqrt(total / (2.0 * k))


def softmax_reference(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max())
    return e / e.sum()


def coo_grid_adjacency(mask: np.ndarray):
    """8-neighbor adjacency of the True pixels of ``mask`` (nodes numbered in
    row-major pixel order), built as ``graph_build.build_graph`` once did:
    each arc from a half-neighbourhood scan, both directions added, then
    converted from COO to CSR by scipy."""
    ys, xs = np.nonzero(mask)
    n = len(xs)
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[ys, xs] = np.arange(n)
    rows_all, cols_all = [], []
    h, w = mask.shape
    for dx, dy in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        x2, y2 = xs + dx, ys + dy
        ok = (x2 >= 0) & (x2 < w) & (y2 >= 0) & (y2 < h)
        ok[ok] &= mask[y2[ok], x2[ok]]
        u = index[ys[ok], xs[ok]]
        v = index[y2[ok], x2[ok]]
        rows_all.extend((u, v))
        cols_all.extend((v, u))
    rows, cols = np.concatenate(rows_all), np.concatenate(cols_all)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def graph_of_binary(node_pixels, adjacency, features):
    """A ``GridGraph`` from a binary adjacency, its Â by
    ``graph_build.normalize_adjacency``."""
    return gb.GridGraph(node_pixels, gb.normalize_adjacency(adjacency), features)


def coo_grid_nodes(heights, mask: np.ndarray):
    """Node pixels (x, y) and raw-height features of the True pixels of
    ``mask``, in row-major order."""
    ys, xs = np.nonzero(mask)
    return (np.column_stack([xs, ys]).astype(np.int32),
            heights.values[ys, xs].astype(np.float64).reshape(-1, 1))


def drop_edges_by_mirroring(adjacency, fraction: float, rng: np.random.Generator):
    """Edge dropout as ``graph_build`` once applied it to a built binary
    adjacency: cut the CSR upper triangle, zero ``rng.choice(m, round(fraction
    * m), replace=False)`` of its m arcs, prune them, and add the transpose
    back. No draw when nothing is dropped."""
    upper = sp.triu(adjacency, k=1, format="csr")
    n_drop = int(round(fraction * upper.nnz))
    if n_drop == 0:
        return adjacency
    upper.data[rng.choice(upper.nnz, size=n_drop, replace=False)] = 0.0
    upper.eliminate_zeros()
    return upper + upper.T


def sample_epoch_from_whole_graph(heights, tiles, n_subgraphs: int, dropout: float,
                                  seed: int) -> list:
    """``graph_build.epoch_subgraphs`` as it was when it sampled a built
    whole-region graph and dropped edges from each built part: the same rng
    stream (one permutation, then one dropout draw per part), but each part
    cut from the whole ``coo_grid_adjacency`` by fancy indexing, its edges
    dropped by ``drop_edges_by_mirroring``, every part held in one list, and
    each part's Â made by ``normalize_adjacency``."""
    mask = gb.node_mask(heights, tiles)
    adjacency = coo_grid_adjacency(mask)
    pixels, features = coo_grid_nodes(heights, mask)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = []
    for part in np.array_split(rng.permutation(len(pixels)), n_subgraphs):
        nodes = np.sort(part)
        parts.append((pixels, adjacency, features) if n_subgraphs == 1 else
                     (pixels[nodes], adjacency[nodes][:, nodes], features[nodes]))
    return [graph_of_binary(p, drop_edges_by_mirroring(a, dropout, rng), f)
            for p, a, f in parts]


def taped_sum(tape, x):
    """The sum of every entry of ``x`` as a taped scalar, whose backward
    hands each entry the incoming gradient: the scalar loss the numcore
    tests differentiate."""
    out = Var(x.value.sum())

    def bwd(dout):
        return ((x, np.full_like(x.value, float(dout))),)

    tape.record(out, bwd)
    return out


def gcn_layer_saving_activations(tape, a, h, w, b, activate: bool):
    """``numcore.gcn_layer`` as it was when its tape entry kept ``A @ H`` and
    a separate bool ReLU mask beside its output."""
    hv, wv, bv = h.value, w.value, b.value
    ah = a @ hv
    pre = ah @ wv
    pre += bv
    _check_finite("gcn_layer", pre)
    mask = None
    if activate:
        mask = pre > 0.0
        np.maximum(pre, 0.0, out=pre)
    out = Var(pre)

    def bwd(dout):
        dpre = dout if mask is None else dout * mask
        return ((h, a.T @ (dpre @ wv.T)), (w, ah.T @ dpre), (b, dpre.sum(axis=0)))

    tape.record(out, bwd)
    return out


def weight_grad_by_blocks(x, d, rows: int):
    """x.T @ d summed as ``numcore._weight_grad`` sums it, block by block in
    a loop: the rows past the last whole block of ``rows`` rows, then each
    block's product added in order."""
    n = len(x) - len(x) % rows
    blocks = [x[i:i + rows].T @ d[i:i + rows] for i in range(0, n, rows)]
    grad = x[n:].T @ d[n:]
    if blocks:
        grad += np.stack(blocks).sum(axis=0)
    return grad


def weight_grad_one_sum(x, d, rows: int):
    """x.T @ d summed as ``numcore._weight_grad`` summed it before it made
    its block products in chunks: the rows past the last whole block of
    ``rows`` rows, plus every block's product in one array, summed along
    axis 0."""
    n = len(x) - len(x) % rows
    grad = x[n:].T @ d[n:]
    if n:
        grad += np.matmul(x[:n].reshape(-1, rows, x.shape[1]).transpose(0, 2, 1),
                          d[:n].reshape(-1, rows, d.shape[1])).sum(axis=0)
    return grad


def relu_mask_whole(d, z):
    """``d *= z > 0`` with one bool mask over every row, as ``numcore``
    masked an adjoint before it did so a block of rows at a time."""
    d *= z > 0.0
    return d


def all_finite_whole(value) -> bool:
    """The finite check as one ``isfinite`` over the whole array."""
    return bool(np.all(np.isfinite(value)))


def softmax_row_reductions(logits):
    """The row softmax as ``numcore.softmax_values`` made it with numpy's
    row reductions and three arrays of the logits' size."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad_row_reductions(p, dout):
    """The softmax's logits gradient with numpy's row sum."""
    return p * (dout - (dout * p).sum(axis=-1, keepdims=True))


def gumbel_softmax_chain(tape, logits, noise, s):
    """The relaxed draw softmax((logits + noise) * s) as three tape
    entries, as the model recorded it before ``numcore.gumbel_softmax``."""
    return softmax_rows(tape, scale(tape, add_const(tape, logits, noise), s))


def masked_mean_eager(tape, posterior, mask, terms):
    """The model's masked-mean loss as it was when the forward computed the
    gradient: ``terms(mask)`` gives the masked sum and the gradient at every
    entry, both divided by m, the gradient zeroed off the mask and held on
    the tape."""
    mask = np.asarray(mask, dtype=bool)
    m = int(mask.sum())
    if m == 0:
        out, grad = Var(np.zeros((), posterior.value.dtype)), np.zeros_like(posterior.value)
    else:
        total, grad = terms(mask)
        out = Var(total / m)
        grad = grad / m
        grad[~mask] = 0.0
    tape.record(out, lambda dout: ((posterior, grad * dout),))
    return out


def loss_kl_eager(tape, posterior, prior_p, mask, clamp):
    """``model.loss_kl`` with its gradient computed in the forward."""
    p = posterior.value
    p0 = np.asarray(prior_p, dtype=p.dtype)

    def terms(mask):
        log_ratio = np.log(np.maximum(p, clamp)) - np.log(np.maximum(p0, clamp))
        return (p[mask] * log_ratio[mask]).sum(), log_ratio + (p >= clamp)

    return masked_mean_eager(tape, posterior, mask, terms)


def loss_ce_eager(tape, posterior, prior_p, mask, clamp):
    """``model.loss_ce`` with its gradient computed in the forward."""
    p = posterior.value
    p0 = np.asarray(prior_p, dtype=p.dtype)

    def terms(mask):
        pc = np.maximum(p, clamp)
        return -(p0[mask] * np.log(pc[mask])).sum(), -(p0 * (p >= clamp)) / pc

    return masked_mean_eager(tape, posterior, mask, terms)


def gcn_layer_width_ordered_saving_activations(tape, a, h, w, b, activate: bool):
    """``numcore.gcn_layer``'s products in its order (A at the narrower
    width), with the tape entry keeping a separate bool ReLU mask and, for a
    widening W, ``A @ H``; every gradient is a fresh array, and each weight
    gradient is ``weight_grad_by_blocks``."""
    hv, wv, bv = h.value, w.value, b.value
    narrows = wv.shape[1] <= wv.shape[0]
    ah = None if narrows else a @ hv
    pre = a @ (hv @ wv) if narrows else ah @ wv
    pre += bv
    _check_finite("gcn_layer", pre)
    mask = None
    if activate:
        mask = pre > 0.0
        np.maximum(pre, 0.0, out=pre)
    out = Var(pre)

    def bwd(dout):
        dpre = dout if mask is None else dout * mask
        if narrows:
            s = a.T @ dpre
            grad_h, grad_w = s @ wv.T, weight_grad_by_blocks(hv, s, GRAD_BLOCK_ROWS)
        else:
            grad_h = a.T @ (dpre @ wv.T)
            grad_w = weight_grad_by_blocks(ah, dpre, GRAD_BLOCK_ROWS)
        return ((h, grad_h), (w, grad_w), (b, dpre.sum(axis=0)))

    tape.record(out, bwd)
    return out


def gcn_block_of(layer):
    """``numcore.gcn_block`` as three taped calls of ``layer``, one tape entry
    each."""
    def block(tape, a, h, layers):
        (w1, b1), (w2, b2), (w3, b3) = layers
        h = layer(tape, a, h, w1, b1, True)
        h = layer(tape, a, h, w2, b2, True)
        return layer(tape, a, h, w3, b3, False)

    return block


def stack_to_field_whole(stack, kind, timestep=""):
    """``grid_store.stack_to_field`` over the whole raster at once, with a
    per-pixel count of layers holding data: (probs, valid) as float64 and
    bool arrays, or the GridFormatError message the stack gives."""
    m = stack.manifest
    probs = np.empty((m.height_px, m.width, len(stack.grids)), dtype=np.float64)
    n_valid = np.zeros((m.height_px, m.width), dtype=np.intp)
    for i, grid in enumerate(stack.grids):
        probs[:, :, i] = grid.values
        n_valid += grid.valid_mask()
    valid = n_valid == len(stack.grids)
    if np.any((n_valid > 0) & ~valid):
        return "pixel that is nodata in some layers but not in others"
    sums = probs.sum(axis=-1)
    if kind is gs.StackKind.PRIOR_COUNTS:
        if np.any(probs[valid] < 0):
            return "negative count at a non-nodata pixel"
        valid &= sums > 0
    elif np.any(valid & (sums <= 0)):
        return "pixel with data but zero probability mass"
    np.divide(probs, sums[:, :, None], out=probs, where=valid[:, :, None])
    return probs, valid


def prior_counts_proportions(counts):
    """Per-pixel proportions of a PRIOR_COUNTS stack with no negative count
    and no pixel that is nodata in some layers only: a nodata count is 0,
    each pixel's counts are summed and divided by their sum where it is
    positive, and only those pixels are valid. (probs, valid) as float64
    and bool arrays. The sum runs along each pixel's row, as numpy sums the
    last axis; for 8 or more layers that order is pairwise, so an inexact
    sum can differ in its last bit from one taken layer by layer."""
    layers = np.stack([np.where(g.valid_mask(), g.values.astype(np.float64), 0.0)
                       for g in counts.grids], axis=-1)  # (H, W, K)
    totals = layers.sum(axis=-1)
    valid = totals > 0
    probs = np.zeros_like(layers)
    np.divide(layers, totals[:, :, None], out=probs, where=valid[:, :, None])
    return probs, valid


def category_field_error_whole(probs, valid):
    """The ValueError message of the ``CategoryField`` rule checked on every
    valid row at once, or None for a field that keeps it."""
    if not np.any(valid):
        return None
    rows = probs[valid]
    if not np.all(np.isfinite(rows)):
        return "non-finite category probability"
    if rows.min() < 0:
        return "negative category probability"
    if np.max(np.abs(rows.sum(axis=1) - 1.0)) > gs.SIMPLEX_TOL:
        return "category probabilities do not sum to 1"
    return None


def ad_map_whole(prior, posterior, rows_distance):
    """The float32 AD map with ``rows_distance`` (the audit's row kernel)
    applied to every pixel where both fields are valid at once, computed in
    float64 and then cast; -1 elsewhere."""
    mask = prior.valid & posterior.valid
    out = np.full(posterior.shape, -1.0, dtype=np.float64)
    out[mask] = rows_distance(prior.probs[mask], posterior.probs[mask])
    return out.astype(np.float32)
