"""Categorical graph autoencoder under weak prior supervision.

A three-layer graph-convolutional encoder maps node features to K category
logits; a relaxed categorical sample of the latent feeds a mirrored
three-layer graph-convolutional decoder that reconstructs the features. The
loss is a weighted sum of reconstruction MSE, KL divergence of the posterior
from the prior, and cross-entropy of the posterior under the prior, the last
two restricted to nodes that carry a prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import numcore as nc
from . import schema
from .graph_build import (DEFAULT_EDGE_DROPOUT, NODE_FEATURES, GridGraph, NormStats,
                          SplitAssignment, Tile, auto_n_subgraphs, build_graph,
                          epoch_subgraphs, fit_norm_stats, log_normalize, node_mask,
                          tile_region)
from .grid_store import (DEFAULT_NODATA, CategoryField, GridStack, RasterGrid, StackKind,
                         StackManifest, read_array, stack_to_field, write_arrays)
from .numcore import NonFiniteError, Tape, Var

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_HIDDEN = 25
LEARNING_RATE = 1e-3
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
GUMBEL_TAU = 1.0
LOSS_WEIGHTS = (1.0, 1.0, 1.0)  # (rec, kl, ce)
CLAMP = 1e-9

PARAM_ORDER = ("enc_w1", "enc_b1", "enc_w2", "enc_b2", "enc_w3", "enc_b3",
               "dec_w1", "dec_b1", "dec_w2", "dec_b2", "dec_w3", "dec_b3")


@dataclass
class ModelParams:
    """Encoder/decoder weight matrices and bias vectors, keyed by PARAM_ORDER.
    The model computes in the weights' dtype (see ``_encoder_input``)."""

    f_dim: int
    k_cats: int
    hidden: int
    weights: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        """The weights' dtype, which the model computes in."""
        return self.weights[PARAM_ORDER[0]].dtype

    def astype(self, dtype) -> "ModelParams":
        """The same model with every weight and bias cast to ``dtype``."""
        return ModelParams(self.f_dim, self.k_cats, self.hidden,
                           {name: w.astype(dtype) for name, w in self.weights.items()})

    @classmethod
    def initialize(cls, f_dim: int, k_cats: int, hidden: int = DEFAULT_HIDDEN,
                   seed: int = 0) -> "ModelParams":
        """Glorot-uniform weights, zero biases, deterministic in the seed;
        dimensions that break ``check_dims`` are a ValueError."""
        check_dims(f_dim, k_cats, hidden)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9107]))
        weights: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(f_dim, k_cats, hidden).items():
            if len(shape) == 2:
                limit = np.sqrt(6.0 / sum(shape))
                weights[name] = rng.uniform(-limit, limit, size=shape)
            else:
                weights[name] = np.zeros(shape, dtype=np.float64)
        return cls(f_dim, k_cats, hidden, weights)


def check_dims(f_dim: int, k_cats: int, hidden: int) -> None:
    """The model's shape rule: positive dimensions, and a hidden width above
    both f_dim and k_cats, so that each stack's first layer widens and its
    others keep or narrow the width, the one shape ``numcore.gcn_block``
    takes. Another is a ValueError."""
    dims = [f_dim, k_cats, hidden]
    if min(dims) < 1:
        raise ValueError(f"f_dim, k_cats and hidden must be positive integers, got {dims}")
    if hidden <= max(f_dim, k_cats):
        raise ValueError(f"hidden must exceed f_dim and k_cats, got {dims}")


def param_shapes(f_dim: int, k_cats: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The shape of each weight matrix and bias vector, in PARAM_ORDER."""
    layers = ((f_dim, hidden), (hidden, hidden), (hidden, k_cats),
              (k_cats, hidden), (hidden, hidden), (hidden, f_dim))
    shapes: dict[str, tuple[int, ...]] = {}
    for w_name, b_name, (fan_in, fan_out) in zip(PARAM_ORDER[::2], PARAM_ORDER[1::2], layers):
        shapes[w_name] = (fan_in, fan_out)
        shapes[b_name] = (fan_out,)
    return shapes


@dataclass
class TrainConfig:
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class EncoderOutput:
    """Tape-tracked logits and softmax probabilities; use ``.value`` to read."""

    logits: Var
    probabilities: Var


def _stack_layers(tape: Tape, params: ModelParams,
                  stack: str) -> tuple[tuple[Var, Var], ...]:
    """Register every parameter on the tape (once); return the (W, b) pairs
    of the ``enc`` or ``dec`` stack."""
    pv = {name: tape.param(name, params.weights[name]) for name in PARAM_ORDER}
    return tuple((pv[f"{stack}_w{i}"], pv[f"{stack}_b{i}"]) for i in (1, 2, 3))


def encode(params: ModelParams, a_hat: sp.csr_matrix, x: np.ndarray,
           tape: Tape | None = None) -> EncoderOutput:
    """ReLU(A(ReLU(A(A X W1 + b1) W2 + b2)) W3 + b3) -> logits; softmax -> probabilities.

    Computes in the one dtype of ``a_hat``, ``x`` and the weights, which the
    caller makes agree (``_encoder_input``); ``gcn_block`` checks it and the
    widths. ``a_hat`` is symmetric, as ``graph_build`` makes it: the block's
    backward multiplies by it for its transpose."""
    tape = tape if tape is not None else Tape()
    logits = nc.gcn_block(tape, a_hat, Var(x), _stack_layers(tape, params, "enc"))
    return EncoderOutput(logits, nc.softmax_rows(tape, logits))


def decode(params: ModelParams, a_hat: sp.csr_matrix, v: Var,
           tape: Tape) -> Var:
    """Mirror of the encoder on the latent sample; final layer is linear.
    Takes the encoder's ``a_hat``: symmetric, in the dtype of ``v`` and the
    weights."""
    return nc.gcn_block(tape, a_hat, v, _stack_layers(tape, params, "dec"))


def sample_gumbel(shape, rng: np.random.Generator) -> np.ndarray:
    u = np.clip(rng.uniform(size=shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax_sample(logits: np.ndarray, tau: float,
                          rng: np.random.Generator) -> np.ndarray:
    """One relaxed categorical draw, ``gumbel_softmax_var``'s value."""
    return gumbel_softmax_var(Tape(), Var(logits), tau, rng).value


def gumbel_softmax_var(tape: Tape, logits: Var, tau: float,
                       rng: np.random.Generator) -> Var:
    """Taped relaxed draw, softmax((logits + gumbel noise) * (1 / tau)), as
    one tape entry (``numcore.gumbel_softmax``); the noise is a constant in
    the logits' dtype, gradients flow through the softmax only. A tau that
    is not a finite positive number is a ValueError."""
    if not 0 < tau < np.inf:  # NaN fails too
        raise ValueError("tau must be a finite positive number")
    g = sample_gumbel(logits.value.shape, rng).astype(logits.value.dtype, copy=False)
    return nc.gumbel_softmax(tape, logits, g, 1.0 / tau)


def loss_rec(tape: Tape, recon: Var, target: np.ndarray) -> Var:
    """Mean squared error over all N*F entries, in the reconstruction's dtype."""
    t = np.asarray(target, dtype=recon.value.dtype)
    if recon.value.shape != t.shape:
        raise ValueError(f"reconstruction shape {recon.value.shape} != target {t.shape}")
    diff = recon.value - t
    denom = max(diff.size, 1)
    out = Var((diff * diff).sum() / denom)

    def bwd(dout):
        return ((recon, (2.0 / denom) * diff * dout),)

    tape.record(out, bwd)
    return out


def _masked_mean(tape: Tape, posterior: Var, mask: np.ndarray, total, gradient) -> Var:
    """Record the mean over the m masked nodes of a per-node loss of the
    posterior. ``total(mask)`` gives the loss summed over the masked nodes,
    and ``gradient()`` its gradient at every entry. The backward calls
    ``gradient``, divides it by m and zeroes it off the mask, so no gradient
    is held through the forward. Zero, with a zero gradient, when the mask
    is empty."""
    mask = np.asarray(mask, dtype=bool)
    m = int(mask.sum())
    out = Var(total(mask) / m if m else np.zeros((), posterior.value.dtype))

    def bwd(dout):
        if m:
            grad = gradient()
            grad /= m
            grad[~mask] = 0.0
        else:
            grad = np.zeros_like(posterior.value)
        grad *= dout
        return ((posterior, grad),)

    tape.record(out, bwd)
    return out


def loss_kl(tape: Tape, posterior: Var, prior_p: np.ndarray, mask: np.ndarray) -> Var:
    """Mean over masked nodes of sum_k p log(p / p0), both clamped at 1e-9
    inside the logs, in the posterior's dtype. Zero when the mask is empty."""
    p = posterior.value
    p0 = np.asarray(prior_p, dtype=p.dtype)

    def log_ratio():  # the forward's and the backward's, the same bits
        return np.log(np.maximum(p, CLAMP)) - np.log(np.maximum(p0, CLAMP))

    return _masked_mean(tape, posterior, mask,
                        lambda mask: (p[mask] * log_ratio()[mask]).sum(),
                        lambda: log_ratio() + (p >= CLAMP))


def loss_ce(tape: Tape, posterior: Var, prior_p: np.ndarray, mask: np.ndarray) -> Var:
    """Mean over masked nodes of -sum_k p0 log(p), p clamped at 1e-9, in the
    posterior's dtype."""
    p = posterior.value
    p0 = np.asarray(prior_p, dtype=p.dtype)

    def total(mask):
        pc = np.maximum(p, CLAMP)
        return -(p0[mask] * np.log(pc[mask])).sum()

    return _masked_mean(tape, posterior, mask, total,
                        lambda: -(p0 * (p >= CLAMP)) / np.maximum(p, CLAMP))


class Adam:
    """Bias-corrected Adam over a name-keyed weight dict, with the fixed
    betas ADAM_BETAS and epsilon ADAM_EPS."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, weights: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        for name, w in weights.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(w))
            v = self._v.setdefault(name, np.zeros_like(w))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            w -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class LossBreakdown:
    rec: float
    kl: float
    ce: float
    total: float


def _forward_losses(params: ModelParams, a_hat: sp.csr_matrix, x: np.ndarray,
                    prior_p: np.ndarray, mask: np.ndarray, rng: np.random.Generator,
                    tape: Tape) -> tuple[Var, LossBreakdown]:
    enc = encode(params, a_hat, x, tape)
    v = gumbel_softmax_var(tape, enc.logits, GUMBEL_TAU, rng)
    recon = decode(params, a_hat, v, tape)
    l_rec = loss_rec(tape, recon, x)
    l_kl = loss_kl(tape, enc.probabilities, prior_p, mask)
    l_ce = loss_ce(tape, enc.probabilities, prior_p, mask)
    total = nc.weighted_sum(tape, [l_rec, l_kl, l_ce], list(LOSS_WEIGHTS))
    breakdown = LossBreakdown(float(l_rec.value), float(l_kl.value),
                              float(l_ce.value), float(total.value))
    return total, breakdown


@dataclass(frozen=True)
class ModelPrior:
    """A prior as training reads it: a CategoryField's probabilities cast to
    the model's dtype, and its has-prior mask."""

    probs: np.ndarray  # (H, W, K)
    valid: np.ndarray  # (H, W) bool

    @classmethod
    def of(cls, prior: CategoryField | ModelPrior, dtype) -> ModelPrior:
        """``prior`` in ``dtype``; no copy when it already is."""
        return cls(prior.probs.astype(dtype, copy=False), prior.valid)


def node_prior(prior: CategoryField | ModelPrior,
               graph: GridGraph) -> tuple[np.ndarray, np.ndarray]:
    """Prior vectors, in the prior's dtype, and has-prior mask at the
    graph's node pixels."""
    xs = graph.node_pixels[:, 0]
    ys = graph.node_pixels[:, 1]
    return prior.probs[ys, xs], prior.valid[ys, xs]


def _encoder_input(graph: GridGraph, norm_stats: NormStats,
                   dtype) -> tuple[sp.csr_matrix, np.ndarray]:
    """The encoder's input, the graph's A_hat and the log-normalized
    features, both cast to ``dtype``, the weights' dtype: the model computes
    in it. Only A_hat's values are cast; its index arrays are the graph's.
    log_normalize is elementwise: per part, same bits."""
    import scipy.sparse as sp
    # features first: made after A_hat, they raised infer's peak RSS 4 MiB on a 512² raster
    x = log_normalize(graph.features, norm_stats)[0].astype(dtype, copy=False)
    a = graph.a_hat
    return sp.csr_matrix((a.data.astype(dtype, copy=False), a.indices, a.indptr),
                         shape=a.shape), x


def train_step(params: ModelParams, optimizer: Adam, subgraph: GridGraph,
               norm_stats: NormStats, prior: CategoryField | ModelPrior,
               rng: np.random.Generator) -> LossBreakdown:
    """One Gumbel-sampled forward/backward pass plus an Adam update on a
    graph of raw heights; the prior is looked up at its node pixels and
    cast to the model's dtype once (no copy for ``train``'s ModelPrior), so
    the losses make no copy of it.

    The graph is dropped once its prior rows and encoder input exist, so a
    caller that passes it by expression, as ``train`` does, frees it before
    the forward (from Python 3.11, the floor, the callee owns its arguments).
    The prior rows are dropped before the backward: only the KL and CE
    rules read them, so they are freed once those rules have run."""
    if subgraph.n_nodes == 0:
        raise ValueError("empty subgraph")
    prior_p, mask = node_prior(prior, subgraph)
    prior_p = prior_p.astype(params.dtype, copy=False)
    a_hat, x = _encoder_input(subgraph, norm_stats, params.dtype)
    del subgraph
    tape = Tape()
    total, breakdown = _forward_losses(params, a_hat, x, prior_p, mask, rng, tape)
    del prior_p
    grads = nc.backward(tape, total)
    optimizer.step(params.weights, grads)
    return breakdown


@dataclass
class TrainResult:
    params: ModelParams
    history: list[LossBreakdown]  # each epoch's mean step losses, in order
    norm_stats: NormStats


def derive_seed(*parts: int) -> int:
    """Platform-stable child seed from integer components."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def _mean_breakdown(items: list[LossBreakdown]) -> LossBreakdown:
    n = len(items)
    return LossBreakdown(sum(b.rec for b in items) / n,
                         sum(b.kl for b in items) / n,
                         sum(b.ce for b in items) / n,
                         sum(b.total for b in items) / n)


def train(params: ModelParams, height_series: GridStack, prior: CategoryField | ModelPrior,
          splits: SplitAssignment, config: TrainConfig) -> TrainResult:
    """Fit the normalisation and one shared parameter set to all timesteps' training nodes.

    Each epoch draws a fresh subgraph partition with edge dropout per
    timestep and interleaves the timesteps round-robin. Only training tiles
    are read: the validation and test tiles are held out. Fully
    deterministic given ``config.seed``.

    Between steps train holds only each timestep's partition, as a raster of
    part ids (see ``epoch_subgraphs``): each step's graph is built from the
    raster when the step runs and dropped before the next is built. It
    holds the prior only as a ModelPrior in the weights' dtype; a caller
    that passes a ModelPrior in that dtype, as ``cli.cmd_train`` does, keeps
    no float64 copy beside it.
    """
    prior = ModelPrior.of(prior, params.dtype)
    norm_stats = fit_norm_stats(height_series.grids, splits.train)  # raises on no training node
    # the timesteps that have training nodes, and their node counts
    train_grids: dict[str, RasterGrid] = {}
    sizes: list[int] = []
    for label, grid in zip(height_series.manifest.layer_labels, height_series.grids):
        if n_nodes := int(node_mask(grid, splits.train).sum()):
            train_grids[label] = grid
            sizes.append(n_nodes)

    n_sub = auto_n_subgraphs(max(sizes))  # parts per timestep, sized by the largest
    for label, n_nodes in zip(train_grids, sizes):
        if n_nodes < n_sub:
            raise ValueError(f"timestep {label!r} has {n_nodes} training nodes, "
                             f"fewer than the {n_sub} subgraphs of each epoch")

    optimizer = Adam(LEARNING_RATE)
    history: list[LossBreakdown] = []
    for epoch in range(config.epochs):
        samplers = [epoch_subgraphs(grid, splits.train, n_sub, DEFAULT_EDGE_DROPOUT,
                                    derive_seed(config.seed, 1, epoch, ti))
                    for ti, grid in enumerate(train_grids.values())]
        step_losses: list[LossBreakdown] = []
        for i in range(n_sub):
            for ti, (label, parts) in enumerate(zip(train_grids, samplers)):
                rng = np.random.default_rng(
                    np.random.SeedSequence([config.seed, 2, epoch, ti, i]))
                try:  # the part graph lives only while its step runs
                    step_losses.append(train_step(params, optimizer, next(parts),
                                                  norm_stats, prior, rng))
                except NonFiniteError as exc:
                    raise NonFiniteError(f"epoch {epoch}, timestep {label!r}, "
                                         f"subgraph {i}: {exc}") from exc
        history.append(_mean_breakdown(step_losses))
    return TrainResult(params, history, norm_stats)


# Inference encodes one window at a time: a core tile plus a halo. The
# encoder's three A_hat products read 3 hops, and A_hat's degree
# normalisation reads one hop more, so with a 4-pixel halo every core node
# gets exactly its full-graph posterior (a 3-pixel halo does not). So every
# core size gives the same bytes: the size only trades one window's memory
# against halo work, and owes nothing to the training node cap. It was
# measured (2 vCPU, one BLAS thread, float32 weights, hidden 25, K = 3). On a
# dense 256x256 raster the traced peak fell from 15.4 MiB with 215-pixel
# cores to 6.3 MiB with 128-pixel ones, in no more time. On a dense 512x512
# raster smaller cores stop paying: the peak reads 18.8 MiB at 215, 8.9 at
# 128, 6.5 at 96 and 5.3 at 32, near the 3 MiB of the output layers, while
# 32-pixel cores take 1.4x as long, as the halo adds 56% to their windows
# (13% at 128). A window holds at most 136**2 = 18,496 nodes.
INFER_HALO = 4
INFER_CORE = 128


def infer_posterior(params: ModelParams, heights: RasterGrid, norm_stats: NormStats,
                    categories: list[str]) -> GridStack:
    """The raster's POSTERIOR stack: one float32 layer per category, nodata off nodes.

    The raster is cut into INFER_CORE-pixel core tiles. Each core is encoded
    on the graph of its window (the core plus an INFER_HALO-pixel halo,
    clipped to the raster) and only its core pixels are written. The result
    equals encoding the full-raster graph, byte for byte at any core size,
    while memory is bounded by one window of at most
    (INFER_CORE + 2*INFER_HALO)**2 = 18,496 nodes plus the output layers.
    Windows are encoded in the weights' dtype; each core's rows are a
    float64 softmax of its logits, checked, then rounded into the layers.
    """
    if params.f_dim != NODE_FEATURES:
        raise ValueError(f"feature-dimension mismatch: graph has "
                         f"{NODE_FEATURES}, model expects {params.f_dim}")
    if len(categories) != params.k_cats:
        raise ValueError("category count does not match model")
    h, w = heights.height_px, heights.width
    layers = [np.full((h, w), DEFAULT_NODATA, dtype=np.float32) for _ in categories]
    for core in tile_region(w, h, INFER_CORE):
        cx1, cy1 = core.origin_x + core.width, core.origin_y + core.height
        x0, y0 = max(core.origin_x - INFER_HALO, 0), max(core.origin_y - INFER_HALO, 0)
        x1, y1 = min(cx1 + INFER_HALO, w), min(cy1 + INFER_HALO, h)
        window = RasterGrid(x1 - x0, y1 - y0, heights.values[y0:y1, x0:x1],
                            nodata=heights.nodata)
        graph = build_graph(window, [Tile(0, 0, window.width, window.height_px)])
        if graph.n_nodes == 0:
            continue
        xs = graph.node_pixels[:, 0] + x0
        ys = graph.node_pixels[:, 1] + y0
        a_hat, x = _encoder_input(graph, norm_stats, params.dtype)
        del graph  # its float64 A_hat goes before the encoder runs
        try:
            logits = encode(params, a_hat, x).logits.value
        except NonFiniteError as exc:
            raise NonFiniteError(f"core at x={core.origin_x}, y={core.origin_y}: {exc}") from exc
        del a_hat, x  # nor does the input live on into the next window's build
        in_core = (xs >= core.origin_x) & (xs < cx1) & (ys >= core.origin_y) & (ys < cy1)
        xs, ys = xs[in_core], ys[in_core]
        # checked as an N x 1 CategoryField, then rounded to nearest float32
        rows = nc.softmax_values(logits[in_core].astype(np.float64))
        CategoryField(categories, rows[:, None], np.ones((len(rows), 1), dtype=bool))
        for i, layer in enumerate(layers):
            layer[ys, xs] = rows[:, i]
        del rows  # nor do a core's float64 rows live on into the next window
    return GridStack(StackManifest(StackKind.POSTERIOR, w, h, list(categories)),
                     [RasterGrid(w, h, layer) for layer in layers])


def stack_to_posterior(stack: GridStack, timestep: str = "") -> CategoryField:
    # acceptance 5 and the benchmark (bench/stages.py) read posteriors back
    # through this name
    return stack_to_field(stack, StackKind.POSTERIOR, timestep)


@dataclass
class CheckpointManifest:
    """A checkpoint's ``manifest.json``: the dimensions that give each
    blob's shape (``param_shapes``), under ``check_dims``, the feature
    normalisation and the train section it was trained with. Blobs are
    named by PARAM_ORDER."""
    f_dim: int
    k_cats: int
    hidden: int
    norm: NormStats
    config: TrainConfig

    def __post_init__(self):
        check_dims(self.f_dim, self.k_cats, self.hidden)


def save_checkpoint(path: str | Path, params: ModelParams, norm_stats: NormStats,
                    config: TrainConfig) -> None:
    """Manifest JSON plus one little-endian f32 blob per weight/bias, staged
    by ``write_arrays``, so a failed write never leaves a manifest beside
    another save's blobs."""
    manifest = CheckpointManifest(params.f_dim, params.k_cats, params.hidden,
                                  norm_stats, config)
    write_arrays(path, manifest, {name: params.weights[name] for name in PARAM_ORDER})


def load_checkpoint(path: str | Path) -> tuple[ModelParams, NormStats, TrainConfig]:
    """Read what ``save_checkpoint`` wrote, strictly: the manifest as a
    ``CheckpointManifest``, then each blob through ``read_array``, all
    finite. Anything else is a ValueError naming the file."""
    path = Path(path)
    m = schema.load(CheckpointManifest, path / "manifest.json")
    weights = {}
    for name, shape in param_shapes(m.f_dim, m.k_cats, m.hidden).items():
        blob_file = path / f"{name}.f32"
        weights[name] = read_array(blob_file, shape)
        if not np.isfinite(weights[name]).all():
            raise ValueError(f"{blob_file}: non-finite weights")
    return ModelParams(m.f_dim, m.k_cats, m.hidden, weights), m.norm, m.config
