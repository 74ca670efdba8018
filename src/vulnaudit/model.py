"""Categorical graph autoencoder under weak prior supervision.

A three-layer graph-convolutional encoder maps node features to K category
logits; a relaxed categorical sample of the latent feeds a mirrored
three-layer graph-convolutional decoder that reconstructs the features. The
loss is a weighted sum of reconstruction MSE, KL divergence of the posterior
from the prior, and cross-entropy of the posterior under the prior, the last
two restricted to nodes that carry a prior.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import numcore as nc
from .graph_build import (MAX_SUBGRAPH_NODES, NODE_FEATURES, GridGraph, NormStats,
                          SplitAssignment, Tile, auto_n_subgraphs, build_graph,
                          fit_norm_stats, log_normalize, normalize_adjacency,
                          sample_epoch, tile_region)
from .grid_store import DEFAULT_NODATA, GridStack, PriorField, RasterGrid, StackKind, StackManifest
from .numcore import NonFiniteError, SparseMatrix, Tape, Var

DEFAULT_HIDDEN = 25
CLAMP = 1e-9

PARAM_ORDER = ("enc_w1", "enc_b1", "enc_w2", "enc_b2", "enc_w3", "enc_b3",
               "dec_w1", "dec_b1", "dec_w2", "dec_b2", "dec_w3", "dec_b3")


class TrainAbortError(RuntimeError):
    """Training hit a non-finite value; message carries epoch/subgraph context."""


@dataclass
class ModelParams:
    """Encoder/decoder weight matrices and bias vectors, keyed by PARAM_ORDER."""

    f_dim: int
    k_cats: int
    hidden: int
    weights: dict[str, np.ndarray]

    @classmethod
    def initialize(cls, f_dim: int, k_cats: int, hidden: int = DEFAULT_HIDDEN,
                   seed: int = 0) -> "ModelParams":
        """Glorot-uniform weights, zero biases, deterministic in the seed."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9107]))
        dims = {
            "enc_w1": (f_dim, hidden), "enc_w2": (hidden, hidden), "enc_w3": (hidden, k_cats),
            "dec_w1": (k_cats, hidden), "dec_w2": (hidden, hidden), "dec_w3": (hidden, f_dim),
        }
        weights: dict[str, np.ndarray] = {}
        for name in PARAM_ORDER:
            if name.endswith(("w1", "w2", "w3")):
                fan_in, fan_out = dims[name]
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                weights[name] = rng.uniform(-limit, limit, size=dims[name])
            else:
                w_name = name.replace("b", "w")
                weights[name] = np.zeros(dims[w_name][1], dtype=np.float64)
        return cls(f_dim, k_cats, hidden, weights)

    def copy(self) -> "ModelParams":
        return ModelParams(self.f_dim, self.k_cats, self.hidden,
                           {k: v.copy() for k, v in self.weights.items()})


@dataclass
class TrainConfig:
    tau: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 200
    edge_dropout: float = 0.20
    n_subgraphs: int | None = None  # None: sized so subgraphs stay under the node cap
    seed: int = 0
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)  # (rec, kl, ce)
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 <= self.edge_dropout < 1.0:
            raise ValueError("edge_dropout must lie in [0, 1)")
        if min(self.loss_weights) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class EncoderOutput:
    """Tape-tracked logits and softmax probabilities; use ``.value`` to read."""

    logits: Var
    probabilities: Var


@dataclass
class PosteriorField:
    """Per-pixel category distributions on the full raster for one timestep."""

    categories: list[str]
    probs: np.ndarray   # (H, W, K) float64; nodata where no node existed
    valid: np.ndarray   # (H, W) bool
    timestep: str = ""
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        h, w, k = self.probs.shape
        if k != len(self.categories):
            raise ValueError("probs last axis != number of categories")
        if self.valid.shape != (h, w):
            raise ValueError("valid mask shape mismatch")
        if np.any(self.valid):
            rows = self.probs[self.valid]
            if not np.all(np.isfinite(rows)):
                raise ValueError("non-finite posterior probability")
            if rows.min() < 0:
                raise ValueError("negative posterior probability")
            if np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-9:
                raise ValueError("posterior row does not sum to 1")

    @property
    def k(self) -> int:
        return self.probs.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape[:2]


def _register(tape: Tape, params: ModelParams) -> dict[str, Var]:
    return {name: tape.param(name, params.weights[name]) for name in PARAM_ORDER}


def _gcn_layer(tape: Tape, a_hat: SparseMatrix, h: Var, w: Var, b: Var,
               activate: bool) -> Var:
    out = nc.add_bias(tape, nc.matmul(tape, nc.spmm(tape, a_hat, h), w), b)
    return nc.relu(tape, out) if activate else out


def encode(params: ModelParams, a_hat: SparseMatrix, x: np.ndarray,
           tape: Tape | None = None) -> EncoderOutput:
    """ReLU(A(ReLU(A(A X W1 + b1) W2 + b2)) W3 + b3) -> logits; softmax -> probabilities."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.f_dim:
        raise ValueError(f"feature-dimension mismatch: got {x.shape}, expected (*, {params.f_dim})")
    tape = tape if tape is not None else Tape()
    pv = _register(tape, params)
    h = _gcn_layer(tape, a_hat, tape.constant(x), pv["enc_w1"], pv["enc_b1"], True)
    h = _gcn_layer(tape, a_hat, h, pv["enc_w2"], pv["enc_b2"], True)
    logits = _gcn_layer(tape, a_hat, h, pv["enc_w3"], pv["enc_b3"], False)
    return EncoderOutput(logits, nc.softmax_rows(tape, logits))


def decode(params: ModelParams, a_hat: SparseMatrix, v: Var,
           tape: Tape) -> Var:
    """Mirror of the encoder on the latent sample; final layer is linear."""
    if v.value.shape[1] != params.k_cats:
        raise ValueError(f"latent dimension mismatch: got {v.value.shape}, "
                         f"expected (*, {params.k_cats})")
    pv = _register(tape, params)
    h = _gcn_layer(tape, a_hat, v, pv["dec_w1"], pv["dec_b1"], True)
    h = _gcn_layer(tape, a_hat, h, pv["dec_w2"], pv["dec_b2"], True)
    return _gcn_layer(tape, a_hat, h, pv["dec_w3"], pv["dec_b3"], False)


def sample_gumbel(shape, rng: np.random.Generator) -> np.ndarray:
    u = np.clip(rng.uniform(size=shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax_sample(logits: np.ndarray, tau: float,
                          rng: np.random.Generator) -> np.ndarray:
    """One relaxed categorical draw: softmax((logits + gumbel noise) / tau)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    logits = np.asarray(logits, dtype=np.float64)
    return nc.softmax_values((logits + sample_gumbel(logits.shape, rng)) / tau)


def gumbel_softmax_var(tape: Tape, logits: Var, tau: float,
                       rng: np.random.Generator) -> Var:
    """Taped relaxed draw; the noise is a constant, gradients flow through the
    softmax only."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = sample_gumbel(logits.value.shape, rng)
    return nc.softmax_rows(tape, nc.scale(tape, nc.add_const(tape, logits, g), 1.0 / tau))


def loss_rec(tape: Tape, recon: Var, target: np.ndarray) -> Var:
    """Mean squared error over all N*F entries."""
    t = np.asarray(target, dtype=np.float64)
    if recon.value.shape != t.shape:
        raise ValueError(f"reconstruction shape {recon.value.shape} != target {t.shape}")
    diff = recon.value - t
    denom = max(diff.size, 1)
    out = Var((diff * diff).sum() / denom)

    def bwd(dout):
        return ((recon, (2.0 / denom) * diff * dout),)

    tape.record(out, bwd)
    return out


def loss_kl(tape: Tape, posterior: Var, prior_p: np.ndarray, mask: np.ndarray) -> Var:
    """Mean over masked nodes of sum_k p log(p / p0), both clamped at 1e-9
    inside the logs. Zero when the mask is empty."""
    p = posterior.value
    p0 = np.asarray(prior_p, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    m = int(mask.sum())
    if m == 0:
        out = Var(0.0)
        tape.record(out, lambda dout: ((posterior, np.zeros_like(p)),))
        return out
    log_ratio = np.log(np.maximum(p, CLAMP)) - np.log(np.maximum(p0, CLAMP))
    out = Var((p[mask] * log_ratio[mask]).sum() / m)
    gate = (p >= CLAMP).astype(np.float64)
    grad = (log_ratio + gate) / m
    grad[~mask] = 0.0

    def bwd(dout):
        return ((posterior, grad * dout),)

    tape.record(out, bwd)
    return out


def loss_ce(tape: Tape, posterior: Var, prior_p: np.ndarray, mask: np.ndarray) -> Var:
    """Mean over masked nodes of -sum_k p0 log(p), p clamped at 1e-9."""
    p = posterior.value
    p0 = np.asarray(prior_p, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    m = int(mask.sum())
    if m == 0:
        out = Var(0.0)
        tape.record(out, lambda dout: ((posterior, np.zeros_like(p)),))
        return out
    pc = np.maximum(p, CLAMP)
    out = Var(-(p0[mask] * np.log(pc[mask])).sum() / m)
    grad = -(p0 * (p >= CLAMP)) / pc / m
    grad[~mask] = 0.0

    def bwd(dout):
        return ((posterior, grad * dout),)

    tape.record(out, bwd)
    return out


class Adam:
    """Bias-corrected Adam over a name-keyed weight dict."""

    def __init__(self, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, weights: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, w in weights.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(w))
            v = self._v.setdefault(name, np.zeros_like(w))
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            m_hat = m / (1 - self.b1 ** self.t)
            v_hat = v / (1 - self.b2 ** self.t)
            w -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class LossBreakdown:
    rec: float
    kl: float
    ce: float
    total: float


def _forward_losses(params: ModelParams, a_hat: SparseMatrix, x: np.ndarray,
                    prior_p: np.ndarray, mask: np.ndarray, config: TrainConfig,
                    rng: np.random.Generator | None,
                    tape: Tape) -> tuple[Var, LossBreakdown]:
    enc = encode(params, a_hat, x, tape)
    if rng is not None:
        v = gumbel_softmax_var(tape, enc.logits, config.tau, rng)
    else:
        v = enc.probabilities  # expected probabilities, no sampling noise
    recon = decode(params, a_hat, v, tape)
    l_rec = loss_rec(tape, recon, x)
    l_kl = loss_kl(tape, enc.probabilities, prior_p, mask)
    l_ce = loss_ce(tape, enc.probabilities, prior_p, mask)
    total = nc.weighted_sum(tape, [l_rec, l_kl, l_ce], list(config.loss_weights))
    breakdown = LossBreakdown(float(l_rec.value), float(l_kl.value),
                              float(l_ce.value), float(total.value))
    return total, breakdown


def node_prior(prior: PriorField, graph: GridGraph) -> tuple[np.ndarray, np.ndarray]:
    """Prior vectors and has-prior mask at the graph's node pixels."""
    xs = graph.node_pixels[:, 0]
    ys = graph.node_pixels[:, 1]
    return prior.proportions[ys, xs], prior.has_prior[ys, xs]


def train_step(params: ModelParams, optimizer: Adam, subgraph: GridGraph,
               prior: PriorField, config: TrainConfig,
               rng: np.random.Generator) -> LossBreakdown:
    """One Gumbel-sampled forward/backward pass plus an Adam update.

    The subgraph's features must already be normalized; the prior is looked up
    at the subgraph's node pixels.
    """
    if subgraph.n_nodes == 0:
        raise ValueError("empty subgraph")
    prior_p, mask = node_prior(prior, subgraph)
    a_hat = normalize_adjacency(subgraph)
    tape = Tape()
    total, breakdown = _forward_losses(params, a_hat, subgraph.features,
                                       prior_p, mask, config, rng, tape)
    grads = nc.backward(tape, total)
    optimizer.step(params.weights, grads)
    return breakdown


def evaluate_losses(params: ModelParams, a_hat: SparseMatrix, x: np.ndarray,
                    prior_p: np.ndarray, mask: np.ndarray,
                    config: TrainConfig) -> LossBreakdown:
    """Loss terms without sampling noise (latent = expected probabilities)."""
    _, breakdown = _forward_losses(params, a_hat, x, prior_p, mask, config,
                                   None, Tape())
    return breakdown


@dataclass
class EpochLosses:
    epoch: int
    train: LossBreakdown
    val: LossBreakdown


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochLosses]
    norm_stats: NormStats


def derive_seed(*parts: int) -> int:
    """Platform-stable child seed from integer components."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def _mean_breakdown(items: list[LossBreakdown]) -> LossBreakdown:
    if not items:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0)
    n = len(items)
    return LossBreakdown(sum(b.rec for b in items) / n,
                         sum(b.kl for b in items) / n,
                         sum(b.ce for b in items) / n,
                         sum(b.total for b in items) / n)


def train(params: ModelParams, height_series: GridStack, prior: PriorField,
          splits: SplitAssignment, config: TrainConfig,
          norm_stats: NormStats | None = None) -> TrainResult:
    """Train one shared parameter set over all timesteps' training graphs.

    Each epoch draws a fresh subgraph partition with edge dropout per
    timestep and interleaves the timesteps round-robin. Validation losses are
    computed on the validation tiles with no dropout and no sampling noise.
    Fully deterministic given ``config.seed``.
    """
    labels = list(height_series.manifest.layer_labels)
    train_graphs: dict[str, GridGraph] = {}
    for label, grid in zip(labels, height_series.grids):
        g = build_graph(grid, splits.train)
        if g.n_nodes:
            train_graphs[label] = g
    if not train_graphs:
        raise ValueError("no training nodes at any timestep")

    if norm_stats is None:
        norm_stats = fit_norm_stats(height_series.grids, splits.train)

    train_labels = list(train_graphs)
    normed: dict[str, GridGraph] = {}
    for label in train_labels:
        g = train_graphs[label]
        feats, _ = log_normalize(g.features, norm_stats)
        normed[label] = GridGraph(g.node_pixels, g.adjacency, feats)

    # validation inputs are fixed across epochs
    val_inputs = []
    for label, grid in zip(labels, height_series.grids):
        g = build_graph(grid, splits.validation)
        if not g.n_nodes:
            continue
        feats, _ = log_normalize(g.features, norm_stats)
        p0, mask = node_prior(prior, g)
        val_inputs.append((normalize_adjacency(g), feats, p0, mask))

    n_sub = config.n_subgraphs or auto_n_subgraphs(max(g.n_nodes for g in normed.values()))
    smallest = min(g.n_nodes for g in normed.values())
    if n_sub > smallest:
        raise ValueError(f"n_subgraphs={n_sub} exceeds smallest training graph ({smallest} nodes)")

    optimizer = Adam(config.learning_rate, config.adam_betas, config.adam_eps)
    history: list[EpochLosses] = []
    for epoch in range(config.epochs):
        samples = {}
        for ti, label in enumerate(train_labels):
            seed = derive_seed(config.seed, 1, epoch, ti)
            samples[label] = sample_epoch(normed[label], n_sub,
                                          config.edge_dropout, seed)
        step_losses: list[LossBreakdown] = []
        for i in range(n_sub):
            for ti, label in enumerate(train_labels):
                sub = samples[label].subgraphs[i]
                rng = np.random.default_rng(
                    np.random.SeedSequence([config.seed, 2, epoch, ti, i]))
                try:
                    step_losses.append(train_step(params, optimizer, sub, prior,
                                                  config, rng))
                except NonFiniteError as exc:
                    raise TrainAbortError(
                        f"epoch {epoch}, timestep {label!r}, subgraph {i}: {exc}") from exc
        val_losses = [evaluate_losses(params, a, x, p0, m, config)
                      for a, x, p0, m in val_inputs]
        history.append(EpochLosses(epoch, _mean_breakdown(step_losses),
                                   _mean_breakdown(val_losses)))
    return TrainResult(params, history, norm_stats)


# Inference encodes one window at a time: a core tile plus a halo. The
# encoder's three A_hat products read 3 hops, and A_hat's degree
# normalisation reads one hop more, so with a 4-pixel halo every core node
# gets exactly its full-graph posterior (a 3-pixel halo does not). The core is
# sized so that a window stays under the training subgraph node cap.
INFER_HALO = 4
INFER_CORE = math.isqrt(MAX_SUBGRAPH_NODES) - 2 * INFER_HALO  # 215 px


def infer_posterior(params: ModelParams, heights: RasterGrid, norm_stats: NormStats,
                    categories: list[str], timestep: str = "") -> PosteriorField:
    """Posterior probabilities for every node pixel of the raster; pixels
    without a node are nodata.

    The raster is cut into INFER_CORE-pixel core tiles. Each core is encoded
    on the graph of its window (the core plus an INFER_HALO-pixel halo,
    clipped to the raster) and only its core pixels are written. The result
    equals encoding the full-raster graph, while memory is bounded by one
    window of at most MAX_SUBGRAPH_NODES nodes.
    """
    if params.f_dim != NODE_FEATURES:
        raise ValueError(f"feature-dimension mismatch: graph has "
                         f"{NODE_FEATURES}, model expects {params.f_dim}")
    if len(categories) != params.k_cats:
        raise ValueError("category count does not match model")
    h, w = heights.height_px, heights.width
    probs = np.full((h, w, len(categories)), DEFAULT_NODATA, dtype=np.float64)
    valid = np.zeros((h, w), dtype=bool)
    for core in tile_region(w, h, INFER_CORE):
        cx1, cy1 = core.origin_x + core.width, core.origin_y + core.height
        x0, y0 = max(core.origin_x - INFER_HALO, 0), max(core.origin_y - INFER_HALO, 0)
        x1, y1 = min(cx1 + INFER_HALO, w), min(cy1 + INFER_HALO, h)
        window = RasterGrid(x1 - x0, y1 - y0, heights.values[y0:y1, x0:x1],
                            nodata=heights.nodata)
        graph = build_graph(window, [Tile(0, 0, window.width, window.height_px)])
        if graph.n_nodes == 0:
            continue
        feats, _ = log_normalize(graph.features, norm_stats)
        enc = encode(params, normalize_adjacency(graph), feats)
        xs = graph.node_pixels[:, 0] + x0
        ys = graph.node_pixels[:, 1] + y0
        in_core = (xs >= core.origin_x) & (xs < cx1) & (ys >= core.origin_y) & (ys < cy1)
        xs, ys = xs[in_core], ys[in_core]
        probs[ys, xs] = enc.probabilities.value[in_core]
        valid[ys, xs] = True
    return PosteriorField(list(categories), probs, valid, timestep)


def posterior_to_stack(post: PosteriorField) -> GridStack:
    h, w, k = post.probs.shape
    manifest = StackManifest(StackKind.POSTERIOR, w, h, list(post.categories),
                             nodata=post.nodata)
    grids = []
    for i in range(k):
        vals = np.where(post.valid, post.probs[:, :, i], post.nodata)
        grids.append(RasterGrid(w, h, vals.astype(np.float32), nodata=post.nodata))
    return GridStack(manifest, grids)


def stack_to_posterior(stack: GridStack, timestep: str = "") -> PosteriorField:
    if stack.manifest.kind is not StackKind.POSTERIOR:
        raise ValueError(f"expected POSTERIOR stack, got {stack.manifest.kind.value}")
    layers = np.stack([g.values.astype(np.float64) for g in stack.grids], axis=-1)
    valid_layers = np.stack([g.valid_mask() for g in stack.grids], axis=-1)
    valid = valid_layers.all(axis=-1)
    # float32 storage drifts row sums by ~1e-7; renormalize at valid pixels
    sums = layers.sum(axis=-1)
    if np.any(valid & (sums <= 0)):
        raise ValueError("posterior pixel with zero probability mass")
    sums = np.where(valid, sums, 1.0)
    probs = np.where(valid[:, :, None], layers / sums[:, :, None],
                     stack.manifest.nodata)
    return PosteriorField(list(stack.manifest.layer_labels), probs, valid, timestep,
                          nodata=stack.manifest.nodata)


def save_checkpoint(path: str | Path, params: ModelParams, norm_stats: NormStats,
                    config: TrainConfig) -> None:
    """Manifest JSON plus one little-endian f32 blob per weight/bias."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "f_dim": params.f_dim,
        "k_cats": params.k_cats,
        "hidden": params.hidden,
        "param_order": list(PARAM_ORDER),
        "shapes": {name: list(params.weights[name].shape) for name in PARAM_ORDER},
        "norm_mean": norm_stats.mean,
        "norm_std": norm_stats.std,
        "config": asdict(config),
    }
    (path / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name in PARAM_ORDER:
        (path / f"{name}.f32").write_bytes(
            np.ascontiguousarray(params.weights[name], dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, NormStats, dict]:
    path = Path(path)
    manifest_file = path / "manifest.json"
    if not manifest_file.is_file():
        raise FileNotFoundError(f"missing checkpoint manifest: {manifest_file}")
    doc = json.loads(manifest_file.read_text(encoding="utf-8"))
    weights = {}
    for name in doc["param_order"]:
        blob = (path / f"{name}.f32").read_bytes()
        shape = tuple(doc["shapes"][name])
        arr = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(shape)
        weights[name] = arr
    params = ModelParams(int(doc["f_dim"]), int(doc["k_cats"]), int(doc["hidden"]), weights)
    stats = NormStats(float(doc["norm_mean"]), float(doc["norm_std"]))
    return params, stats, doc.get("config", {})
