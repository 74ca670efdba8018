"""Spans around the program's layers, recorded from the benchmark's side.

``Tracer.install`` replaces the public functions of each vulnaudit module
with timing wrappers at every module attribute bound to them (so
``graph_build.build_graph`` is also wrapped where ``model`` imported it),
and wraps ``Adam.step``. ``Tape.record`` is wrapped so that the backward
closure of each named kernel is timed as ``<kernel>_bwd`` when ``backward``
runs it. ``uninstall`` puts the originals back; nothing in the program
changes.

A span's self time is its duration minus the time of its child spans, so
the self times of one stage add up to that stage's root span. Spans are kept
in memory; ``layer_metrics`` turns them into the per-layer metrics. Kernel
FLOPs and bytes moved are computed from operand shapes and dtypes, not
measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import vulnaudit

MODULES = ("grid_store", "graph_build", "numcore", "model", "audit", "cli", "synth")
KERNELS = ("spmm", "matmul", "add_bias", "relu", "softmax_rows")
OTHER_KERNELS = ("add_const", "scale", "sum_all", "weighted_sum")
PIPELINE = ("prepare", "train", "infer", "audit")
TAIL_SAMPLES = 10  # the tail percentile has at least this many samples beyond it
GAP_LIMIT = 0.02   # stage self times must cover its traced wall time to 2%
MIB = 1024.0 * 1024.0

_BWD = {f"numcore.{k}": f"numcore.{k}_bwd" for k in KERNELS}

# span name -> metric bucket; other public functions go to <module>.other
BUCKETS = {
    "grid_store.read_grid_stack": "grid_store.read",
    "grid_store.write_grid_stack": "grid_store.write",
    "graph_build.build_graph": "graph_build.build_graph",
    "graph_build.sample_epoch": "graph_build.sample_epoch",
    "graph_build.normalize_adjacency": "graph_build.normalize_adjacency",
    **{k: k for k in _BWD}, **{v: v for v in _BWD.values()},
    "numcore.backward": "numcore.backward",
    "model.train_step": "model.train_step",
    "model.encode": "model.encode",
    "model.decode": "model.decode",
    "model.loss_rec": "model.losses",
    "model.loss_kl": "model.losses",
    "model.loss_ce": "model.losses",
    "model.Adam.step": "model.adam",
    "model.evaluate_losses": "model.evaluate_losses",
    "model.infer_posterior": "model.infer_posterior",
    "model.posterior_to_stack": "model.posterior_convert",
    "model.stack_to_posterior": "model.posterior_convert",
    "audit.ad_map": "audit.ad_map",
    "audit.change_map": "audit.change_map",
    "audit.regional_trend": "audit.trend",
    "audit.transition_matrix": "audit.transition",
    "audit.write_ppm_heatmap": "audit.heatmap",
    "synth.grow_categories": "synth.grow_categories",
    "synth.generate": "synth.generate",
}


def bucket(name: str) -> str:
    module = name.split(".", 1)[0]
    return BUCKETS.get(name, "cli" if module == "cli" else f"{module}.other")


class Tracer:
    """In-memory spans and counters, attributed to the current ``stage``."""

    def __init__(self):
        self.stage = "setup"
        self.spans: list[tuple[str, str, float, float]] = []  # stage, name, duration, self
        self.counters: dict[str, float] = defaultdict(float)  # pipeline stages only
        self.step_ms: list[float] = []
        self.errors = 0
        self._open: list[list] = []  # [name, start, child time, payload]
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, value: float = 1.0) -> None:
        if self.stage in PIPELINE:
            self.counters[key] += value

    def _wrap(self, name: str, fn, pre=None, post=None):
        tracer, open_spans = self, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = pre(args) if pre else None
            open_spans.append([name, time.perf_counter(), 0.0, payload])
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                _, start, child, _ = open_spans.pop()
                duration = end - start
                if open_spans:
                    open_spans[-1][2] += duration
                tracer.spans.append((tracer.stage, name, duration, duration - child))
                tracer.errors += not ok
            if post:
                try:
                    post(args, result, duration, payload)
                except Exception:  # a counter must never break the traced program
                    tracer.errors += 1
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"vulnaudit.{m}") for m in MODULES}
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrapped[id(value)] = self._wrap(name, value, *hooks.get(name, ()))
        for mod in (vulnaudit, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])

        adam = modules["model"].Adam
        self._saved.append((adam, "step", adam.step))
        adam.step = self._wrap("model.Adam.step", adam.step)

        tape = modules["numcore"].Tape
        original_record = tape.record
        self._saved.append((tape, "record", original_record))
        tracer = self

        def record(tape_self, out, backward_fn):
            top = tracer._open[-1] if tracer._open else None
            if top is not None and top[0] in _BWD:
                backward_fn = tracer._wrap(_BWD[top[0]], backward_fn,
                                           post=tracer._bwd_post(top[0], top[3]))
            original_record(tape_self, out, backward_fn)

        tape.record = record

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _bwd_post(self, kernel: str, payload):
        """Counter for one backward closure: spmm's backward (A^T @ dout) does
        the forward's work again; matmul's two products do it twice."""
        if payload is None:
            return None
        kind = kernel.split(".", 1)[1]
        times = 2.0 if kind == "matmul" else 1.0

        def post(*_):
            self.count(f"numcore.{kind}_flop", times * payload[0])
            self.count(f"numcore.{kind}_bytes", times * payload[1])
        return post

    def _hooks(self) -> dict:
        """Per-function (pre, post) counters; ``pre`` returns the span's payload."""
        t = self

        def stack_mib(stack) -> float:
            m = stack.manifest
            return 4.0 * m.width * m.height_px * len(m.layer_labels) / MIB

        def read_post(args, stack, *_):
            t.count("grid_store.calls")
            t.count("grid_store.read_mb", stack_mib(stack))

        def write_post(args, *_):
            t.count("grid_store.calls")
            t.count("grid_store.write_mb", stack_mib(args[0]))

        def graph_post(args, graph, *_):
            t.count("graph_build.build_graph_calls")
            t.count("graph_build.nodes", graph.n_nodes)
            t.count("graph_build.edges", graph.n_undirected_edges)

        def sample_post(args, sample, *_):
            t.count("graph_build.subgraphs", len(sample.subgraphs))
            t.count("graph_build.edges_offered", args[0].n_undirected_edges)
            t.count("graph_build.edges_kept",
                    sum(g.n_undirected_edges for g in sample.subgraphs))

        def normalize_post(*_):
            t.count("graph_build.normalize_adjacency_calls")

        def step_post(args, _result, duration, _payload):
            t.count("model.node_steps", args[2].n_nodes)
            t.count("model.train_step_wall", duration)
            if t.stage in PIPELINE:
                t.step_ms.append(duration * 1e3)

        def spmm_pre(args):
            a, x = args[1], args[2].value
            width = x.shape[1]
            moved = (a.nnz * (a.data.itemsize + a.indices.itemsize) + a.indptr.nbytes
                     + x.nbytes + a.rows * width * x.itemsize)
            return 2.0 * a.nnz * width, float(moved)

        def matmul_pre(args):
            x, w = args[1].value, args[2].value
            moved = x.nbytes + w.nbytes + x.shape[0] * w.shape[1] * x.itemsize
            return 2.0 * x.shape[0] * x.shape[1] * w.shape[1], float(moved)

        def kernel_post(kind):
            def post(args, _result, _duration, payload):
                t.count("numcore.kernel_calls")
                if payload is not None:
                    t.count(f"numcore.{kind}_flop", payload[0])
                    t.count(f"numcore.{kind}_bytes", payload[1])
            return post

        hooks = {
            "grid_store.read_grid_stack": (None, read_post),
            "grid_store.write_grid_stack": (None, write_post),
            "graph_build.build_graph": (None, graph_post),
            "graph_build.sample_epoch": (None, sample_post),
            "graph_build.normalize_adjacency": (None, normalize_post),
            "model.train_step": (None, step_post),
            "numcore.spmm": (spmm_pre, kernel_post("spmm")),
            "numcore.matmul": (matmul_pre, kernel_post("matmul")),
        }
        for k in KERNELS[2:] + OTHER_KERNELS:
            hooks[f"numcore.{k}"] = (None, kernel_post(k))
        return hooks


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES samples
    beyond it; with fewer samples than that, the smallest sample."""
    xs = sorted(samples)
    i = max(len(xs) - 1 - TAIL_SAMPLES, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def layer_metrics(tracer: Tracer, traced_wall: dict[str, float],
                  untraced_wall: dict[str, float], startup_s: float,
                  dataset, test_accuracy: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pipeline, as {name: (value, unit)}.

    Times are self times summed over the four pipeline stages, except
    ``cli.<stage>_self_s`` (one stage each), ``synth.*`` (the set-up) and
    ``cli.<stage>_wall_s`` (the untraced in-process stage).
    """
    self_s: dict[str, float] = defaultdict(float)
    stage_self: dict[str, float] = defaultdict(float)
    for stage, name, _duration, own in tracer.spans:
        stage_self[stage] += own
        b = bucket(name)
        if b == "cli":
            self_s[f"cli.{stage}_self"] += own
        elif stage in PIPELINE or b.startswith("synth."):
            self_s[b] += own
    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value), unit)

    for b in ("grid_store.read", "grid_store.write", "grid_store.other",
              "graph_build.build_graph", "graph_build.sample_epoch",
              "graph_build.normalize_adjacency", "graph_build.other",
              *(f"numcore.{k}" for k in KERNELS), "numcore.other",
              *(f"numcore.{k}_bwd" for k in KERNELS), "numcore.backward",
              "model.train_step", "model.encode", "model.decode", "model.losses",
              "model.adam", "model.evaluate_losses", "model.infer_posterior",
              "model.posterior_convert", "model.other",
              "audit.ad_map", "audit.change_map", "audit.trend", "audit.transition",
              "audit.heatmap", "audit.other",
              *(f"cli.{s}_self" for s in PIPELINE),
              "synth.grow_categories", "synth.generate", "synth.other"):
        put(f"{b}_s", self_s[b], "s")

    put("grid_store.read_mb", c["grid_store.read_mb"], "MiB")
    put("grid_store.write_mb", c["grid_store.write_mb"], "MiB")
    put("grid_store.calls", c["grid_store.calls"], "count")
    put("graph_build.build_graph_calls", c["graph_build.build_graph_calls"], "count")
    put("graph_build.nodes", c["graph_build.nodes"], "count")
    put("graph_build.edges", c["graph_build.edges"], "count")
    put("graph_build.subgraphs", c["graph_build.subgraphs"], "count")
    put("graph_build.normalize_adjacency_calls",
        c["graph_build.normalize_adjacency_calls"], "count")
    put("graph_build.edge_keep_frac",
        c["graph_build.edges_kept"] / max(c["graph_build.edges_offered"], 1.0), "frac")
    put("numcore.kernel_calls", c["numcore.kernel_calls"], "count")
    put("numcore.spmm_gflop", c["numcore.spmm_flop"] / 1e9, "GFLOP")
    put("numcore.spmm_mb", c["numcore.spmm_bytes"] / MIB, "MiB")
    put("numcore.matmul_gflop", c["numcore.matmul_flop"] / 1e9, "GFLOP")
    put("numcore.matmul_mb", c["numcore.matmul_bytes"] / MIB, "MiB")

    steps = tracer.step_ms or [0.0]
    tail, pct = _tail(steps)
    put("model.train_steps", len(tracer.step_ms), "count")
    put("model.train_step_p50_ms", statistics.median(steps), "ms")
    put("model.train_step_tail_ms", tail, "ms")
    put("model.train_step_tail_pct", pct, "%")
    put("model.node_steps_per_s",
        c["model.node_steps"] / max(c["model.train_step_wall"], 1e-9), "1/s")

    put("model.test_accuracy", test_accuracy, "frac")
    for stage in PIPELINE:
        put(f"cli.{stage}_wall_s", untraced_wall[stage], "s")
    put("cli.startup_s", startup_s, "s")
    put("workload.node_frac", dataset.node_frac, "frac")
    put("workload.churn_frac", dataset.churn_frac, "frac")

    gaps = [abs(traced_wall[s] - stage_self[s]) / traced_wall[s] for s in PIPELINE]
    traced, untraced = sum(traced_wall.values()), sum(untraced_wall.values())
    put("trace.overhead_frac", (traced - untraced) / untraced, "frac")
    put("trace.span_gap_frac", max(gaps), "frac")
    put("trace.spans", len(tracer.spans), "count")
    put("trace.errors", tracer.errors + len(tracer._open)
        + sum(g > GAP_LIMIT for g in gaps), "count")
    return m
