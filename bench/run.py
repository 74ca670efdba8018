"""Pipeline benchmark: set-up time, stage times and peak RSS per workload,
plus a traced run for per-layer metrics.

    python3 bench/run.py --workload dense-train --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each repetition first sets up: it generates and writes
the workload's dataset in this process (``setup_s``). The four CLI stages
(prepare, train, infer, audit) then run as a user runs them, one child
process each. Repetitions go on until ``--seconds`` have passed, and at
least twice. Stage times are wall times of the child, which include
interpreter start-up and imports; RSS is each child's own peak from
``os.wait4``. Values are medians over repetitions.

Every repetition's outputs are checked: posteriors read back, audit/index.json
lists the expected artifacts, normalized transition rows sum to 1, test
accuracy beats chance, and losses.csv, checkpoint/* and transition_*.csv are
byte-identical across repetitions. A stage that exits non-zero or fails a
check counts in ``failed``.

The JSON metrics are the bounded ones (END_TO_END_UNITS). Stage times,
``pipeline_s`` and test accuracy are printed and kept in result.json, but
not bounded: see END_TO_END_UNITS for the times; accuracy is exact for one
seed but differs widely between seeds.

With ``--trace 1`` the pipeline runs in this process twice, untraced and
then traced (see spans.py), and the per-layer metrics come from the traced
run; the difference of the two is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it give a readable
summary and the environment; ``.bench_work/<workload>-seed<n>-<mode>/``
keeps the full result and the stage logs. BLAS threads are pinned to one
here and in every child, so runs compare like with like.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: on a 2-vCPU VM two threads made dense-train's train stage
# slower (median of six 11.2 s vs 10.5 s) and twice as noisy
BLAS_THREADS = 1
MIN_REPS = 2          # the byte-compare needs a second repetition
STARTUP_SAMPLES = 3
DEADLINE_S = 165.0    # the whole run must end within 180 s

# Bounded metrics. Stage times are printed but not bounded: on a shared 2-vCPU
# VM the same stage ran up to 1.5x slower from one run to the next while the
# samples within a run agreed, so their spread over ten runs reached 0.3 of
# the median, above the largest bound a metric may have (0.25).
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "train_rss_mb": "MiB",
                    "infer_rss_mb": "MiB"}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": _git_commit(), "src_sha256": _src_digest(),
            "workload": workload, "seed": seed,
            "seeds": {"synth": seed, "footprints": seed, "split": seed,
                      "train": "program default"}}


def child_env() -> dict:
    """This process's environment (BLAS threads already pinned) with src/ importable."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _import_program() -> None:
    """Import the program from this checkout's src/ and the benchmark's helpers.

    BLAS reads its thread count when numpy loads, so the count is pinned
    before anything imports numpy.
    """
    global np, gs, spans, stages, workloads
    os.environ.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import numpy as np
    from vulnaudit import grid_store as gs
    import spans
    import stages
    import workloads


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


class Run:
    """One benchmark invocation: dataset, repetitions, checks, metrics."""

    def __init__(self, workload, seed: int, work: Path, started: float):
        self.workload, self.seed = workload, seed
        self.work, self.started = work, started
        self.data = work / "data"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.info = None
        self.accuracy = float("nan")
        self.unbounded: dict[str, tuple[float, str]] = {}
        self.detail: dict = {}

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def setup(self) -> float:
        """Generate and write the dataset; returns the time it took."""
        shutil.rmtree(self.data, ignore_errors=True)
        start = time.perf_counter()
        self.info = workloads.write_dataset(self.workload, self.seed, self.data)
        elapsed = time.perf_counter() - start
        truth = gs.read_grid_stack(self.data / "ground_truth")
        self.truth = np.stack([g.values for g in truth.grids]).argmax(axis=0)
        heights = gs.read_grid_stack(self.data / "heights")
        self.labels = list(heights.manifest.layer_labels)
        self.built = [g.values > 0 for g in heights.grids]
        return elapsed

    def new_rep(self, tag: str) -> tuple[Path, Path]:
        out, config = self.work / f"out-{tag}", self.work / f"config-{tag}.json"
        workloads.write_config(self.workload, self.seed, self.data, out, config)
        return out, config

    def record(self, tag: str, stage: str, code: int) -> bool:
        """Count one stage run as attempted, and as failed if it exited non-zero."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{tag}: {stage} exited {code}")
        return code == 0

    def verify(self, out: Path, first):
        """Check the outputs under ``out``; each stage whose outputs fail a
        check counts as one more failed stage. Returns the check, or None."""
        try:
            check = stages.check_outputs(out, self.labels, self.truth, self.built)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"{out.name}: outputs unreadable: {exc}")
            self.failed += 1
            return None
        if first is not None:
            stages.compare_digests(first, check)
        if not check.accuracy > 1.0 / workloads.K:
            check.problems["infer"].append(
                f"test accuracy {check.accuracy:.4f} is no better than chance")
        bad = check.failed_stages()
        self.failed += len(bad)
        self.problems += [f"{out.name}: {p}" for s in bad for p in check.problems[s]]
        self.accuracy = check.accuracy
        return check

    def timed(self, seconds: float) -> dict:
        """Set-up plus child-process stages, repeated; end-to-end metrics."""
        env = child_env()
        setups, samples = [], {s: [] for s in stages.STAGES}
        first, reps, totals = None, 0, []
        start = time.perf_counter()
        while reps < MIN_REPS or time.perf_counter() - start < seconds:
            longest = max(setups, default=0.0) + max(totals, default=0.0)
            if self.time_left() < 1.2 * longest:
                break
            setups.append(self.setup())
            tag = str(reps)
            out, config = self.new_rep(tag)
            for stage in stages.STAGES:
                run = stages.run_child(stages.stage_argv(stage, config, out), env,
                                       self.work / f"log-{tag}.txt", self.time_left())
                samples[stage].append(run)
                if not self.record(tag, stage, run.exit_code):
                    break
            else:
                check = self.verify(out, first)
                first = first if first is not None else check
                totals.append(sum(runs[-1].wall_s for runs in samples.values()))
            shutil.rmtree(out, ignore_errors=True)
            reps += 1
        if reps < MIN_REPS:
            self.problems.append(f"only {reps} repetition(s) fit in {DEADLINE_S:.0f} s")
            self.failed += 1

        def med(stage: str, attr: str) -> float:
            return median([getattr(r, attr) for r in samples[stage]])

        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": max(med(s, "rss_mb") for s in stages.STAGES),
            "train_rss_mb": med("train", "rss_mb"),
            "infer_rss_mb": med("infer", "rss_mb"),
        }
        self.unbounded = {"pipeline_s": (median(totals), "s"),
                          **{f"{s}_s": (med(s, "wall_s"), "s") for s in stages.STAGES},
                          "test_accuracy": (self.accuracy, "frac")}
        self.detail = {"setup_s": setups,
                       "samples": {s: [vars(r) for r in runs] for s, runs in samples.items()}}
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    def traced(self) -> dict:
        """In-process pipeline, untraced then traced; per-layer metrics."""
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.setup()
        finally:
            tracer.uninstall()

        walls: dict[str, dict[str, float]] = {}
        first = None
        for mode in ("untraced", "traced"):
            out, config = self.new_rep(mode)
            log = self.work / f"log-{mode}.txt"
            walls[mode] = {}
            if mode == "traced":
                tracer.install()
            try:
                for stage in stages.STAGES:
                    tracer.stage = stage
                    try:
                        walls[mode][stage], code = stages.run_in_process(
                            stages.stage_argv(stage, config, out), log)
                    except Exception as exc:  # report the stage as failed, with its error
                        code = -1
                        self.problems.append(f"{mode}: {stage} raised {exc!r}")
                        with open(log, "a", encoding="utf-8") as fh:
                            fh.write(traceback.format_exc())
                    if not self.record(mode, stage, code):
                        return {}
            finally:
                tracer.uninstall()
            check = self.verify(out, first)
            first = first if first is not None else check

        startup = []
        for _ in range(STARTUP_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import vulnaudit.cli"],
                           env=child_env(), check=True, timeout=max(self.time_left(), 1.0))
            startup.append(time.perf_counter() - start)
        self.detail = {"walls": walls, "startup_s": startup}
        return spans.layer_metrics(tracer, walls["traced"], walls["untraced"],
                                   median(startup), self.info, self.accuracy)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "vulnaudit" / "__init__.py").is_file():
        print(f"error: no vulnaudit sources under {SRC}", file=sys.stderr)
        return 2
    _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    mode = "trace" if args.trace else "run"
    work = WORK / f"{args.workload}-seed{args.seed}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workloads.WORKLOADS[args.workload], args.seed, work, started)
    try:
        metrics = run.traced() if args.trace else run.timed(args.seconds)
    finally:
        shutil.rmtree(run.data, ignore_errors=True)
        for out in work.glob("out-*"):
            shutil.rmtree(out, ignore_errors=True)

    env = environment(args.workload, args.seed)
    correct = run.failed == 0 and not run.problems and bool(metrics)
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed,
              "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (work / "result.json").write_text(json.dumps(
        {**result, "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in run.unbounded.items()},
         "environment": env, "problems": run.problems,
         "dataset": vars(run.info) if run.info else None, "detail": run.detail},
        indent=2) + "\n", encoding="utf-8")

    for problem in run.problems:
        print(f"check failed: {problem}")
    if run.info:
        print(f"dataset: node_frac={run.info.node_frac:.4f} "
              f"churn_frac={run.info.churn_frac:.4f} nodes={run.info.nodes}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in run.unbounded.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (unbounded)")
    print(f"{args.workload} failed_frac = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} stages)")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
