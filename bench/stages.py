"""Running the CLI stages and checking what they wrote.

``run_child`` runs one stage the way a user does, as its own
``python -m vulnaudit.cli`` process, and takes the wall time and that
child's own peak RSS from ``os.wait4``. ``run_in_process`` calls
``cli.main`` in this process, for the traced comparison. ``check_outputs``
holds the output checks made after every repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vulnaudit import cli
from vulnaudit import grid_store as gs
from vulnaudit import model as md

STAGES = ("prepare", "train", "infer", "audit")
ROW_SUM_TOL = 1e-6  # transition CSVs hold 9 significant digits


@dataclass
class StageRun:
    stage: str
    wall_s: float
    rss_mb: float
    exit_code: int


def stage_argv(stage: str, config: Path, out_dir: Path) -> list[str]:
    argv = [stage, "--config", str(config)]
    if stage == "infer":
        argv += ["--checkpoint", str(out_dir / "checkpoint")]
    elif stage == "audit":
        argv += ["--posteriors", str(out_dir / "posteriors")]
    return argv


def run_child(argv: list[str], env: dict, log_path: Path, timeout_s: float) -> StageRun:
    """Run one CLI stage in a child process; kill it after ``timeout_s``."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "vulnaudit.cli", *argv],
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        status = usage = None
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = bool(select.select([pidfd], [], [], max(timeout_s, 0.0))[0])
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if status is None:  # interrupted: stop the child before leaving
                proc.kill()
                os.wait4(proc.pid, 0)
            proc.returncode = -9 if status is None else os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
    return StageRun(argv[0], wall, usage.ru_maxrss / 1024.0,
                    proc.returncode if exited else -9)


def run_in_process(argv: list[str], log_path: Path) -> tuple[float, int]:
    """Call ``cli.main(argv)`` here with its output sent to ``log_path``."""
    with open(log_path, "a", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - start, code


@dataclass
class OutputCheck:
    """Problems found per stage, test accuracy and determinism digests."""

    problems: dict[str, list[str]] = field(default_factory=lambda: {s: [] for s in STAGES})
    accuracy: float = float("nan")
    digests: dict[str, str] = field(default_factory=dict)

    def failed_stages(self) -> list[str]:
        return [s for s in STAGES if self.problems[s]]


def _test_mask(splits_path: Path, shape: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for row in json.loads(splits_path.read_text(encoding="utf-8"))["tiles"]:
        if row["split"] == "test":
            mask[row["y"]:row["y"] + row["h"], row["x"]:row["x"] + row["w"]] = True
    return mask


def _expected_audit(labels: list[str]) -> tuple[list[str], list[str]]:
    """Artifact names audit/index.json must list, and transition names."""
    pairs = [f"{a}_to_{b}" for a, b in zip(labels, labels[1:])]
    artifacts = [f"ad_{t}.ppm" for t in labels] + ["ad_maps"]
    transitions = pairs + ["averaged"] if pairs else []
    if pairs:
        artifacts += [f"change_{p}.ppm" for p in pairs] + ["change_maps"]
    artifacts.append("trend_full.csv")
    for name in transitions:
        artifacts += [f"transition_{name}.csv", f"transition_{name}_raw.csv",
                      f"transition_{name}.dot"]
    return artifacts, transitions


def _audit_problems(audit_dir: Path, labels: list[str]) -> list[str]:
    artifacts, transitions = _expected_audit(labels)
    index = json.loads((audit_dir / "index.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(index["artifacts"]) != sorted(artifacts):
        problems.append("audit/index.json does not list the expected artifacts")
    if sorted(index["transitions"]) != sorted(transitions):
        problems.append("audit/index.json does not list the expected transitions")
    problems += [f"missing audit/{a}" for a in artifacts if not (audit_dir / a).exists()]
    for name in transitions:
        lines = (audit_dir / f"transition_{name}.csv").read_text(encoding="utf-8").split()
        for line in lines[1:]:
            row_sum = sum(float(v) for v in line.split(",")[1:])
            if abs(row_sum - 1.0) > ROW_SUM_TOL:
                problems.append(f"transition_{name}.csv row sums to {row_sum!r}")
    return problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out_dir: Path, labels: list[str], truth: np.ndarray,
                  built: list[np.ndarray]) -> OutputCheck:
    """Check one repetition's outputs.

    ``truth`` is the hidden (H, W) category map and ``built[t]`` the node
    pixels (height > 0) of timestep t. Test accuracy is the share of node
    pixels in test tiles whose posterior argmax equals the truth, averaged
    over timesteps.
    """
    check = OutputCheck()
    test = _test_mask(out_dir / "prepared" / "splits.json", truth.shape)
    accs = []
    for label, nodes_t in zip(labels, built):
        try:
            post = md.stack_to_posterior(
                gs.read_grid_stack(out_dir / "posteriors" / label), label)
        except (ValueError, OSError) as exc:
            check.problems["infer"].append(f"posterior {label}: {exc}")
            continue
        nodes = test & post.valid & nodes_t
        if not nodes.any():
            check.problems["infer"].append(f"posterior {label}: no test node pixels")
            continue
        accs.append(float((post.probs.argmax(axis=2)[nodes] == truth[nodes]).mean()))
    if len(accs) == len(labels):
        check.accuracy = float(np.mean(accs))

    try:
        check.problems["audit"] += _audit_problems(out_dir / "audit", labels)
    except (OSError, ValueError, KeyError) as exc:
        check.problems["audit"].append(f"audit outputs unreadable: {exc}")

    compared = [out_dir / "losses.csv", *sorted((out_dir / "checkpoint").glob("*")),
                *sorted((out_dir / "audit").glob("transition_*.csv"))]
    for path in compared:
        check.digests[str(path.relative_to(out_dir))] = _sha256(path)
    return check


def compare_digests(first: OutputCheck, later: OutputCheck) -> None:
    """Record in ``later`` every determinism artifact that differs from ``first``."""
    for rel in sorted(set(first.digests) | set(later.digests)):
        if first.digests.get(rel) != later.digests.get(rel):
            stage = "audit" if rel.startswith("audit/") else "train"
            later.problems[stage].append(f"{rel} differs from the first repetition")
