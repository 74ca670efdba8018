"""Command-line pipeline: prepare, train, infer, audit, synth.

Configuration comes from a single JSON file; a few flags override it and the
merged configuration is echoed to the output directory. Exit codes: 0 success,
2 input/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import audit as au
from . import graph_build as gb
from . import grid_store as gs
from . import model as md
from . import schema
from .numcore import NonFiniteError
from .schema import ConfigError


@dataclass
class Region:
    """A regional-trend rectangle in pixels; ``name`` defaults to
    ``r{x}_{y}`` and names the audit file ``trend_{name}.csv``."""
    x: int
    y: int
    width: int
    height: int
    name: str | None = None

    def __post_init__(self):
        if self.name is None:
            self.name = f"r{self.x}_{self.y}"
        if not gs.usable_label(self.name):
            raise ValueError(f"unusable region name {self.name!r}")

    @property
    def rect(self) -> tuple[int, int, int, int]:
        return self.x, self.y, self.width, self.height


SPLIT_NAMES = ("train", "test", "validation")


@dataclass
class SplitRow:
    """One tile of ``prepared/splits.json``: its rectangle in pixels and its
    split."""
    x: int
    y: int
    w: int
    h: int
    split: str

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"tile at ({self.x}, {self.y}) is {self.w}x{self.h}")
        if self.split not in SPLIT_NAMES:
            raise ValueError(f"split must be one of {', '.join(SPLIT_NAMES)}, "
                             f"got {self.split!r}")


@dataclass
class SplitsFile:
    """``prepared/splits.json``: the tiles in row-major order of their
    origins, and whether each split's category mix met the tolerance."""
    tiles: list[SplitRow]
    balanced: bool


@dataclass
class PrepReport:
    """``prepared/prep_report.json``: the feature normalisation fitted on the
    training tiles, the node count of each timestep and the number of tiles
    per dominant category."""
    norm: gb.NormStats
    node_counts: dict[str, int]
    tile_category_histogram: dict[str, int]


@dataclass
class RunConfig:
    heights: str
    prior_counts: str
    out_dir: str
    tile_size: int = gb.DEFAULT_TILE_SIZE
    split_seed: int = 0
    upsample_factor: int = 1
    train: md.TrainConfig = field(default_factory=md.TrainConfig)
    regions: list[Region] = field(default_factory=list)
    min_edge: float = 0.05
    threshold_m: float = au.DEFAULT_CHANGE_THRESHOLD_M

    def __post_init__(self):
        if self.tile_size < 1:
            raise ConfigError("tile_size must be >= 1")
        if self.split_seed < 0:
            raise ConfigError("split_seed must be non-negative")
        if self.upsample_factor < 1:
            raise ConfigError("upsample_factor must be >= 1")
        if self.threshold_m <= 0:
            raise ConfigError("threshold_m must be positive")
        if not 0 <= self.min_edge <= 1:
            raise ConfigError(f"min_edge must lie in [0, 1], got {self.min_edge!r}")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate region names in {names}: each names a trend file")

    @property
    def prepared_dir(self) -> Path:
        return Path(self.out_dir) / "prepared"


# CLI flags that override a key of the ``train`` section
_TRAIN_FLAGS = {"epochs": "epochs", "seed": "seed", "lr": "learning_rate"}


def load_run_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """The config file, parsed on its own, with each given flag applied on
    top; a bad flag value is a ConfigError naming the flag, not the file."""
    cfg = schema.load(RunConfig, path)
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name in _TRAIN_FLAGS:
            cfg = replace(cfg, train=_override(cfg.train, _TRAIN_FLAGS[name], value, flag))
        else:
            cfg = _override(cfg, name, value, flag)
    return cfg


def _override(config, key: str, value, flag: str):
    """``config`` with field ``key`` set to the value of ``flag``, converted and
    range-checked as the file's value would be."""
    value = schema.convert(typing.get_type_hints(type(config))[key], value, flag)
    try:
        return replace(config, **{key: value})  # re-runs __post_init__'s rules
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{flag}: bad value: {exc}") from exc


@contextmanager
def _echoed(out_dir: str | Path, command: str, config) -> Iterator[None]:
    """Around a command's publishes: its previous ``<command>_config_echo.json``
    goes before the first, and ``config`` is echoed after the last, so a rerun
    that fails in between leaves no echo of another run's config."""
    echo = Path(out_dir) / f"{command}_config_echo.json"
    echo.unlink(missing_ok=True)
    yield  # every publish makes out_dir
    gs.write_atomic(echo, schema.dumps(config))


def _read_field(path: Path, kind: gs.StackKind, timestep: str = "") -> gs.CategoryField:
    """Decode the ``kind`` stack at ``path``; a stack that breaks the
    category-field rule is a ConfigError naming ``path``."""
    stack = gs.read_grid_stack(path, kind)
    try:
        return gs.stack_to_field(stack, kind, timestep)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _prepared_dir(cfg: RunConfig) -> Path:
    prep = cfg.prepared_dir
    if not prep.is_dir():
        raise ConfigError(f"prepared dataset not found: {prep} (run prepare first)")
    return prep


def _check_extent(path: str | Path, m: gs.StackManifest,
                  prior_shape: tuple[int, int]) -> None:
    """The stack at ``path``, of manifest ``m``, must have the prepared
    prior's (height, width)."""
    ph, pw = prior_shape
    if (m.height_px, m.width) != (ph, pw):
        raise ConfigError(f"{path}: extent {m.width}x{m.height_px} is not the "
                          f"prepared prior's {pw}x{ph}")


def _load_prepared(cfg: RunConfig) -> tuple[gs.CategoryField, gb.SplitAssignment, gb.NormStats]:
    prep = _prepared_dir(cfg)
    prior = _read_field(prep / "prior_proportions", gs.StackKind.PRIOR_PROPORTIONS)
    splits = _load_splits(prep / "splits.json")
    return prior, splits, schema.load(PrepReport, prep / "prep_report.json").norm


def _save_splits(splits: gb.SplitAssignment, path: Path) -> None:
    parts = (splits.train, splits.test, splits.validation)
    rows = [SplitRow(t.origin_x, t.origin_y, t.width, t.height, name)
            for name, part in zip(SPLIT_NAMES, parts) for t in part]
    rows.sort(key=lambda r: (r.y, r.x))
    gs.write_atomic(path, schema.dumps(SplitsFile(rows, splits.balanced)))


def _load_splits(path: Path) -> gb.SplitAssignment:
    """Read ``splits.json`` through the config parser: a row with a value
    of the wrong type or an unknown split is a ConfigError naming ``path``."""
    doc = schema.load(SplitsFile, path)
    parts: dict[str, list[gb.Tile]] = {name: [] for name in SPLIT_NAMES}
    for row in doc.tiles:
        parts[row.split].append(gb.Tile(row.x, row.y, row.w, row.h))
    return gb.SplitAssignment(*parts.values(), balanced=doc.balanced)


def cmd_prepare(cfg: RunConfig) -> int:
    heights = gs.read_grid_stack(cfg.heights, gs.StackKind.HEIGHT_SERIES)
    counts_path = Path(cfg.prior_counts)
    counts = gs.read_grid_stack(counts_path, gs.StackKind.PRIOR_COUNTS)
    try:
        coarse = gs.normalize_prior_counts(counts)
    except ValueError as exc:
        raise ConfigError(f"{counts_path}: {exc}") from exc
    # the upsampled prior must cover the heights and overhang them by less
    # than one block: a coarser or finer prior would be misregistered
    hm, f = heights.manifest, cfg.upsample_factor
    (coarse_h, coarse_w), blocks = coarse.shape, (-(-hm.width // f), -(-hm.height_px // f))
    if (coarse_w, coarse_h) != blocks:
        raise ConfigError(
            f"{counts_path}: prior counts {coarse_w}x{coarse_h} upsampled by "
            f"upsample_factor {f} do not fit heights {hm.width}x{hm.height_px}: "
            f"expected {blocks[0]}x{blocks[1]} blocks")
    fine = gs.upsample_nearest(coarse, f)
    if fine.shape != (hm.height_px, hm.width):
        fine = replace(fine, probs=fine.probs[:hm.height_px, :hm.width],
                       valid=fine.valid[:hm.height_px, :hm.width])

    tiles = gb.tile_region(hm.width, hm.height_px, cfg.tile_size)
    splits = gb.split_tiles(tiles, fine, seed=cfg.split_seed)

    node_counts = {label: int(gb.node_mask(g, tiles).sum())
                   for label, g in zip(hm.layer_labels, heights.grids)}
    stats = gb.fit_norm_stats(heights.grids, splits.train)

    histogram: dict[str, int] = {}
    for t in splits.all_tiles():
        key = gs.NONE_LABEL if t.dominant_category is None else fine.categories[t.dominant_category]
        histogram[key] = histogram.get(key, 0) + 1

    prep = cfg.prepared_dir
    # staged, then swapped in whole: a failed rerun leaves no new splits beside an old report
    with _echoed(cfg.out_dir, "prepare", cfg), gs.staged_dir(prep) as stage:
        gs.write_grid_stack(gs.field_to_stack(fine, gs.StackKind.PRIOR_PROPORTIONS),
                            stage / "prior_proportions")
        _save_splits(splits, stage / "splits.json")
        report = PrepReport(stats, node_counts, histogram)
        gs.write_atomic(stage / "prep_report.json", schema.dumps(report))
        # self-check: every artifact must re-validate on read
        _read_field(stage / "prior_proportions", gs.StackKind.PRIOR_PROPORTIONS)
        _load_splits(stage / "splits.json")
        schema.load(PrepReport, stage / "prep_report.json")
    print(f"prepared dataset under {prep}: {sum(node_counts.values())} nodes "
          f"across {len(node_counts)} timesteps, balanced={splits.balanced}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    heights = gs.read_grid_stack(cfg.heights, gs.StackKind.HEIGHT_SERIES)
    prior, splits, stats = _load_prepared(cfg)
    _check_extent(cfg.heights, heights.manifest, prior.shape)
    # float32, the dtype the checkpoint stores: it holds the trained weights bit for bit
    params = md.ModelParams.initialize(f_dim=gb.NODE_FEATURES, k_cats=prior.k,
                                       seed=cfg.train.seed).astype(np.float32)
    result = md.train(params, heights, prior, splits, cfg.train, stats)

    lines = ["epoch,train_rec,train_kl,train_ce,train_total,"
             "val_rec,val_kl,val_ce,val_total"]
    no_val = md.LossBreakdown(*[float("nan")] * 4)  # no validation node: no loss
    for row in result.history:
        t, v = row.train, row.val or no_val
        lines.append(",".join([str(row.epoch)] +
                              [repr(x) for x in (t.rec, t.kl, t.ce, t.total,
                                                 v.rec, v.kl, v.ce, v.total)]))
    out = Path(cfg.out_dir)
    with _echoed(out, "train", cfg):
        # gone before the checkpoint is replaced: a rerun that fails at either
        # write leaves no losses of another checkpoint
        (out / "losses.csv").unlink(missing_ok=True)
        md.save_checkpoint(out / "checkpoint", result.params, result.norm_stats, cfg.train)
        gs.write_atomic(out / "losses.csv", "\n".join(lines) + "\n")
        md.load_checkpoint(out / "checkpoint")  # self-check
    if result.history:
        last = result.history[-1]
        val = ("no validation nodes, val columns nan" if last.val is None
               else f"val total {last.val.total:.6f}")
        print(f"epoch {last.epoch}: train total {last.train.total:.6f} "
              f"(rec {last.train.rec:.6f}, kl {last.train.kl:.6f}, ce {last.train.ce:.6f}); "
              f"{val}")
    else:
        print("epochs=0: checkpoint holds the initial parameters")
    return 0


def cmd_infer(cfg: RunConfig, checkpoint: str) -> int:
    heights = gs.read_grid_stack(cfg.heights, gs.StackKind.HEIGHT_SERIES)
    ckpt_path = Path(checkpoint)
    if not ckpt_path.is_dir():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    params, stats, _ = md.load_checkpoint(ckpt_path)
    # the kind, extent and category labels are all infer needs of the prepared prior
    prior_path = _prepared_dir(cfg) / "prior_proportions"
    prior = gs.read_manifest(prior_path, gs.StackKind.PRIOR_PROPORTIONS)
    _check_extent(cfg.heights, heights.manifest, (prior.height_px, prior.width))
    categories = prior.layer_labels
    if (params.f_dim, params.k_cats) != (gb.NODE_FEATURES, len(categories)):
        raise ConfigError(
            f"{ckpt_path / 'manifest.json'}: f_dim {params.f_dim} and k_cats "
            f"{params.k_cats} do not fit {gb.NODE_FEATURES} feature per node and the "
            f"{len(categories)} categories of the prepared prior {prior_path}")
    out = Path(cfg.out_dir) / "posteriors"
    # every timestep is written into a staged directory that then replaces
    # ``out``, so a run that fails part-way leaves the previous posteriors
    # whole, never new timesteps beside old ones
    with _echoed(cfg.out_dir, "infer", cfg), gs.staged_dir(out) as stage:
        for label, grid in zip(heights.manifest.layer_labels, heights.grids):
            # unnamed, the posterior is freed once its stack is built and the
            # stack once written, before the self-check decode and the next
            # inference
            gs.write_grid_stack(gs.field_to_stack(
                md.infer_posterior(params, grid, stats, categories, timestep=label),
                gs.StackKind.POSTERIOR), stage / label)
            _read_field(stage / label, gs.StackKind.POSTERIOR, label)  # self-check
    print(f"wrote {len(heights.grids)} posterior stacks under {out}")
    return 0


def cmd_audit(cfg: RunConfig, posteriors_dir: str) -> int:
    heights = gs.read_grid_stack(cfg.heights, gs.StackKind.HEIGHT_SERIES)
    hm = heights.manifest
    regions = cfg.regions or [Region(0, 0, hm.width, hm.height_px, "full")]
    for region in regions:
        au.check_region(region.rect, hm.width, hm.height_px)
    # the prior is all audit needs of the prepared dataset
    prior = _read_field(_prepared_dir(cfg) / "prior_proportions",
                        gs.StackKind.PRIOR_PROPORTIONS)
    _check_extent(cfg.heights, hm, prior.shape)
    labels, categories = list(hm.layer_labels), prior.categories
    posteriors = Path(posteriors_dir)
    for label in labels:  # every manifest is checked before anything is written
        path = posteriors / label
        m = gs.read_manifest(path, gs.StackKind.POSTERIOR)
        if m.layer_labels != categories:
            raise ConfigError(f"{path}: categories {m.layer_labels} are not the "
                              f"prepared prior's {categories}")
        _check_extent(path, m, prior.shape)
    # consecutive timesteps name both the change maps and the transitions
    pairs = [f"{a}_to_{b}" for a, b in zip(labels, labels[1:])]
    change_grids = [au.change_map(a, b, cfg.threshold_m).grid
                    for a, b in zip(heights.grids, heights.grids[1:])]
    del heights  # only the change maps read them
    ad_grids, means = [], [[] for _ in regions]  # filled as each posterior is read

    def read_posterior(label: str) -> gs.CategoryField:
        """Timestep ``label``'s posterior; its AD map and region means are
        taken as it is read."""
        post = _read_field(posteriors / label, gs.StackKind.POSTERIOR, label)
        ad_grids.append(au.ad_map(prior, post).grid)
        for rows, region in zip(means, regions):
            rows.append(au.region_mean(post, region.rect))
        return post

    out = Path(cfg.out_dir) / "audit"
    artifacts: list[str] = []
    transitions: dict[str, dict] = {}
    # the audit is written whole into a staged directory that then replaces
    # ``out``, so no file of an earlier run survives beside this run's index
    with _echoed(cfg.out_dir, "audit", cfg), gs.staged_dir(out) as stage:
        # one pass: each posterior is read once, in timestep order, and is
        # freed before the next one is read
        matrices = au.transition_matrices(map(read_posterior, labels))
        del prior  # only the AD maps read it

        def write_maps(prefix: str, names: list[str], grids: list[gs.RasterGrid],
                       kind: gs.StackKind) -> None:
            """Each grid's heatmap, then their stack, re-read as a self-check."""
            for name, grid in zip(names, grids):
                au.write_ppm_heatmap(grid, stage / f"{prefix}_{name}.ppm")
                artifacts.append(f"{prefix}_{name}.ppm")
            gs.write_grid_stack(au.maps_to_stack(grids, names, kind), stage / f"{prefix}_maps")
            gs.read_grid_stack(stage / f"{prefix}_maps")
            artifacts.append(f"{prefix}_maps")

        write_maps("ad", labels, ad_grids, gs.StackKind.AD_MAP)
        if pairs:
            write_maps("change", pairs, change_grids, gs.StackKind.CHANGE_MAP)

        for region, rows in zip(regions, means):
            au.write_trend_csv(labels, categories, np.array(rows),
                               stage / f"trend_{region.name}.csv")
            artifacts.append(f"trend_{region.name}.csv")

        if not pairs:
            print("warning: fewer than 2 timesteps, transition outputs disabled",
                  file=sys.stderr)
        # each pair's matrix in order, then the averaged one
        for name, tm in zip(pairs + ["averaged"], matrices):
            au.write_transition_csv(tm, stage / f"transition_{name}.csv")
            au.write_transition_csv(tm, stage / f"transition_{name}_raw.csv", which="raw")
            gs.write_atomic(stage / f"transition_{name}.dot",
                            au.transition_to_dot(tm, cfg.min_edge))
            artifacts += [f"transition_{name}.csv", f"transition_{name}_raw.csv",
                          f"transition_{name}.dot"]
            transitions[name] = {"period": tm.period, "zero_mass_rows": tm.zero_mass_rows}

        gs.write_atomic(stage / "index.json",
                        schema.dumps({"artifacts": artifacts, "transitions": transitions}))
    print(f"wrote {len(artifacts)} audit artifacts under {out}")
    return 0


def cmd_synth(spec_path: str, out_dir: str) -> int:
    # imported here: the other commands need neither the generator nor the
    # scipy.ndimage it loads (about 5 MiB of each stage's peak RSS)
    from . import synth as sy
    spec = schema.load(sy.SyntheticSpec, spec_path)
    with _echoed(out_dir, "synth", spec):
        paths = sy.write_dataset(spec, out_dir)
        for path in paths.values():
            gs.read_grid_stack(path)  # self-check
    print(f"wrote synthetic dataset under {out_dir}: "
          + ", ".join(sorted(p.name for p in paths.values())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnaudit",
        description="Weakly supervised vulnerability mapping and change auditing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="normalize the prior and build splits")
    p.add_argument("--config", required=True)

    p = sub.add_parser("train", help="train the model on the prepared dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)

    p = sub.add_parser("infer", help="write posterior stacks per timestep")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("audit", help="distance/change maps, trends, transitions")
    p.add_argument("--config", required=True)
    p.add_argument("--posteriors", required=True)
    p.add_argument("--min-edge", type=float, dest="min_edge")
    p.add_argument("--threshold-m", type=float, dest="threshold_m")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.spec, args.out)
        overrides = {}
        if args.command == "train":
            overrides = {"epochs": args.epochs, "seed": args.seed, "lr": args.lr}
        elif args.command == "audit":
            overrides = {"min_edge": args.min_edge, "threshold_m": args.threshold_m}
        cfg = load_run_config(args.config, overrides)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "infer":
            return cmd_infer(cfg, args.checkpoint)
        return cmd_audit(cfg, args.posteriors)
    except NonFiniteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
