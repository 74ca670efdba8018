"""Command-line pipeline: prepare, train, infer, audit, synth.

Configuration comes from a single JSON file; a few flags override it and the
merged configuration is echoed to the output directory. Exit codes: 0 success,
2 input/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import typing
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
    """One tile of ``prepared/splits.json``: its rectangle in pixels, its
    dominant prior category and its split."""
    x: int
    y: int
    w: int
    h: int
    dominant: int | None
    split: str

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"tile at ({self.x}, {self.y}) is {self.w}x{self.h}")
        if self.split not in SPLIT_NAMES:
            raise ValueError(f"split must be one of {', '.join(SPLIT_NAMES)}, "
                             f"got {self.split!r}")


@dataclass
class SplitsFile:
    """``prepared/splits.json``: the split settings and the tiles in row-major
    order of their origins."""
    tile_size: int
    ratios: tuple[float, float, float]
    seed: int
    tolerance: float
    tiles: list[SplitRow]
    balanced: bool = True


@dataclass
class PrepReport:
    """``prepared/prep_report.json``: the feature normalisation fitted on the
    training tiles, the node count of each timestep and the number of tiles
    per dominant category."""
    norm_mean: float
    norm_std: float
    node_counts: dict[str, int]
    tile_category_histogram: dict[str, int]
    balanced: bool

    def __post_init__(self):
        gb.NormStats(self.norm_mean, self.norm_std)  # raises unless the std is positive


@dataclass
class RunConfig:
    heights: str
    prior_counts: str
    out_dir: str
    tile_size: int = gb.DEFAULT_TILE_SIZE
    split_ratios: tuple[float, float, float] = gb.DEFAULT_SPLIT_RATIOS
    split_seed: int = 0
    split_tolerance: float = gb.DEFAULT_SPLIT_TOLERANCE
    upsample_factor: int = 1
    train: md.TrainConfig = field(default_factory=md.TrainConfig)
    regions: list[Region] = field(default_factory=list)
    min_edge: float = 0.05
    threshold_m: float = au.DEFAULT_CHANGE_THRESHOLD_M

    def __post_init__(self):
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ConfigError("split_ratios must sum to 1")
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


def _echo_config(cfg: RunConfig, command: str) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gs.write_atomic(out / f"{command}_config_echo.json", schema.dumps(cfg))


def _read_heights(cfg: RunConfig) -> gs.GridStack:
    path = Path(cfg.heights)
    if not path.is_dir():
        raise ConfigError(f"heights stack not found: {path}")
    stack = gs.read_grid_stack(path)
    if stack.manifest.kind is not gs.StackKind.HEIGHT_SERIES:
        raise ConfigError(f"{path} is not a HEIGHT_SERIES stack")
    return stack


def _read_field(path: Path, kind: gs.StackKind, timestep: str = "") -> gs.CategoryField:
    """Decode the ``kind`` stack at ``path``; a stack that breaks the
    category-field rule is a ConfigError naming ``path``."""
    stack = gs.read_grid_stack(path)
    try:
        return gs.stack_to_field(stack, kind, timestep)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _prepared_dir(cfg: RunConfig) -> Path:
    prep = cfg.prepared_dir
    if not prep.is_dir():
        raise ConfigError(f"prepared dataset not found: {prep} (run prepare first)")
    return prep


def _check_extent(heights: gs.GridStack, prior_shape: tuple[int, int]) -> None:
    """The heights stack must have the prepared prior's (height, width)."""
    hm = heights.manifest
    ph, pw = prior_shape
    if (hm.height_px, hm.width) != (ph, pw):
        raise ConfigError(f"heights stack is {hm.width}x{hm.height_px} but the prepared "
                          f"prior is {pw}x{ph}; run prepare on this heights stack")


def _load_prepared(cfg: RunConfig) -> tuple[gs.CategoryField, gb.SplitAssignment, gb.NormStats]:
    prep = _prepared_dir(cfg)
    prior = _read_field(prep / "prior_proportions", gs.StackKind.PRIOR_PROPORTIONS)
    splits = _load_splits(prep / "splits.json")
    report = schema.load(PrepReport, prep / "prep_report.json")
    return prior, splits, gb.NormStats(report.norm_mean, report.norm_std)


def _save_splits(splits: gb.SplitAssignment, cfg: RunConfig, path: Path) -> None:
    parts = (splits.train, splits.test, splits.validation)
    rows = [SplitRow(t.origin_x, t.origin_y, t.width, t.height, t.dominant_category, name)
            for name, part in zip(SPLIT_NAMES, parts) for t in part]
    rows.sort(key=lambda r: (r.y, r.x))
    doc = SplitsFile(cfg.tile_size, cfg.split_ratios, cfg.split_seed, cfg.split_tolerance,
                     rows, splits.balanced)
    gs.write_atomic(path, schema.dumps(doc))


def _load_splits(path: Path) -> gb.SplitAssignment:
    """Read ``splits.json`` through the config parser: a row with a value
    of the wrong type or an unknown split is a ConfigError naming ``path``."""
    doc = schema.load(SplitsFile, path)
    parts: dict[str, list[gb.Tile]] = {name: [] for name in SPLIT_NAMES}
    for row in doc.tiles:
        parts[row.split].append(gb.Tile(row.x, row.y, row.w, row.h, row.dominant))
    return gb.SplitAssignment(*parts.values(), balanced=doc.balanced)


def cmd_prepare(cfg: RunConfig) -> int:
    heights = _read_heights(cfg)
    counts_path = Path(cfg.prior_counts)
    if not counts_path.is_dir():
        raise ConfigError(f"prior counts stack not found: {counts_path}")
    counts = gs.read_grid_stack(counts_path)
    coarse = gs.normalize_prior_counts(counts)
    fine = gs.upsample_nearest(coarse, cfg.upsample_factor)
    hm = heights.manifest
    fine_h, fine_w = fine.shape
    if fine_w < hm.width or fine_h < hm.height_px:
        raise ConfigError(
            f"upsampled prior {fine_w}x{fine_h} does not cover "
            f"heights {hm.width}x{hm.height_px}; check upsample_factor")
    if (fine_w, fine_h) != (hm.width, hm.height_px):
        fine = replace(fine, probs=fine.probs[:hm.height_px, :hm.width],
                       valid=fine.valid[:hm.height_px, :hm.width])

    tiles = gb.tile_region(hm.width, hm.height_px, cfg.tile_size)
    splits = gb.split_tiles(tiles, fine, cfg.split_ratios, cfg.split_seed,
                            cfg.split_tolerance)

    node_counts = {label: int(gb.node_mask(g, tiles).sum())
                   for label, g in zip(hm.layer_labels, heights.grids)}
    stats = gb.fit_norm_stats(heights.grids, splits.train)

    histogram: dict[str, int] = {}
    for t in splits.all_tiles():
        key = "NONE" if t.dominant_category is None else fine.categories[t.dominant_category]
        histogram[key] = histogram.get(key, 0) + 1

    prep = cfg.prepared_dir
    prep.mkdir(parents=True, exist_ok=True)
    gs.write_grid_stack(gs.field_to_stack(fine, gs.StackKind.PRIOR_PROPORTIONS),
                        prep / "prior_proportions")
    _save_splits(splits, cfg, prep / "splits.json")
    report = PrepReport(stats.mean, stats.std, node_counts, histogram, splits.balanced)
    gs.write_atomic(prep / "prep_report.json", schema.dumps(report))

    # self-check: every artifact must re-validate on read
    _read_field(prep / "prior_proportions", gs.StackKind.PRIOR_PROPORTIONS)
    _load_splits(prep / "splits.json")
    schema.load(PrepReport, prep / "prep_report.json")
    _echo_config(cfg, "prepare")
    print(f"prepared dataset under {prep}: {sum(node_counts.values())} nodes "
          f"across {len(node_counts)} timesteps, balanced={splits.balanced}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    heights = _read_heights(cfg)
    prior, splits, stats = _load_prepared(cfg)
    _check_extent(heights, prior.shape)
    # float32, the dtype the checkpoint stores: it holds the trained weights bit for bit
    params = md.ModelParams.initialize(f_dim=gb.NODE_FEATURES, k_cats=prior.k,
                                       seed=cfg.train.seed).astype(np.float32)
    result = md.train(params, heights, prior, splits, cfg.train, stats)

    out = Path(cfg.out_dir)
    md.save_checkpoint(out / "checkpoint", result.params, result.norm_stats, cfg.train)
    lines = ["epoch,train_rec,train_kl,train_ce,train_total,"
             "val_rec,val_kl,val_ce,val_total"]
    for row in result.history:
        t, v = row.train, row.val
        lines.append(",".join([str(row.epoch)] +
                              [repr(x) for x in (t.rec, t.kl, t.ce, t.total,
                                                 v.rec, v.kl, v.ce, v.total)]))
    gs.write_atomic(out / "losses.csv", "\n".join(lines) + "\n")

    md.load_checkpoint(out / "checkpoint")  # self-check
    _echo_config(cfg, "train")
    if result.history:
        last = result.history[-1]
        print(f"epoch {last.epoch}: train total {last.train.total:.6f} "
              f"(rec {last.train.rec:.6f}, kl {last.train.kl:.6f}, ce {last.train.ce:.6f}); "
              f"val total {last.val.total:.6f}")
    else:
        print("epochs=0: checkpoint holds the initial parameters")
    return 0


def cmd_infer(cfg: RunConfig, checkpoint: str) -> int:
    heights = _read_heights(cfg)
    ckpt_path = Path(checkpoint)
    if not ckpt_path.is_dir():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    params, stats, _ = md.load_checkpoint(ckpt_path)
    # the extent and category labels are all infer needs of the prepared prior
    prior = gs.read_manifest(_prepared_dir(cfg) / "prior_proportions")
    _check_extent(heights, (prior.height_px, prior.width))
    categories = prior.layer_labels
    if len(categories) != params.k_cats:
        raise ConfigError(f"checkpoint has {params.k_cats} categories, "
                          f"prior has {len(categories)}")
    out = Path(cfg.out_dir) / "posteriors"
    for label, grid in zip(heights.manifest.layer_labels, heights.grids):
        post = md.infer_posterior(params, grid, stats, categories, timestep=label)
        gs.write_grid_stack(gs.field_to_stack(post, gs.StackKind.POSTERIOR), out / label)
        _read_field(out / label, gs.StackKind.POSTERIOR, label)  # self-check
    _echo_config(cfg, "infer")
    print(f"wrote {len(heights.grids)} posterior stacks under {out}")
    return 0


def _load_posteriors(posteriors_dir: Path, labels: list[str],
                     prior: gs.CategoryField) -> list[gs.CategoryField]:
    """Each timestep's posterior; one whose categories (in order) or extent
    are not the prior's is a ConfigError naming its stack."""
    fields = []
    for label in labels:
        path = posteriors_dir / label
        if not path.is_dir():
            raise ConfigError(f"posterior stack not found: {path}")
        post = _read_field(path, gs.StackKind.POSTERIOR, label)
        if post.categories != prior.categories:
            raise ConfigError(f"{path}: categories {post.categories} are not the "
                              f"prepared prior's {prior.categories}")
        if post.shape != prior.shape:
            (h, w), (ph, pw) = post.shape, prior.shape
            raise ConfigError(f"{path}: extent {w}x{h} is not the prepared prior's {pw}x{ph}")
        fields.append(post)
    return fields


def cmd_audit(cfg: RunConfig, posteriors_dir: str) -> int:
    heights = _read_heights(cfg)
    hm = heights.manifest
    regions = cfg.regions or [Region(0, 0, hm.width, hm.height_px, "full")]
    for region in regions:
        au.check_region(region.rect, hm.width, hm.height_px)
    # the prior is all audit needs of the prepared dataset
    prior = _read_field(_prepared_dir(cfg) / "prior_proportions",
                        gs.StackKind.PRIOR_PROPORTIONS)
    _check_extent(heights, prior.shape)
    labels = list(hm.layer_labels)
    # consecutive timesteps name both the change maps and the transitions
    pairs = [f"{a}_to_{b}" for a, b in zip(labels, labels[1:])]
    posteriors = _load_posteriors(Path(posteriors_dir), labels, prior)
    out = Path(cfg.out_dir) / "audit"
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    transitions: dict[str, dict] = {}

    def write_maps(prefix: str, names: list[str], grids: list[gs.RasterGrid],
                   kind: gs.StackKind) -> None:
        """Each grid's heatmap, then their stack, re-read as a self-check."""
        for name, grid in zip(names, grids):
            au.write_ppm_heatmap(grid, out / f"{prefix}_{name}.ppm")
            artifacts.append(f"{prefix}_{name}.ppm")
        gs.write_grid_stack(au.maps_to_stack(grids, names, kind), out / f"{prefix}_maps")
        gs.read_grid_stack(out / f"{prefix}_maps")
        artifacts.append(f"{prefix}_maps")

    write_maps("ad", labels, [au.ad_map(prior, post).grid for post in posteriors],
               gs.StackKind.AD_MAP)
    if pairs:
        write_maps("change", pairs, [au.change_map(a, b, cfg.threshold_m).grid
                                     for a, b in zip(heights.grids, heights.grids[1:])],
                   gs.StackKind.CHANGE_MAP)
    del heights, prior  # only the map families read them

    for region in regions:
        trend = au.regional_trend(posteriors, region.rect)
        au.write_trend_csv(trend, out / f"trend_{region.name}.csv")
        artifacts.append(f"trend_{region.name}.csv")

    if not pairs:
        print("warning: fewer than 2 timesteps, transition outputs disabled",
              file=sys.stderr)
    else:
        matrices = {name: au.transition_matrix([a, b], "one_step")
                    for name, a, b in zip(pairs, posteriors, posteriors[1:])}
        matrices["averaged"] = au.transition_matrix(posteriors, "averaged")
        for name, tm in matrices.items():
            au.write_transition_csv(tm, out / f"transition_{name}.csv")
            au.write_transition_csv(tm, out / f"transition_{name}_raw.csv", which="raw")
            gs.write_atomic(out / f"transition_{name}.dot",
                            au.transition_to_dot(tm, cfg.min_edge))
            artifacts += [f"transition_{name}.csv", f"transition_{name}_raw.csv",
                          f"transition_{name}.dot"]
            transitions[name] = {"period": tm.period, "zero_mass_rows": tm.zero_mass_rows}

    gs.write_atomic(out / "index.json",
                    schema.dumps({"artifacts": artifacts, "transitions": transitions}))
    _echo_config(cfg, "audit")
    print(f"wrote {len(artifacts)} audit artifacts under {out}")
    return 0


def cmd_synth(spec_path: str, out_dir: str) -> int:
    # imported here: the other commands need neither the generator nor the
    # scipy.ndimage it loads (about 5 MiB of each stage's peak RSS)
    from . import synth as sy
    spec = schema.load(sy.SyntheticSpec, spec_path)
    paths = sy.write_dataset(spec, out_dir)
    for path in paths.values():
        gs.read_grid_stack(path)  # self-check
    gs.write_atomic(Path(out_dir) / "synth_config_echo.json", schema.dumps(spec))
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
