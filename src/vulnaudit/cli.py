"""Command-line pipeline: prepare, train, infer, audit, synth.

Configuration comes from a single JSON file, which is echoed, with its
defaults filled in, to the output directory. Exit codes: 0 success,
2 input/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
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
    """A regional-trend rectangle in pixels, with a non-negative origin and
    a positive size; ``name`` defaults to ``r{x}_{y}`` and names the audit
    file ``trend_{name}.csv``. Whether it lies inside the heights is
    checked by audit, which reads them."""
    x: int
    y: int
    width: int
    height: int
    name: str | None = None

    def __post_init__(self):
        if self.name is None:
            self.name = f"r{self.x}_{self.y}"
        if self.x < 0 or self.y < 0 or self.width < 1 or self.height < 1:
            raise ValueError(f"region {self.name!r} {self.rect} out of bounds: x and y must "
                             f"be >= 0, width and height >= 1")
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
    """``prepared/prep_report.json``: node counts per timestep, tiles per dominant category."""
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

    def __post_init__(self):
        if self.tile_size < 1:
            raise ConfigError("tile_size must be >= 1")
        if self.split_seed < 0:
            raise ConfigError("split_seed must be non-negative")
        if self.upsample_factor < 1:
            raise ConfigError("upsample_factor must be >= 1")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate region names in {names}: each names a trend file")

    @property
    def prepared_dir(self) -> Path:
        return Path(self.out_dir) / "prepared"


@contextmanager
def _echoed(out_dir: str | Path, command: str, config,
            staged: Path | None = None) -> Iterator[Path | None]:
    """Around a command's publishes: the old ``<command>_config_echo.json`` goes
    before the block or, given ``staged``, once ``gs.staged_dir(staged)`` has
    swapped its directory in, so a failed rerun keeps outputs and echo
    together; ``config`` is echoed last."""
    echo = Path(out_dir) / f"{command}_config_echo.json"
    if staged is None:
        echo.unlink(missing_ok=True)
    with gs.staged_dir(staged) if staged else nullcontext() as stage:
        yield stage  # every publish makes out_dir
    echo.unlink(missing_ok=True)
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


def _load_prepared(cfg: RunConfig, heights: gs.StackManifest
                   ) -> tuple[gs.CategoryField, gb.SplitAssignment]:
    """The prepared prior and splits, for the heights of manifest ``heights``:
    the prior must have their extent and each tile must lie inside it."""
    prep = _prepared_dir(cfg)
    prior = _read_field(prep / "prior_proportions", gs.StackKind.PRIOR_PROPORTIONS)
    _check_extent(cfg.heights, heights, prior.shape)
    return prior, _load_splits(prep / "splits.json", prior.shape)


def _save_splits(splits: gb.SplitAssignment, path: Path) -> None:
    parts = (splits.train, splits.test, splits.validation)
    rows = [SplitRow(t.origin_x, t.origin_y, t.width, t.height, name)
            for name, part in zip(SPLIT_NAMES, parts) for t in part]
    rows.sort(key=lambda r: (r.y, r.x))
    gs.write_atomic(path, schema.dumps(SplitsFile(rows, splits.balanced)))


def _load_splits(path: Path, extent: tuple[int, int] | None = None) -> gb.SplitAssignment:
    """Read ``splits.json`` through the config parser: a row with a value
    of the wrong type or an unknown split is a ConfigError naming ``path``.
    Given the (height, width) ``extent`` of the heights, so is a row that
    leaves it or overlaps an earlier row."""
    doc = schema.load(SplitsFile, path)
    if extent is not None:
        height_px, width = extent
        covered = np.zeros(extent, dtype=bool)
        for i, row in enumerate(doc.tiles):
            where = f"{path}: tile {i} ({row.w}x{row.h} at x={row.x}, y={row.y})"
            if row.x < 0 or row.y < 0 or row.x + row.w > width or row.y + row.h > height_px:
                raise ConfigError(f"{where} leaves the {width}x{height_px} heights extent")
            cells = covered[row.y:row.y + row.h, row.x:row.x + row.w]
            if cells.any():
                raise ConfigError(f"{where} overlaps an earlier tile")
            cells[...] = True
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
    dominants = gb.dominant_categories(tiles, fine)
    splits = gb.split_tiles(tiles, dominants, seed=cfg.split_seed)

    node_counts = {label: int(gb.node_mask(g, tiles).sum())
                   for label, g in zip(hm.layer_labels, heights.grids)}

    histogram = Counter(gs.NONE_LABEL if d is None else fine.categories[d] for d in dominants)

    prep = cfg.prepared_dir
    # staged, then swapped in whole: a failed rerun leaves no new splits beside an old report
    with _echoed(cfg.out_dir, "prepare", cfg, prep) as stage:
        gs.write_grid_stack(gs.field_to_stack(fine, gs.StackKind.PRIOR_PROPORTIONS),
                            stage / "prior_proportions")
        _save_splits(splits, stage / "splits.json")
        report = PrepReport(node_counts, histogram)
        gs.write_atomic(stage / "prep_report.json", schema.dumps(report))
        # self-check: every artifact must re-validate on read
        _read_field(stage / "prior_proportions", gs.StackKind.PRIOR_PROPORTIONS)
        _load_splits(stage / "splits.json", (hm.height_px, hm.width))
        schema.load(PrepReport, stage / "prep_report.json")
    print(f"prepared dataset under {prep}: {sum(node_counts.values())} nodes "
          f"across {len(node_counts)} timesteps, balanced={splits.balanced}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    heights = gs.read_grid_stack(cfg.heights, gs.StackKind.HEIGHT_SERIES)
    prior, splits = _load_prepared(cfg, heights.manifest)
    # float32, the dtype the checkpoint stores: it holds the trained weights bit for bit
    params = md.ModelParams.initialize(f_dim=gb.NODE_FEATURES, k_cats=prior.k,
                                       seed=cfg.train.seed).astype(np.float32)
    # train reads the prior in float32; rebinding frees the float64 field
    prior = md.ModelPrior.of(prior, params.dtype)
    result = md.train(params, heights, prior, splits, cfg.train)

    lines = ["epoch,train_rec,train_kl,train_ce,train_total"]
    for epoch, t in enumerate(result.history):
        lines.append(",".join([str(epoch)] + [repr(x) for x in (t.rec, t.kl, t.ce, t.total)]))
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
        print(f"epoch {len(result.history) - 1}: train total {last.total:.6f} "
              f"(rec {last.rec:.6f}, kl {last.kl:.6f}, ce {last.ce:.6f})")
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
    with _echoed(cfg.out_dir, "infer", cfg, out) as stage:
        for label, grid in zip(heights.manifest.layer_labels, heights.grids):
            try:  # unnamed, the stack is freed before the self-check decode and next inference
                gs.write_grid_stack(md.infer_posterior(params, grid, stats, categories),
                                    stage / label)
            except NonFiniteError as exc:
                raise NonFiniteError(f"timestep {label!r}: {exc}") from exc
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
    change_grids = [au.change_map(a, b).grid
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
    with _echoed(cfg.out_dir, "audit", cfg, out) as stage:
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
            au.write_transition_csv(tm.labels, tm.normalized, stage / f"transition_{name}.csv")
            au.write_transition_csv(tm.labels, tm.raw, stage / f"transition_{name}_raw.csv")
            gs.write_atomic(stage / f"transition_{name}.dot", au.transition_to_dot(tm))
            artifacts += [f"transition_{name}.csv", f"transition_{name}_raw.csv",
                          f"transition_{name}.dot"]
            transitions[name] = {"period": tm.period, "zero_mass_rows": tm.zero_mass_rows}

        gs.write_atomic(stage / "index.json",
                        schema.dumps({"artifacts": artifacts, "transitions": transitions}))
    print(f"wrote {len(artifacts)} audit artifacts under {out}")
    return 0


def cmd_synth(spec_path: str, out_dir: str) -> int:
    # imported here: the other commands need neither the generator nor the
    # scipy.ndimage it loads, which takes the peak RSS of importing this
    # module from 29.7 to 55.2 MiB (Linux x86-64, Python 3.11)
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

    p = sub.add_parser("infer", help="write posterior stacks per timestep")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("audit", help="distance/change maps, trends, transitions")
    p.add_argument("--config", required=True)
    p.add_argument("--posteriors", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.spec, args.out)
        cfg = schema.load(RunConfig, args.config)
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
