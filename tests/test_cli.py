import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vulnaudit import audit as au
from vulnaudit import cli
from vulnaudit import graph_build as gb
from vulnaudit import grid_store as gs
from vulnaudit import model as md
from vulnaudit import numcore as nc
from vulnaudit import schema
from vulnaudit import synth as sy
from vulnaudit.numcore import NonFiniteError


def write_spec(path, **overrides):
    doc = {"width": 16, "height_px": 16, "timesteps": 2, "k": 2,
           "mean_log_heights": [0.5, 2.0], "std_log_heights": [0.3, 0.3],
           "block_size": 4, "seed": 7, "corruption": 0.1}
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_config(path, data_dir, out_dir, **overrides):
    doc = {"heights": str(data_dir / "heights"),
           "prior_counts": str(data_dir / "prior_counts"),
           "out_dir": str(out_dir),
           "tile_size": 8, "upsample_factor": 4,
           "train": {"epochs": 3, "seed": 0}}
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def set_train(config, **keys):
    """Set the given keys of the ``train`` section of the config file ``config``."""
    doc = json.loads(config.read_text())
    doc["train"].update(keys)
    config.write_text(json.dumps(doc))


def write_readme_spec(path):
    """The README's 64 x 64 example spec."""
    return write_spec(path, width=64, height_px=64, timesteps=3, k=3,
                      mean_log_heights=[0.5, 1.5, 2.5], std_log_heights=[0.3, 0.3, 0.3],
                      block_size=8, seed=42, corruption=0.2)


def edit_json(raw, **changes):
    """JSON bytes with the given top-level keys set."""
    return json.dumps({**json.loads(raw), **changes}).encode()


def edit_norm(raw, key, value):
    """JSON bytes with key ``key`` of the ``norm`` object set to ``value``,
    or deleted when ``value`` is None."""
    doc = json.loads(raw)
    if value is None:
        del doc["norm"][key]
    else:
        doc["norm"][key] = value
    return json.dumps(doc).encode()


# bad ``norm`` objects, as the checkpoint manifest holds them: the key, its
# bad value (None: missing) and the error after the file
BAD_NORMS = [
    ("std", None, "section 'norm': missing key(s) 'std'"),
    ("mean", float("nan"), "section 'norm', section 'mean': expected a finite number"),
    ("std", float("inf"), "section 'norm', section 'std': expected a finite number"),
    ("std", 0.0, "section 'norm': bad value: norm stats need a finite mean and a "
                 "finite, positive std"),
    ("std", -1.0, "section 'norm': bad value: norm stats need a finite mean and a "
                  "finite, positive std"),
    ("std", True, "section 'norm', section 'std': expected float, got True"),
    ("mean", "0.25", "section 'norm', section 'mean': expected float, got '0.25'"),
]


@pytest.fixture
def toy_run(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
    config = write_config(tmp_path / "config.json", tmp_path / "data", tmp_path / "out")
    return tmp_path, config


@pytest.fixture
def toy_run3(tmp_path):
    """A three-timestep toy dataset, prepared and trained."""
    spec = write_spec(tmp_path / "spec.json", timesteps=3)
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
    config = write_config(tmp_path / "config.json", tmp_path / "data", tmp_path / "out")
    assert cli.main(["prepare", "--config", str(config)]) == 0
    assert cli.main(["train", "--config", str(config)]) == 0
    return tmp_path, config


def set_first_data_value(path, value):
    """Set the first value of the ``.f32`` layer ``path`` that is not nodata."""
    values = np.fromfile(path, dtype="<f4")
    values[np.argmax(values != gs.DEFAULT_NODATA)] = value
    values.tofile(path)


class TestSynth:
    def test_writes_three_stacks(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
        for name in ("heights", "prior_counts", "ground_truth"):
            gs.read_grid_stack(tmp_path / "d" / name)

    def test_deterministic(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "a")])
        cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "b")])
        for sub in ("heights", "prior_counts", "ground_truth"):
            for f in sorted((tmp_path / "a" / sub).iterdir()):
                assert f.read_bytes() == (tmp_path / "b" / sub / f.name).read_bytes()

    def test_perfect_prior_at_block_one(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", block_size=1, corruption=0.0)
        cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        counts = gs.read_grid_stack(tmp_path / "d" / "prior_counts")
        truth = gs.read_grid_stack(tmp_path / "d" / "ground_truth")
        prior = gs.normalize_prior_counts(counts)
        truth_props = np.stack([g.values for g in truth.grids], axis=-1)
        assert prior.valid.all()
        np.testing.assert_array_equal(prior.probs, truth_props)

    def test_heights_separable_by_threshold(self, tmp_path):
        # Bayes-style threshold between log-height means 0.5 and 2.0
        spec = sy.SyntheticSpec(32, 32, 1, 2, [0.5, 2.0], [0.3, 0.3],
                                block_size=4, seed=3)
        stacks = sy.generate(spec)
        truth = np.stack([g.values for g in stacks["ground_truth"].grids]).argmax(axis=0)
        heights = stacks["heights"].grids[0].values.astype(float)
        predicted = (np.log(heights) > 1.25).astype(int)
        assert (predicted == truth).mean() > 0.9

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: [], "JSON object"),
        (lambda doc: {**doc, "corruptoin": 0.1}, "corruptoin"),
        (lambda doc: {**doc, "width": 0}, "width"),
        (lambda doc: {**doc, "height_px": -4}, "height_px"),
        (lambda doc: {**doc, "mean_log_heights": [0.5, float("inf")]}, "mean_log_heights"),
        (lambda doc: {**doc, "mean_log_heights": [0.5, float("nan")]}, "mean_log_heights"),
        (lambda doc: {**doc, "std_log_heights": [0.3, -0.1]}, "std_log_heights"),
        (lambda doc: {**doc, "std_log_heights": [float("nan"), 0.3]}, "std_log_heights"),
        # fixed by generate, not keys: the blob count and the labels cat0, cat1, ...
        (lambda doc: {**doc, "n_blobs": 4}, "spec.json: unknown key(s) 'n_blobs'"),
        (lambda doc: {**doc, "labels": ["cat0", "cat1"]}, "spec.json: unknown key(s) 'labels'"),
        (lambda doc: {**doc, "mean_log_heights": [0.5, 2.0, 3.5]},
         "mean_log_heights and std_log_heights need k = 2 values"),
        (lambda doc: {**doc, "std_log_heights": [0.3]},
         "mean_log_heights and std_log_heights need k = 2 values"),
        (lambda doc: {**doc, "mean_log_heights": [1.0, 1.0]}, "mean_log_heights must be distinct"),
        (lambda doc: {**doc, "corruption": 1.0}, "corruption"),
        (lambda doc: {**doc, "block_size": 0}, "block_size must be >= 1"),
        (lambda doc: {**doc, "block_size": 3}, "multiple of block_size"),
        (lambda doc: {**doc, "timesteps": 0}, "timesteps must be >= 1"),
    ], ids=["list", "unknown-key", "zero-width", "negative-height", "inf-mean", "nan-mean",
            "negative-std", "nan-std", "removed-n-blobs-key", "removed-labels-key",
            "means-not-k", "stds-not-k", "equal-means", "full-corruption", "zero-block",
            "partial-block", "zero-timesteps"])
    def test_bad_spec_exits_2(self, tmp_path, capsys, edit, named):
        spec = write_spec(tmp_path / "spec.json")
        spec.write_text(json.dumps(edit(json.loads(spec.read_text()))))
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "d").exists()  # rejected before generating anything

    def test_k_below_two_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", k=1, mean_log_heights=[1.0],
                          std_log_heights=[0.3])
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
        assert "categories" in capsys.readouterr().err


class TestPrepare:
    def test_writes_three_artifacts(self, toy_run):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        prepared = tmp_path / "out" / "prepared"
        assert sorted(p.name for p in prepared.iterdir()) == \
            ["prep_report.json", "prior_proportions", "splits.json"]
        report = json.loads((prepared / "prep_report.json").read_text())
        assert set(report["node_counts"]) == {"t0", "t1"}
        assert sum(report["tile_category_histogram"].values()) == 4

    def test_norm_stats_equal_pooled_graph_features(self, toy_run):
        tmp_path, config = toy_run
        # zero and nodata heights must stay out of the pool, as they are not nodes
        heights = gs.read_grid_stack(tmp_path / "data" / "heights")
        for grid in heights.grids:  # a read stack's layers are read-only
            grid.values = grid.values.copy()
        heights.grids[0].values[::3, ::3] = 0.0
        heights.grids[1].values[1::4, 2::4] = heights.grids[1].nodata
        gs.write_grid_stack(heights, tmp_path / "data" / "heights")
        assert cli.main(["prepare", "--config", str(config)]) == 0
        set_train(config, epochs=0)
        assert cli.main(["train", "--config", str(config)]) == 0
        prepared = tmp_path / "out" / "prepared"
        manifest = json.loads((tmp_path / "out" / "checkpoint" / "manifest.json").read_text())
        train_tiles = [gb.Tile(r["x"], r["y"], r["w"], r["h"]) for r in
                       json.loads((prepared / "splits.json").read_text())["tiles"]
                       if r["split"] == "train"]
        pooled = np.concatenate([gb.build_graph(g, train_tiles).features.ravel()
                                 for g in heights.grids])
        _, expected = gb.log_normalize(pooled)
        assert manifest["norm"] == {"mean": expected.mean, "std": expected.std}

    def test_missing_prior_path_names_it(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")])
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                              prior_counts=str(tmp_path / "data" / "does_not_exist"))
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert "does_not_exist" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["splits.json", "prep_report.json"])
    def test_failed_rewrite_keeps_previous_file(self, toy_run, monkeypatch, name):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        prepared = tmp_path / "out" / "prepared"
        before = (prepared / name).read_bytes()
        real_write = Path.write_text

        def flaky_write(self, data, *args, **kwargs):
            # the rerun writes into a staged sibling of prepared/
            if self.parent.parent == prepared.parent and name in self.name:
                real_write(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("disk full")  # a crash or a full disk mid-write
            return real_write(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", flaky_write)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        monkeypatch.undo()
        assert (prepared / name).read_bytes() == before
        assert sorted(p.name for p in prepared.iterdir()) == \
            ["prep_report.json", "prior_proportions", "splits.json"]

    def test_failed_rerun_keeps_previous_prepared_whole(self, toy_run, monkeypatch, capsys):
        # a rerun with another split seed whose report write fails must not
        # leave its splits beside the first run's report: prepared/ holds
        # the files of one run, whole
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        out = tmp_path / "out"
        prepared = out / "prepared"
        before = {p.relative_to(prepared): p.read_bytes()
                  for p in prepared.rglob("*") if p.is_file()}
        echo = (out / "prepare_config_echo.json").read_bytes()
        config.write_bytes(edit_json(config.read_bytes(), split_seed=1))
        real_write = Path.write_text

        def failing_report_write(self, data, *args, **kwargs):
            if "prep_report.json" in self.name:
                raise OSError("disk full")
            return real_write(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_report_write)
        capsys.readouterr()
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert "disk full" in capsys.readouterr().err
        monkeypatch.undo()
        after = {p.relative_to(prepared): p.read_bytes()
                 for p in prepared.rglob("*") if p.is_file()}
        assert after == before
        assert (out / "prepare_config_echo.json").read_bytes() == echo  # kept with them
        assert not [p.name for p in out.iterdir() if p.name.startswith(".prepared")]
        # the same rerun, completed, does change the splits
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert (prepared / "splits.json").read_bytes() != before[Path("splits.json")]

    def test_rerun_byte_identical_splits(self, toy_run):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        first = (tmp_path / "out" / "prepared" / "splits.json").read_bytes()
        cli.main(["prepare", "--config", str(config)])
        assert (tmp_path / "out" / "prepared" / "splits.json").read_bytes() == first

    def test_splits_read_back_equal_the_split_tiles(self, toy_run, monkeypatch):
        # the tiles train reads from splits.json are, split by split, the
        # tiles that prepare split, and compare equal to them
        tmp_path, config = toy_run
        split_tiles, made = gb.split_tiles, []

        def recorded(*args, **kwargs):
            made.append(split_tiles(*args, **kwargs))
            return made[-1]

        def row_major(tiles):
            return sorted(tiles, key=lambda t: (t.origin_y, t.origin_x))

        monkeypatch.setattr(gb, "split_tiles", recorded)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        loaded = cli._load_splits(tmp_path / "out" / "prepared" / "splits.json", (16, 16))
        for name in cli.SPLIT_NAMES:
            assert row_major(getattr(loaded, name)) == row_major(getattr(made[0], name)), name
        assert loaded.balanced == made[0].balanced

    def write_hand_built(self, tmp_path, side):
        rng = np.random.default_rng(0)
        heights = gs.GridStack(
            gs.StackManifest(gs.StackKind.HEIGHT_SERIES, side, side, ["t0"]),
            [gs.RasterGrid(side, side,
                           rng.uniform(1, 5, size=(side, side)).astype(np.float32))])
        counts = gs.GridStack(
            gs.StackManifest(gs.StackKind.PRIOR_COUNTS, 2, 2, ["a", "b"]),
            [gs.RasterGrid(2, 2, rng.integers(0, 5, size=(2, 2)).astype(np.float32))
             for _ in range(2)])
        gs.write_grid_stack(heights, tmp_path / "data" / "heights")
        gs.write_grid_stack(counts, tmp_path / "data" / "prior_counts")

    def test_oversized_prior_is_cropped(self, tmp_path):
        # 2x2 counts upsampled x4 covers 8x8; heights are 6x6
        self.write_hand_built(tmp_path, side=6)
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                              tile_size=3, upsample_factor=4)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        prior = gs.stack_to_field(
            gs.read_grid_stack(tmp_path / "out" / "prepared" / "prior_proportions"),
            gs.StackKind.PRIOR_PROPORTIONS)
        assert prior.shape == (6, 6)

    def test_readme_prepare_bytes_pinned(self, tmp_path):
        # digests of the README spec's prepared prior and splits, taken before
        # the prior and posterior codecs were merged; splits.json's re-taken
        # when it came to hold only the tile rows and the balance flag, with
        # the rows unchanged. prep_report.json is left out, as its float
        # reductions may differ by platform
        spec = write_readme_spec(tmp_path / "spec.json")
        config = write_config(tmp_path / "config.json", tmp_path / "data",
                              tmp_path / "out", tile_size=16, upsample_factor=8)
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        assert cli.main(["prepare", "--config", str(config)]) == 0
        prepared = tmp_path / "out" / "prepared"
        digests = {str(p.relative_to(prepared)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in [*sorted((prepared / "prior_proportions").iterdir()),
                             prepared / "splits.json"]}
        assert digests == {
            "prior_proportions/cat0.f32":
                "6ffb9f49809693dfb5ded4d7762164878306a7f7ea7f89926dfd0fb95080e736",
            "prior_proportions/cat1.f32":
                "7bb35bed64e9b7ab05bb21ec733b0cce5611233d2667885ced86dbfa9b0d9ddf",
            "prior_proportions/cat2.f32":
                "c74858392c330a97ea2a6556623af4519c08efd6a942c9060755895389b82108",
            "prior_proportions/manifest.json":
                "6818a51bbd26af690c2c74d416793f4765c488e71eb615dca4ea8eff132c8c82",
            "splits.json":
                "9b98d3ee910338957bf497394c0b4bef9ff7801fa71d2a6c934734b8c0ee5750",
        }

    def test_overhanging_prior_rejected(self, tmp_path, capsys):
        # 2x2 counts upsampled x32 cover 64x64: their top-left block alone
        # would cover the 16x16 heights, so the prior would be misregistered
        self.write_hand_built(tmp_path, side=16)
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                              tile_size=8, upsample_factor=32)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert all(s in err for s in ("upsample_factor", "2x2", "16x16")), err
        assert not (tmp_path / "out" / "prepared").exists()

    def test_label_breaking_csv_and_dot_rejected(self, tmp_path, capsys):
        # a comma or quote in a category label would break the audit's CSV
        # header and DOT node names
        self.write_hand_built(tmp_path, side=8)
        counts = tmp_path / "data" / "prior_counts"
        manifest = counts / "manifest.json"
        manifest.write_bytes(edit_json(manifest.read_bytes(), layers=["a,b", "c"]))
        (counts / "a.f32").rename(counts / "a,b.f32")
        (counts / "b.f32").rename(counts / "c.f32")
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                              tile_size=4, upsample_factor=4)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "'a,b'" in err, err

    def test_none_label_rejected(self, tmp_path, capsys):
        # a category NONE would collide with the audit's no-building state
        self.write_hand_built(tmp_path, side=8)
        counts = tmp_path / "data" / "prior_counts"
        manifest = counts / "manifest.json"
        manifest.write_bytes(edit_json(manifest.read_bytes(), layers=["NONE", "b"]))
        (counts / "a.f32").rename(counts / "NONE.f32")
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                              tile_size=4, upsample_factor=4)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"error: {counts}: category label 'NONE'" in err, err
        assert not (tmp_path / "out" / "prepared").exists()

    def test_undersized_prior_rejected(self, tmp_path, capsys):
        self.write_hand_built(tmp_path, side=6)
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                              tile_size=3, upsample_factor=2)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert "upsample_factor" in capsys.readouterr().err


class TestTrain:
    def test_training_holds_the_prior_in_float32_only(self, toy_run, monkeypatch):
        # cmd_train hands train a float32 ModelPrior and keeps no float64
        # CategoryField beside it
        tmp, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        seen, train = [], md.train

        def checking(params, heights, prior, *args):
            gc.collect()
            fields = [o for o in gc.get_objects() if isinstance(o, gs.CategoryField)]
            seen.append((type(prior), prior.probs.dtype, len(fields)))
            return train(params, heights, prior, *args)

        monkeypatch.setattr(md, "train", checking)
        assert cli.main(["train", "--config", str(config)]) == 0
        assert seen == [(md.ModelPrior, np.dtype(np.float32), 0)]

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # a weight gradient sums over every node; one BLAS product over tens
        # of thousands of rows splits that sum across threads. Each thread
        # count is set before its process loads BLAS. One epoch takes a step
        # per timestep: Adam's first step moves each weight by about the
        # learning rate whatever the gradient's low bits, so the run takes three.
        # 50-pixel tiles: node counts that are no multiple of a large power
        # of two, at which one product's split sums happen to agree
        spec = write_spec(tmp_path / "spec.json", width=250, height_px=250, timesteps=3,
                          block_size=5)
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        config = write_config(tmp_path / "config.json", tmp_path / "data", tmp_path / "out",
                              tile_size=50, upsample_factor=5, train={"epochs": 1, "seed": 0})
        assert cli.main(["prepare", "--config", str(config)]) == 0
        cfg = schema.load(cli.RunConfig, config)
        heights = gs.read_grid_stack(cfg.heights, gs.StackKind.HEIGHT_SERIES)
        _, splits = cli._load_prepared(cfg, heights.manifest)
        assert all(gb.node_mask(grid, splits.train).sum() >= 32_768 for grid in heights.grids)
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(cli.__file__).parents[1])}
            subprocess.run([sys.executable, "-m", "vulnaudit.cli", "train", "--config",
                            str(config)], env=env, check=True, capture_output=True)
            out = tmp_path / "out"
            runs.append({p.name: p.read_bytes()
                         for p in [*(out / "checkpoint").iterdir(), out / "losses.csv"]})
        assert runs[0] == runs[1]

    def test_zero_epochs_keeps_initial_params(self, toy_run):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        set_train(config, epochs=0)
        assert cli.main(["train", "--config", str(config)]) == 0
        losses = (tmp_path / "out" / "losses.csv").read_text().splitlines()
        assert len(losses) == 1  # header only
        params, _, _ = md.load_checkpoint(tmp_path / "out" / "checkpoint")
        fresh = md.ModelParams.initialize(1, 2, seed=0)
        for name in params.weights:
            np.testing.assert_array_equal(
                params.weights[name],
                fresh.weights[name].astype(np.float32).astype(np.float64))

    def test_losses_csv_shape(self, toy_run):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        assert cli.main(["train", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "losses.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["epoch", "train_rec", "train_kl", "train_ce",
                                       "train_total"]
        assert len(lines) == 4  # 3 epochs

    def test_validation_tiles_are_held_out(self, tmp_path):
        # heights raised only inside the validation tiles change no byte
        # that train writes: train reads no validation pixel
        spec = write_spec(tmp_path / "spec.json")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        config = write_config(tmp_path / "config.json", tmp_path / "data", tmp_path / "out",
                              tile_size=4)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        out = tmp_path / "out"

        def trained():
            assert cli.main(["train", "--config", str(config)]) == 0
            return {p.name: p.read_bytes()
                    for p in [*(out / "checkpoint").iterdir(), out / "losses.csv"]}

        before = trained()
        tiles = json.loads((out / "prepared" / "splits.json").read_text())["tiles"]
        validation = [row for row in tiles if row["split"] == "validation"]
        assert validation
        raised = 0
        for layer in (tmp_path / "data" / "heights").glob("*.f32"):
            values = np.fromfile(layer, dtype="<f4").reshape(16, 16)
            for row in validation:
                tile = values[row["y"]:row["y"] + row["h"], row["x"]:row["x"] + row["w"]]
                raised += int((tile > 0).sum())
                tile[tile > 0] *= 4.0
            values.tofile(layer)
        assert raised
        assert trained() == before

    def test_diverging_run_exits_3(self, toy_run, capsys, monkeypatch):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        monkeypatch.setattr(md, "LEARNING_RATE", 1e300)
        with pytest.warns(RuntimeWarning) as caught:
            assert cli.main(["train", "--config", str(config)]) == 3
        # the deliberate divergence: lr 1e300 overflows float32 in Adam's update,
        # which then multiplies inf by 0, and the next forward adds NaNs in a gcn_block
        assert {(Path(w.filename).name, str(w.message)) for w in caught} == {
            ("model.py", "overflow encountered in cast"),
            ("model.py", "invalid value encountered in multiply"),
            ("numcore.py", "invalid value encountered in add")}
        err = capsys.readouterr().err
        assert re.search(r"epoch \d+, timestep '(t0|t1)', subgraph \d+: "
                         r"gcn_block layer [123] produced non-finite values", err), err

    def test_runs_without_prep_report(self, toy_run):
        # train fits the normalisation itself and reads no prep_report.json
        tmp_path, config = toy_run
        ckpt = tmp_path / "out" / "checkpoint"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        set_train(config, epochs=1)
        assert cli.main(["train", "--config", str(config)]) == 0
        intact = {p.name: p.read_bytes() for p in ckpt.iterdir()}
        (tmp_path / "out" / "prepared" / "prep_report.json").unlink()
        assert cli.main(["train", "--config", str(config)]) == 0
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == intact

    def test_no_training_row_exits_2(self, toy_run, capsys):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        path = tmp_path / "out" / "prepared" / "splits.json"
        doc = json.loads(path.read_text())
        for row in doc["tiles"]:
            if row["split"] == "train":
                row["split"] = "test"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: no training nodes at any timestep\n"
        assert not (tmp_path / "out" / "checkpoint").exists()

    def test_zero_mass_prior_exits_2_naming_stack(self, toy_run, capsys):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        path = tmp_path / "out" / "prepared" / "prior_proportions"
        stack = gs.read_grid_stack(path)
        for grid in stack.grids:
            grid.values = np.where(grid.valid_mask(), 0.0, grid.values)
        gs.write_grid_stack(stack, path)
        assert cli.main(["train", "--config", str(config)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_failed_rerun_leaves_no_losses_of_another_checkpoint(self, toy_run, monkeypatch,
                                                                 capsys):
        # the rerun's checkpoint is published before its losses are written:
        # the first run's losses must not stay beside it
        tmp_path, config = toy_run
        losses = tmp_path / "out" / "losses.csv"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config)]) == 0
        assert losses.is_file()
        real_write = gs.write_atomic

        def failing_losses_write(path, data):
            if Path(path).name == "losses.csv":
                raise OSError("disk full")
            return real_write(path, data)

        monkeypatch.setattr(gs, "write_atomic", failing_losses_write)
        capsys.readouterr()
        set_train(config, seed=1)
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert not losses.exists()

    def test_train_without_prepare_exits_2(self, toy_run):
        tmp_path, config = toy_run
        assert cli.main(["train", "--config", str(config)]) == 2


class TestInfer:
    def test_posteriors_written_and_valid(self, toy_run):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        cli.main(["train", "--config", str(config)])
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        for label in ("t0", "t1"):
            post = md.stack_to_posterior(
                gs.read_grid_stack(tmp_path / "out" / "posteriors" / label), label)
            assert post.valid.any()
            sums = post.probs[post.valid].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_all_zero_timestep_gives_all_nodata(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")])
        # blank out one timestep's heights
        heights = gs.read_grid_stack(tmp_path / "data" / "heights")
        zero = np.zeros((16, 16), dtype=np.float32)
        heights.grids[1] = gs.RasterGrid(16, 16, zero)
        gs.write_grid_stack(heights, tmp_path / "data" / "heights")
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out")
        cli.main(["prepare", "--config", str(config)])
        cli.main(["train", "--config", str(config)])
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        stack = gs.read_grid_stack(tmp_path / "out" / "posteriors" / "t1")
        for grid in stack.grids:
            assert not grid.valid_mask().any()

    @pytest.mark.parametrize("name, edit, named", [
        # the blob shapes follow from the dimensions: enc_w1 holds 1x25 weights, not 1x7
        ("manifest.json", lambda raw: edit_json(raw, hidden=7),
         "enc_w1.f32: 100 bytes, expected 28, 4 per value"),
        ("enc_b1.f32", lambda raw: np.full(len(raw) // 4, np.nan, "<f4").tobytes(),
         "enc_b1.f32: non-finite weights"),
        ("dec_w2.f32", lambda raw: raw[:-4], "dec_w2.f32: 2496 bytes, expected 2500, 4 per value"),
        *[("manifest.json", lambda raw, key=key, value=value: edit_norm(raw, key, value),
           f"manifest.json, {named}") for key, value, named in BAD_NORMS],
        ("manifest.json", lambda raw: edit_json(
            raw, config={**json.loads(raw)["config"], "adam_eps": 1e-8}),
         "manifest.json, section 'config': unknown key(s) 'adam_eps'"),
        ("manifest.json", lambda raw: edit_json(
            raw, config={**json.loads(raw)["config"], "tau": 1.0}),
         "manifest.json, section 'config': unknown key(s) 'tau'"),
        ("manifest.json", lambda raw: edit_json(
            raw, config={**json.loads(raw)["config"], "n_subgraphs": None}),
         "manifest.json, section 'config': unknown key(s) 'n_subgraphs'"),
        ("manifest.json", lambda raw: edit_json(
            raw, config={**json.loads(raw)["config"], "learning_rate": 0.001}),
         "manifest.json, section 'config': unknown key(s) 'learning_rate'"),
        ("manifest.json", lambda raw: edit_json(raw, notes="run 1"),
         "manifest.json: unknown key(s) 'notes'"),
        ("manifest.json", lambda raw: edit_json(raw, hidden=0),
         "manifest.json: bad value: f_dim, k_cats and hidden must be positive integers, "
         "got [1, 2, 0]"),
        # the model's first layer widens and its last narrows
        ("manifest.json", lambda raw: edit_json(raw, hidden=2),
         "manifest.json: bad value: hidden must exceed f_dim and k_cats, got [1, 2, 2]"),
    ], ids=["hidden", "nan-blob", "truncated-blob", "missing-norm-key", "nan-norm-mean",
            "infinite-norm-std", "zero-norm-std", "negative-norm-std", "norm-std-true",
            "string-norm-mean", "config-unknown-key", "config-removed-tau",
            "config-removed-n-subgraphs", "config-removed-learning-rate", "unknown-top-key",
            "zero-hidden", "hidden-not-above-k-cats"])
    def test_bad_checkpoint_exits_2_naming_file(self, toy_run, capsys, name, edit, named):
        tmp_path, config = toy_run
        ckpt = tmp_path / "out" / "checkpoint"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        set_train(config, epochs=1)
        assert cli.main(["train", "--config", str(config)]) == 0
        path = ckpt / name
        path.write_bytes(edit(path.read_bytes()))
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt / named) in err, err
        assert not (tmp_path / "out" / "posteriors").exists()

    def test_k_above_default_hidden_trains_a_wider_model(self, tmp_path):
        # the hidden width must exceed k: with 25 categories train takes
        # hidden = k + 1 = 26, and infer reads the checkpoint back
        k = 25
        spec = write_spec(tmp_path / "spec.json", width=32, height_px=32, k=k,
                          mean_log_heights=[0.1 * i for i in range(k)],
                          std_log_heights=[0.05] * k)
        data, out = tmp_path / "data", tmp_path / "out"
        config = write_config(tmp_path / "config.json", data, out, train={"epochs": 1})
        for argv in (["synth", "--spec", str(spec), "--out", str(data)],
                     ["prepare", "--config", str(config)],
                     ["train", "--config", str(config)],
                     ["infer", "--config", str(config),
                      "--checkpoint", str(out / "checkpoint")]):
            assert cli.main(argv) == 0, argv
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert (manifest["f_dim"], manifest["k_cats"], manifest["hidden"]) == (1, k, k + 1)
        for label in ("t0", "t1"):
            post = md.stack_to_posterior(gs.read_grid_stack(out / "posteriors" / label), label)
            assert post.k == k and post.valid.any()

    def test_missing_checkpoint_exits_2_naming_it(self, toy_run, capsys):
        tmp_path, config = toy_run
        missing = tmp_path / "out" / "no-checkpoint"
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(missing)]) == 2
        assert f"checkpoint not found: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "posteriors").exists()

    @pytest.mark.parametrize("f_dim, k_cats", [(2, 2), (1, 3)],
                             ids=["two-features", "three-categories"])
    def test_checkpoint_of_another_shape_exits_2_before_staging(self, toy_run, capsys,
                                                                f_dim, k_cats):
        # the checkpoint must fit the heights' one feature and the prior's two
        # categories; a misfit is found before the previous echo goes
        tmp_path, config = toy_run
        out = tmp_path / "out"
        ckpt = out / "checkpoint"
        set_train(config, epochs=1)
        for argv in (["prepare"], ["train"], ["infer", "--checkpoint", str(ckpt)]):
            assert cli.main(argv + ["--config", str(config)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*")
                  if p.is_file() and ckpt not in p.parents}
        params = md.ModelParams.initialize(f_dim, k_cats).astype(np.float32)
        md.save_checkpoint(ckpt, params, gb.NormStats(0.0, 1.0), md.TrainConfig())
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt / "manifest.json") in err, err
        assert str(out / "prepared" / "prior_proportions") in err, err
        assert out / "infer_config_echo.json" in before
        assert {p: p.read_bytes() for p in out.rglob("*")
                if p.is_file() and ckpt not in p.parents} == before

    def test_prepared_prior_of_another_kind_exits_2(self, toy_run, capsys):
        tmp_path, config = toy_run
        ckpt = tmp_path / "out" / "checkpoint"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        set_train(config, epochs=1)
        assert cli.main(["train", "--config", str(config)]) == 0
        prior = tmp_path / "out" / "prepared" / "prior_proportions"
        manifest = prior / "manifest.json"
        manifest.write_bytes(edit_json(manifest.read_bytes(), kind="POSTERIOR"))
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert f"{prior}: expected PRIOR_PROPORTIONS stack, got POSTERIOR" in err, err
        assert not (tmp_path / "out" / "posteriors").exists()

    def test_missing_blob_exits_2_naming_it(self, toy_run, capsys):
        tmp_path, config = toy_run
        ckpt = tmp_path / "out" / "checkpoint"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        set_train(config, epochs=1)
        assert cli.main(["train", "--config", str(config)]) == 0
        (ckpt / "dec_w2.f32").unlink()
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
        assert f"missing layer: {ckpt / 'dec_w2.f32'}" in capsys.readouterr().err

    def test_posterior_dropped_once_its_stack_is_built(self, toy_run3, monkeypatch):
        tmp_path, config = toy_run3
        refs, live = [], []
        real_infer, real_read_field = md.infer_posterior, cli._read_field

        def record_live():
            gc.collect()
            live.append([ref for ref in refs if ref() is not None])

        def infer_posterior(*args, **kwargs):
            record_live()
            stack = real_infer(*args, **kwargs)
            # each layer array, and the array it views
            refs.extend(weakref.ref(a) for grid in stack.grids
                        for a in (grid.values, grid.values.base) if a is not None)
            return stack

        def read_field(*args):  # the self-check decode
            record_live()
            return real_read_field(*args)

        monkeypatch.setattr(md, "infer_posterior", infer_posterior)
        monkeypatch.setattr(cli, "_read_field", read_field)
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        assert len(refs) == 3 * 2 * 2  # timesteps x categories x (layer, its base)
        # no posterior layer was live at a self-check or at the next inference
        assert live == [[]] * 6

    def test_each_stack_validated_once_per_build(self, toy_run3, monkeypatch):
        # GridStack validates each stack it builds; the writer does not
        # validate it again. So each posterior is checked when infer builds
        # it and when the self-check reads it back, and the heights once
        tmp_path, config = toy_run3
        real_validate, kinds = gs.validate_stack, []

        def validate_stack(stack):
            kinds.append(stack.manifest.kind)
            return real_validate(stack)

        monkeypatch.setattr(gs, "validate_stack", validate_stack)
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        assert kinds == [gs.StackKind.HEIGHT_SERIES] + [gs.StackKind.POSTERIOR] * 2 * 3

    def test_interrupted_rerun_keeps_previous_posteriors(self, toy_run3, monkeypatch, capsys):
        tmp_path, config = toy_run3
        out, ckpt = tmp_path / "out", str(tmp_path / "out" / "checkpoint")
        assert cli.main(["infer", "--config", str(config), "--checkpoint", ckpt]) == 0
        before = {p.relative_to(out): p.read_bytes()
                  for p in (out / "posteriors").rglob("*") if p.is_file()}
        # a retrained checkpoint, so the rerun's first timestep differs
        set_train(config, seed=1)
        assert cli.main(["train", "--config", str(config)]) == 0
        real_infer, calls = md.infer_posterior, []

        def infer_posterior(params, heights, *args, **kwargs):
            calls.append(heights.values.tobytes())
            if len(calls) == 2:
                raise NonFiniteError("encode: non-finite logits")
            return real_infer(params, heights, *args, **kwargs)

        monkeypatch.setattr(md, "infer_posterior", infer_posterior)
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", ckpt]) == 3
        assert "non-finite logits" in capsys.readouterr().err
        heights = gs.read_grid_stack(tmp_path / "data" / "heights")
        assert calls == [grid.values.tobytes() for grid in heights.grids[:2]]  # t0, t1
        after = {p.relative_to(out): p.read_bytes()
                 for p in (out / "posteriors").rglob("*") if p.is_file()}
        assert after == before
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]

    def test_diverging_window_names_timestep_and_core(self, toy_run3, capsys):
        tmp_path, config = toy_run3
        out, ckpt = tmp_path / "out", tmp_path / "out" / "checkpoint"
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        before = {p: p.read_bytes() for p in (out / "posteriors").rglob("*") if p.is_file()}
        # finite weights, so the checkpoint loads, whose products overflow float32
        blob = ckpt / "enc_w2.f32"
        np.full(blob.stat().st_size // 4, 3e38, "<f4").tofile(blob)
        capsys.readouterr()
        with np.errstate(over="ignore"):
            assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: timestep 't0': core at x=0, y=0: "
            "gcn_block layer 2 produced non-finite values\n")
        assert {p: p.read_bytes() for p in (out / "posteriors").rglob("*")
                if p.is_file()} == before

    @pytest.mark.parametrize("bad_rows, rule", [
        # every value in [0, 1], so the stack's range check passes and the
        # decode would renormalise the row to a believable posterior
        (lambda z: np.full_like(z, 2.0 / z.shape[1]), "category probabilities do not sum to 1"),
        (lambda z: np.full_like(z, np.nan), "non-finite category probability"),
    ], ids=["sums-to-2", "nan"])
    def test_bad_core_rows_exit_2_naming_the_rule(self, toy_run3, monkeypatch, capsys,
                                                  bad_rows, rule):
        # each core's float64 rows meet the category-field rule before they
        # are rounded into the float32 layers
        tmp_path, config = toy_run3
        out, ckpt = tmp_path / "out", str(tmp_path / "out" / "checkpoint")
        assert cli.main(["infer", "--config", str(config), "--checkpoint", ckpt]) == 0
        before = {p: p.read_bytes() for p in (out / "posteriors").rglob("*") if p.is_file()}
        echo = (out / "infer_config_echo.json").read_bytes()
        # only infer's own softmax: the encoder's keeps the real one
        monkeypatch.setattr(md, "nc", SimpleNamespace(**{**vars(nc), "softmax_values": bad_rows}))
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", ckpt]) == 2
        assert rule in capsys.readouterr().err
        assert {p: p.read_bytes() for p in (out / "posteriors").rglob("*")
                if p.is_file()} == before
        # the failed rerun keeps the previous posteriors and their echo
        assert (out / "infer_config_echo.json").read_bytes() == echo
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


class TestAudit:
    def run_pipeline(self, toy_run):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        cli.main(["train", "--config", str(config)])
        cli.main(["infer", "--config", str(config),
                  "--checkpoint", str(tmp_path / "out" / "checkpoint")])
        return tmp_path, config

    def test_two_timesteps_one_pair_and_averaged_equal(self, toy_run):
        tmp_path, config = self.run_pipeline(toy_run)
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(tmp_path / "out" / "posteriors")]) == 0
        out = tmp_path / "out" / "audit"
        one_step = (out / "transition_t0_to_t1.csv").read_text()
        averaged = (out / "transition_averaged.csv").read_text()
        assert one_step == averaged  # T=2: the average covers exactly one pair
        index = json.loads((out / "index.json").read_text())
        assert "t0_to_t1" in index["transitions"]
        assert (out / "ad_maps" / "manifest.json").is_file()
        assert (out / "change_maps" / "manifest.json").is_file()
        assert (out / "trend_full.csv").is_file()
        assert (out / "transition_t0_to_t1.dot").is_file()

    def test_transition_rows_stochastic(self, toy_run):
        tmp_path, config = self.run_pipeline(toy_run)
        cli.main(["audit", "--config", str(config),
                  "--posteriors", str(tmp_path / "out" / "posteriors")])
        text = (tmp_path / "out" / "audit" / "transition_averaged.csv").read_text()
        for line in text.strip().splitlines()[1:]:
            row = [float(v) for v in line.split(",")[1:]]
            assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_region_default_name_and_echo(self, toy_run):
        tmp_path, config = self.run_pipeline(toy_run)
        doc = json.loads(config.read_text())
        doc["regions"] = [{"x": 2, "y": 3, "width": 4, "height": 5},
                          {"name": "east", "x": 8, "y": 0, "width": 8, "height": 16}]
        config.write_text(json.dumps(doc))
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(tmp_path / "out" / "posteriors")]) == 0
        out = tmp_path / "out"
        assert (out / "audit" / "trend_r2_3.csv").is_file()
        assert (out / "audit" / "trend_east.csv").is_file()
        assert schema.load(cli.RunConfig, out / "audit_config_echo.json") == \
            schema.load(cli.RunConfig, config)

    @pytest.mark.parametrize("region, named", [
        ({"x": 0, "y": 0, "width": 4, "height": 4, "colour": "red"}, "colour"),
        ({"x": 0, "y": 0, "width": 4}, "height"),
        ({"name": "a/b", "x": 0, "y": 0, "width": 4, "height": 4}, "a/b"),
        ({"name": "..", "x": 0, "y": 0, "width": 4, "height": 4}, ".."),
        ({"name": "a\\b", "x": 0, "y": 0, "width": 4, "height": 4}, "unusable"),
        ({"name": "a,b", "x": 0, "y": 0, "width": 4, "height": 4}, "unusable"),
        ({"x": 10, "y": 0, "width": 10, "height": 4}, "out of bounds"),
        ({"x": 0, "y": -1, "width": 4, "height": 4}, "out of bounds"),
        ({"x": 0, "y": 0, "width": -5, "height": 4}, "out of bounds"),
        ({"x": 0, "y": 0, "width": 4, "height": 0}, "out of bounds"),
        ({"name": "ok", "x": 4, "y": 4, "width": 4, "height": 4}, "duplicate"),
    ], ids=["unknown-key", "missing-key", "slash-name", "dotdot-name",
            "backslash-name", "comma-name", "past-edge", "negative-origin",
            "negative-width", "zero-height", "duplicate-name"])
    def test_bad_region_exits_2_before_writing(self, toy_run, capsys, region, named):
        tmp_path, config = self.run_pipeline(toy_run)
        doc = json.loads(config.read_text())
        doc["regions"] = [{"name": "ok", "x": 0, "y": 0, "width": 16, "height": 16},
                          region]
        config.write_text(json.dumps(doc))
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(tmp_path / "out" / "posteriors")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "audit").exists()
        assert not (tmp_path / "out" / "audit_config_echo.json").exists()

    @pytest.mark.parametrize("region, named", [
        ({"x": 0, "y": -1, "width": 4, "height": 4}, "'r0_-1' (0, -1, 4, 4)"),
        ({"name": "w", "x": 0, "y": 0, "width": -5, "height": 4}, "'w' (0, 0, -5, 4)"),
        ({"name": "h", "x": 0, "y": 0, "width": 4, "height": 0}, "'h' (0, 0, 4, 0)"),
    ], ids=["negative-origin", "negative-width", "zero-height"])
    @pytest.mark.parametrize("command", [["prepare"], ["train"], ["infer", "--checkpoint", "c"]],
                             ids=["prepare", "train", "infer"])
    def test_bad_region_exits_2_in_every_command(self, toy_run, capsys, region, named,
                                                 command):
        # the origin and size rules hold when the config loads, before
        # prepare, train or infer write anything; the extent rule, which
        # needs the heights, is audit's
        tmp_path, config = toy_run
        doc = json.loads(config.read_text())
        doc["regions"] = [region]
        config.write_text(json.dumps(doc))
        assert cli.main([command[0], "--config", str(config), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"region {named} out of bounds" in err, err
        assert not (tmp_path / "out").exists()

    def test_nonpositive_threshold_exits_2_before_writing(self, toy_run, capsys):
        # the change threshold and the DOT edge cut are audit.CHANGE_THRESHOLD_M
        # and audit.MIN_EDGE, not keys: a config that sets either exits 2
        tmp_path, config = self.run_pipeline(toy_run)
        doc = json.loads(config.read_text())
        for key, value in [("threshold_m", 0), ("min_edge", 1.5)]:
            config.write_text(json.dumps({**doc, key: value}))
            assert cli.main(["audit", "--config", str(config),
                             "--posteriors", str(tmp_path / "out" / "posteriors")]) == 2
            err = capsys.readouterr().err
            assert f"{config}: unknown key(s) '{key}'" in err, err
            assert not (tmp_path / "out" / "audit").exists()

    @pytest.mark.parametrize("stacks, relabel", [
        (["t0", "t1"], lambda layers: ["x" + name for name in layers]),
        (["t1"], lambda layers: ["x" + name for name in layers]),
        (["t0"], lambda layers: layers[::-1]),
    ], ids=["all-relabelled", "one-relabelled", "reordered"])
    def test_posterior_categories_not_the_priors_exit_2(self, toy_run, capsys, stacks,
                                                          relabel):
        tmp_path, config = self.run_pipeline(toy_run)
        posteriors = tmp_path / "out" / "posteriors"
        for label in stacks:  # rename each layer in the manifest and on disk
            stack = posteriors / label
            doc = json.loads((stack / "manifest.json").read_text())
            layers = relabel(doc["layers"])
            for name in doc["layers"]:
                (stack / f"{name}.f32").rename(stack / f"{name}.old")
            for old, new in zip(doc["layers"], layers):
                (stack / f"{old}.old").rename(stack / f"{new}.f32")
            (stack / "manifest.json").write_text(json.dumps({**doc, "layers": layers}))
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(posteriors)]) == 2
        assert f"{posteriors / stacks[0]}: categories" in capsys.readouterr().err
        assert not (tmp_path / "out" / "audit").exists()

    def test_posterior_of_another_extent_exits_2(self, toy_run, capsys):
        tmp_path, config = self.run_pipeline(toy_run)
        posteriors = tmp_path / "out" / "posteriors"
        stack = posteriors / "t1"
        post = gs.stack_to_field(gs.read_grid_stack(stack), gs.StackKind.POSTERIOR, "t1")
        cropped = replace(post, probs=post.probs[:8], valid=post.valid[:8])
        gs.write_grid_stack(gs.field_to_stack(cropped, gs.StackKind.POSTERIOR), stack)
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(posteriors)]) == 2
        err = capsys.readouterr().err
        assert f"{stack}: extent 16x8" in err and "16x16" in err, err
        assert not (tmp_path / "out" / "audit").exists()

    def test_one_walk_builds_each_distribution_once(self, toy_run3, monkeypatch):
        tmp_path, config = toy_run3
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        built = []
        real_extended = au._extended_distribution

        def extended_distribution(post):
            built.append(post.timestep)
            return real_extended(post)

        monkeypatch.setattr(au, "_extended_distribution", extended_distribution)
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(tmp_path / "out" / "posteriors")]) == 0
        assert built == ["t0", "t1", "t2"]

    def test_rerun_with_another_region_leaves_no_stale_file(self, toy_run):
        tmp_path, config = self.run_pipeline(toy_run)
        out = tmp_path / "out" / "audit"
        for name in ("harbor", "quay"):
            write_config(config, tmp_path / "data", tmp_path / "out",
                         regions=[{"name": name, "x": 0, "y": 0, "width": 8, "height": 8}])
            assert cli.main(["audit", "--config", str(config),
                             "--posteriors", str(tmp_path / "out" / "posteriors")]) == 0
            assert (out / f"trend_{name}.csv").is_file()
        index = json.loads((out / "index.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(index["artifacts"] + ["index.json"])
        assert not (out / "trend_harbor.csv").exists()
        assert not list(out.parent.glob(".audit*"))  # no staged directory left behind

    def test_failed_rewrite_keeps_previous_file(self, toy_run, monkeypatch):
        tmp_path, config = self.run_pipeline(toy_run)
        argv = ["audit", "--config", str(config),
                "--posteriors", str(tmp_path / "out" / "posteriors")]
        assert cli.main(argv) == 0
        out = tmp_path / "out" / "audit"
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        echo = (out.parent / "audit_config_echo.json").read_bytes()
        real_write = Path.write_text

        def flaky_write(self, data, *args, **kwargs):
            if "transition_averaged.csv" in self.name:
                real_write(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("disk full")  # a crash or a full disk mid-write
            return real_write(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", flaky_write)
        assert cli.main(argv) == 2
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert (out.parent / "audit_config_echo.json").read_bytes() == echo  # kept with them

    def test_reads_only_the_prepared_prior(self, tmp_path):
        # the README 64 x 64 pipeline; audit must not need splits.json
        data, out = tmp_path / "data", tmp_path / "out"
        config = write_config(tmp_path / "config.json", data, out, tile_size=16,
                              upsample_factor=8, train={"epochs": 2})
        posteriors = ["--posteriors", str(out / "posteriors")]
        for argv in (["synth", "--spec", str(write_readme_spec(tmp_path / "spec.json")),
                      "--out", str(data)],
                     ["prepare", "--config", str(config)],
                     ["train", "--config", str(config)],
                     ["infer", "--config", str(config),
                      "--checkpoint", str(out / "checkpoint")],
                     ["audit", "--config", str(config), *posteriors]):
            assert cli.main(argv) == 0, argv
        (out / "audit").rename(tmp_path / "first_audit")
        (out / "prepared" / "splits.json").rename(tmp_path / "splits.json")
        assert cli.main(["audit", "--config", str(config), *posteriors]) == 0

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(out / "audit") == files(tmp_path / "first_audit")

    def test_single_timestep_warns_and_exits_zero(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", timesteps=1)
        cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")])
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out")
        cli.main(["prepare", "--config", str(config)])
        cli.main(["train", "--config", str(config)])
        cli.main(["infer", "--config", str(config),
                  "--checkpoint", str(tmp_path / "out" / "checkpoint")])
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(tmp_path / "out" / "posteriors")]) == 0
        assert "fewer than 2 timesteps" in capsys.readouterr().err
        assert not list((tmp_path / "out" / "audit").glob("transition_*"))

    def test_each_posterior_freed_before_the_next_is_read(self, toy_run3, monkeypatch):
        tmp_path, config = toy_run3
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        refs, read, live = [], [], []
        real_read_stack, real_read_field = gs.read_grid_stack, cli._read_field

        def read_stack(path, kind=None):
            stack = real_read_stack(path, kind)
            if kind is gs.StackKind.HEIGHT_SERIES:
                refs.extend(weakref.ref(obj) for g in stack.grids for obj in (g, g.values))
            return stack

        def read_field(path, kind, *args):
            if kind is not gs.StackKind.POSTERIOR:
                return real_read_field(path, kind, *args)
            gc.collect()
            live.append([ref for ref in refs if ref() is not None])
            field = real_read_field(path, kind, *args)
            read.append(field.timestep)
            refs.extend([weakref.ref(field.probs), weakref.ref(field.valid)])
            return field

        monkeypatch.setattr(gs, "read_grid_stack", read_stack)
        monkeypatch.setattr(cli, "_read_field", read_field)
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(tmp_path / "out" / "posteriors")]) == 0
        assert read == ["t0", "t1", "t2"]  # each posterior read once, in order
        assert len(refs) == 3 * 2 + 3 * 2  # each heights grid and its values, each posterior
        # the heights and every earlier posterior were freed before each read
        assert live == [[]] * 3

    def test_peak_memory_does_not_grow_with_timesteps(self, tmp_path):
        # Audit's traced peak on one 64 x 64 raster with random posteriors
        # (K=2) measured 190 bytes per pixel at T=2 and 234 at T=8 (ratio
        # 1.23): of each timestep only the float32 AD and change maps, 8
        # bytes per pixel, are kept. Loading every posterior before the walk
        # read 186 and 333 (ratio 1.79).
        peaks = []
        for t in (2, 8):
            run = tmp_path / f"t{t}"
            spec = write_spec(tmp_path / f"spec{t}.json", width=64, height_px=64, timesteps=t)
            assert cli.main(["synth", "--spec", str(spec), "--out", str(run / "data")]) == 0
            config = write_config(run / "c.json", run / "data", run / "out")
            assert cli.main(["prepare", "--config", str(config)]) == 0
            rng = np.random.default_rng(t)
            heights = gs.read_grid_stack(run / "data" / "heights")
            for label, grid in zip(heights.manifest.layer_labels, heights.grids):
                post = gs.CategoryField(["cat0", "cat1"], rng.dirichlet([1, 1], size=(64, 64)),
                                        grid.values > 0, label)
                gs.write_grid_stack(gs.field_to_stack(post, gs.StackKind.POSTERIOR),
                                    run / "out" / "posteriors" / label)
            del heights, post
            tracemalloc.start()
            try:
                assert cli.main(["audit", "--config", str(config),
                                 "--posteriors", str(run / "out" / "posteriors")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.4 * peaks[0], peaks

    @pytest.mark.parametrize("value, named, message", [
        (np.nan, "t2/cat1.f32", "non-finite value outside nodata sentinel"),
        (1.5, "t2", "range violation: POSTERIOR value outside [0,1]"),
    ], ids=["nan", "above-one"])
    def test_bad_value_in_the_last_posterior_keeps_previous_audit(self, toy_run3, capsys,
                                                                   value, named, message):
        # posterior values are read inside the staged directory, during the walk
        tmp_path, config = toy_run3
        posteriors = tmp_path / "out" / "posteriors"
        argv = ["audit", "--config", str(config), "--posteriors", str(posteriors)]
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        assert cli.main(argv) == 0
        out = tmp_path / "out" / "audit"
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        set_first_data_value(posteriors / "t2" / "cat1.f32", value)
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {posteriors / named}: {message}\n" == err, err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert not list(out.parent.glob(".audit*"))  # no staged directory left behind


class TestConfigHandling:
    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--epochs", "1"), ("train", "--seed", "1"), ("train", "--lr", "0.1"),
        ("audit", "--min-edge", "0.5"), ("audit", "--threshold-m", "1"),
    ], ids=["epochs", "seed", "lr", "min-edge", "threshold-m"])
    def test_removed_flag_exits_2_unrecognized(self, toy_run, capsys, command, flag, value):
        # a run's values are set in its config file only
        tmp_path, config = toy_run
        argv = [command, "--config", str(config), flag, value]
        if command == "audit":
            argv += ["--posteriors", str(tmp_path / "out" / "posteriors")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: [], "JSON object"),
        (lambda doc: {**doc, "train": [1]}, "JSON object"),
        (lambda doc: {**doc, "tile_sise": 8}, "tile_sise"),
        (lambda doc: {**doc, "train": {"learning_rte": 0.1}}, "learning_rte"),
        (lambda doc: {k: v for k, v in doc.items() if k != "heights"}, "heights"),
        (lambda doc: {**doc, "train": {"adam_eps": 1e-8}}, "adam_eps"),
        # fixed values, not keys: each exits 2 even when set to its fixed value
        (lambda doc: {**doc, "train": {"learning_rate": 1e-3}},
         "unknown key(s) 'learning_rate'"),
        (lambda doc: {**doc, "train": {"tau": 1.0}}, "unknown key(s) 'tau'"),
        (lambda doc: {**doc, "train": {"edge_dropout": 0.2}}, "unknown key(s) 'edge_dropout'"),
        # worked out from the training-node count, not set
        (lambda doc: {**doc, "train": {"n_subgraphs": 3}}, "unknown key(s) 'n_subgraphs'"),
        (lambda doc: {**doc, "train": {"loss_weights": [1.0, 1.0, 1.0]}},
         "unknown key(s) 'loss_weights'"),
        (lambda doc: {**doc, "split_ratios": [0.7, 0.15, 0.15]},
         "unknown key(s) 'split_ratios'"),
        (lambda doc: {**doc, "split_tolerance": 0.25}, "unknown key(s) 'split_tolerance'"),
        (lambda doc: {**doc, "min_edge": 0.05}, "config.json: unknown key(s) 'min_edge'"),
        (lambda doc: {**doc, "threshold_m": 1.5}, "config.json: unknown key(s) 'threshold_m'"),
        (lambda doc: {**doc, "split_seed": -1},
         "config.json: bad value: split_seed must be non-negative"),
        (lambda doc: {**doc, "train": {"seed": -3}},
         "config.json, section 'train': bad value: seed must be non-negative"),
        (lambda doc: {**doc, "tile_size": 0}, "config.json: bad value: tile_size must be >= 1"),
        (lambda doc: {**doc, "train": {"epochs": -1}},
         "config.json, section 'train': bad value: epochs must be non-negative"),
        (lambda doc: {**doc, "upsample_factor": 0},
         "config.json: bad value: upsample_factor must be >= 1"),
    ], ids=["list", "train-list", "unknown-key", "unknown-train-key", "missing-key",
            "removed-adam-key", "removed-learning-rate-key", "removed-tau-key",
            "removed-edge-dropout-key", "removed-n-subgraphs-key", "removed-loss-weights-key",
            "removed-split-ratios-key", "removed-split-tolerance-key", "removed-min-edge-key",
            "removed-threshold-m-key", "negative-split-seed", "negative-train-seed",
            "zero-tile-size", "negative-epochs", "zero-upsample-factor"])
    def test_bad_config_exits_2(self, toy_run, capsys, edit, named):
        tmp_path, config = toy_run
        config.write_text(json.dumps(edit(json.loads(config.read_text()))))
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("document, edit, named", [
        ("config", lambda doc: {**doc, "tile_size": 16.7}, "'tile_size'"),
        ("config", lambda doc: {**doc, "split_seed": True}, "'split_seed'"),
        ("config", lambda doc: {**doc, "train": {"epochs": 2.9}}, "'epochs'"),
        # a removed key is unknown whatever its value's type
        ("config", lambda doc: {**doc, "train": {"n_subgraphs": 1.5}},
         "unknown key(s) 'n_subgraphs'"),
        ("config", lambda doc: {**doc, "regions": [{"x": 1.5, "y": 0, "width": 4,
                                                    "height": 4}]}, "'x'"),
        ("spec", lambda doc: {**doc, "width": 64.9}, "'width'"),
        ("spec", lambda doc: {**doc, "seed": 42.7}, "'seed'"),
        # the spec has no labels list: generate names cat0, cat1, ...
        ("spec", lambda doc: {**doc, "labels": [1, 2]}, "unknown key(s) 'labels'"),
        ("spec", lambda doc: {**doc, "labels": "ab"}, "unknown key(s) 'labels'"),
        # the run config holds no float: the spec's corruption share is one
        ("spec", lambda doc: {**doc, "corruption": False}, "'corruption'"),
        ("spec", lambda doc: {**doc, "corruption": float("nan")}, "'corruption'"),
        ("spec", lambda doc: {**doc, "corruption": float("inf")}, "'corruption'"),
        ("spec", lambda doc: {**doc, "corruption": 10 ** 400}, "'corruption'"),
    ], ids=["float-tile-size", "bool-split-seed", "float-epochs",
            "float-removed-n-subgraphs-key", "float-region-x", "float-width", "float-seed",
            "int-labels", "string-labels", "bool-corruption", "nan-corruption",
            "infinite-corruption", "huge-corruption"])
    def test_scalar_of_wrong_type_exits_2(self, toy_run, capsys, document, edit, named):
        tmp_path, config = toy_run
        path = config if document == "config" else tmp_path / "data" / "synth_config_echo.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        argv = (["prepare", "--config", str(path)] if document == "config" else
                ["synth", "--spec", str(path), "--out", str(tmp_path / "again")])
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "again").exists()

    def test_config_echoes_load_back(self, toy_run):
        tmp_path, config = toy_run
        out = tmp_path / "out"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config)]) == 0
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(out / "checkpoint")]) == 0
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(out / "posteriors")]) == 0
        expected = schema.load(cli.RunConfig, config)
        for command in ("prepare", "train", "infer", "audit"):
            assert schema.load(cli.RunConfig, out / f"{command}_config_echo.json") == expected
        echo = tmp_path / "data" / "synth_config_echo.json"
        assert cli.main(["synth", "--spec", str(echo), "--out", str(tmp_path / "again")]) == 0

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["prepare", "--config", str(tmp_path / "nope.json")]) == 2

    def test_heights_of_another_extent_exit_2(self, toy_run, capsys):
        tmp_path, config = toy_run
        out = tmp_path / "out"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config)]) == 0
        spec = write_spec(tmp_path / "big.json", width=32, height_px=32)
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "big")]) == 0
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, "heights": str(tmp_path / "big" / "heights")}))
        capsys.readouterr()
        for argv in (["train"], ["infer", "--checkpoint", str(out / "checkpoint")],
                     ["audit", "--posteriors", str(out / "posteriors")]):
            assert cli.main(argv + ["--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert f"{tmp_path / 'big' / 'heights'}: extent 32x32" in err, err
            assert "16x16" in err, err
        assert not (out / "posteriors").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("x", "0", "'x'"),
        ("split", "holdout", "holdout"),
        ("h", -1, "8x-1"),
        # the first tile moved onto the second: the test split could hold training pixels
        ("x", 8, "tile 1 (8x8 at x=8, y=0) overlaps an earlier tile"),
        ("x", 1000, "tile 0 (8x8 at x=1000, y=0) leaves the 16x16 heights extent"),
        ("y", -1, "tile 0 (8x8 at x=0, y=-1) leaves the 16x16 heights extent"),
    ], ids=["string-coordinate", "unknown-split", "negative-height", "overlapping-tile",
            "tile-outside", "negative-origin"])
    def test_bad_splits_row_exits_2_naming_file(self, toy_run, capsys, key, value, named):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        path = tmp_path / "out" / "prepared" / "splits.json"
        doc = json.loads(path.read_text())
        doc["tiles"][0][key] = value
        path.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err, err
        assert not (tmp_path / "out" / "checkpoint").exists()

    def test_prepare_reads_its_splits_back_against_the_extent(self, toy_run, monkeypatch,
                                                              capsys):
        tmp_path, config = toy_run
        save = cli._save_splits

        def save_overlapping(splits, path):
            save(splits, path)
            doc = json.loads(path.read_text())
            doc["tiles"].append({**doc["tiles"][0], "split": "test"})
            path.write_text(json.dumps(doc))

        monkeypatch.setattr(cli, "_save_splits", save_overlapping)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "splits.json: tile 4 (8x8 at x=0, y=0) overlaps an earlier tile" in err, err
        assert not (tmp_path / "out" / "prepared").exists()
        assert not (tmp_path / "out" / "prepare_config_echo.json").exists()


def truncate(raw):
    return raw[:len(raw) // 2]


class TestMalformedJson:
    @pytest.mark.parametrize("name, edit, command", [
        ("config.json", truncate, "train"),
        ("out/prepared/splits.json", truncate, "train"),
        ("out/checkpoint/manifest.json", truncate, "infer"),
        ("data/heights/manifest.json", truncate, "train"),
        ("data/heights/manifest.json", lambda raw: edit_json(raw, width=16.0), "train"),
    ], ids=["truncated-config", "truncated-splits", "truncated-checkpoint-manifest",
            "truncated-heights-manifest", "float-heights-width"])
    def test_exits_2_naming_file_and_writes_nothing(self, toy_run, capsys, name, edit,
                                                    command):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        set_train(config, epochs=1)
        assert cli.main(["train", "--config", str(config)]) == 0
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes()))
        before = {p: (p.read_bytes(), p.stat().st_mtime_ns)
                  for p in tmp_path.rglob("*") if p.is_file()}
        argv = [command, "--config", str(config)]
        if command == "infer":
            argv += ["--checkpoint", str(tmp_path / "out" / "checkpoint")]
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err, err
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("name, key, command", [
    ("data/heights/manifest.json", "layers", "train"),
    ("out/checkpoint/manifest.json", "config", "infer"),
], ids=["heights-layers", "checkpoint-config"])
def test_missing_key_named_as_the_file_spells_it(toy_run, capsys, name, key, command):
    tmp_path, config = toy_run
    assert cli.main(["prepare", "--config", str(config)]) == 0
    set_train(config, epochs=1)
    assert cli.main(["train", "--config", str(config)]) == 0
    path = tmp_path / name
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(config)]
    if command == "infer":
        argv += ["--checkpoint", str(tmp_path / "out" / "checkpoint")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: missing key(s) {key!r}" in err, err
    assert "layer_labels" not in err


@pytest.mark.parametrize("name, key, value, command", [
    ("out/prepared/splits.json", "ratios", [0.7, 0.15, 0.15], "train"),
    ("out/checkpoint/manifest.json", "param_order", list(md.PARAM_ORDER), "infer"),
    ("out/checkpoint/manifest.json", "shapes",
     {name: list(shape) for name, shape in md.param_shapes(1, 2, md.DEFAULT_HIDDEN).items()},
     "infer"),
], ids=["splits-ratios", "checkpoint-param-order", "checkpoint-shapes"])
def test_old_format_exits_2_naming_file_and_key(toy_run, capsys, name, key, value, command):
    # a key that files of the earlier format held, with the value they held:
    # such a file is regenerated, not read with the key ignored
    tmp_path, config = toy_run
    assert cli.main(["prepare", "--config", str(config)]) == 0
    set_train(config, epochs=1)
    assert cli.main(["train", "--config", str(config)]) == 0
    path = tmp_path / name
    path.write_bytes(edit_json(path.read_bytes(), **{key: value}))
    argv = [command, "--config", str(config)]
    if command == "infer":
        argv += ["--checkpoint", str(tmp_path / "out" / "checkpoint")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: unknown key(s) {key!r}" in err, err


def test_json_files_hold_their_keys_only(toy_run):
    # splits, prep report and checkpoint each state a fact once: no
    # module constant, no value the reader derives, no flag held twice
    tmp_path, config = toy_run
    assert cli.main(["prepare", "--config", str(config)]) == 0
    set_train(config, epochs=1)
    assert cli.main(["train", "--config", str(config)]) == 0
    out = tmp_path / "out"
    splits, report, manifest = (
        json.loads((out / name).read_text()) for name in
        ("prepared/splits.json", "prepared/prep_report.json", "checkpoint/manifest.json"))
    assert sorted(splits) == ["balanced", "tiles"]
    assert {tuple(sorted(row)) for row in splits["tiles"]} == {("h", "split", "w", "x", "y")}
    assert sorted(report) == ["node_counts", "tile_category_histogram"]
    assert sorted(manifest) == ["config", "f_dim", "hidden", "k_cats", "norm"]
    assert sorted(manifest["norm"]) == ["mean", "std"]


@pytest.mark.parametrize("case, named, message", [
    ("nan-height", "data/heights/t1.f32", "non-finite value outside nodata sentinel"),
    ("posterior-above-one", "out/posteriors/t1",
     "range violation: POSTERIOR value outside [0,1]"),
    ("counts-of-another-kind", "data/heights", "expected PRIOR_COUNTS stack, got HEIGHT_SERIES"),
    ("heights-of-another-kind", "data/prior_counts",
     "expected HEIGHT_SERIES stack, got PRIOR_COUNTS"),
], ids=["nan-height", "posterior-above-one", "counts-of-another-kind",
        "heights-of-another-kind"])
def test_bad_stack_value_exits_2_naming_it(toy_run, capsys, case, named, message):
    tmp_path, config = toy_run
    argv = ["prepare", "--config", str(config)]
    if case == "nan-height":
        set_first_data_value(tmp_path / named, np.nan)
    elif case == "posterior-above-one":
        for stage in ("prepare", "train"):
            assert cli.main([stage, "--config", str(config)]) == 0
        assert cli.main(["infer", "--config", str(config),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint")]) == 0
        set_first_data_value(min((tmp_path / named).glob("*.f32")), 1.5)
        argv = ["audit", "--config", str(config),
                "--posteriors", str(tmp_path / "out" / "posteriors")]
    elif case == "counts-of-another-kind":
        write_config(config, tmp_path / "data", tmp_path / "out",
                     prior_counts=str(tmp_path / "data" / "heights"))
    else:
        write_config(config, tmp_path / "data", tmp_path / "out",
                     heights=str(tmp_path / "data" / "prior_counts"))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / named}: {message}\n" == err, err


@pytest.mark.parametrize("command", ["prepare", "infer", "audit"])
def test_heights_with_no_layers_exit_2_naming_the_manifest(toy_run3, capsys, command):
    # a heights manifest listing no layer would give no posterior at all, or
    # fail deep in a stage without naming a file; every output stays as it was
    tmp_path, config = toy_run3
    out = tmp_path / "out"
    argv = {"prepare": [], "infer": ["--checkpoint", str(out / "checkpoint")],
            "audit": ["--posteriors", str(out / "posteriors")]}
    for stage in ("infer", "audit"):
        assert cli.main([stage, "--config", str(config)] + argv[stage]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    manifest = tmp_path / "data" / "heights" / "manifest.json"
    manifest.write_bytes(edit_json(manifest.read_bytes(), layers=[]))
    capsys.readouterr()
    assert cli.main([command, "--config", str(config)] + argv[command]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: bad value: a stack needs at least one layer\n", err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_stack_of_another_kind_fails_before_its_layers_are_read(toy_run, capsys):
    # the kind is checked on the manifest, so a missing layer of a stack of
    # another kind is never reached
    tmp_path, config = toy_run
    counts = tmp_path / "data" / "prior_counts"
    (counts / "cat1.f32").unlink()
    write_config(config, tmp_path / "data", tmp_path / "out", heights=str(counts))
    out = tmp_path / "out"
    for argv in (["prepare"], ["train"], ["infer", "--checkpoint", str(out / "checkpoint")],
                 ["audit", "--posteriors", str(out / "posteriors")]):
        capsys.readouterr()
        assert cli.main(argv + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {counts}: expected HEIGHT_SERIES stack, got PRIOR_COUNTS\n", err


@pytest.mark.parametrize("command", ["synth", "prepare", "train", "infer", "audit"])
def test_failed_echo_write_leaves_no_echo(toy_run, monkeypatch, capsys, command):
    # a command echoes its config after it publishes its outputs: a rerun
    # that fails at the echo must not leave the previous run's echo beside them
    tmp_path, config = toy_run
    out = tmp_path / "out"
    argv = {"synth": ["--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")],
            "prepare": ["--config", str(config)],
            "train": ["--config", str(config)],
            "infer": ["--config", str(config), "--checkpoint", str(out / "checkpoint")],
            "audit": ["--config", str(config), "--posteriors", str(out / "posteriors")]}
    for name in ("prepare", "train", "infer", "audit"):
        assert cli.main([name, *argv[name]]) == 0
    echo = (tmp_path / "data" if command == "synth" else out) / f"{command}_config_echo.json"
    assert echo.is_file()
    real_write = gs.write_atomic

    def failing_echo_write(path, data):
        if Path(path).name.endswith("_config_echo.json"):
            raise OSError("disk full")
        return real_write(path, data)

    monkeypatch.setattr(gs, "write_atomic", failing_echo_write)
    capsys.readouterr()
    assert cli.main([command, *argv[command]]) == 2
    assert "disk full" in capsys.readouterr().err
    assert not echo.exists()


@pytest.mark.parametrize("command", ["prepare", "infer", "audit"])
def test_failed_swap_keeps_previous_directory_and_echo(toy_run, monkeypatch, capsys, command):
    # a staged command removes its old echo only once the new directory is in
    # place: a swap that fails after the old directory was moved aside moves it
    # back, and its echo stays beside it
    tmp_path, config = toy_run
    staged = {"prepare": "prepared", "infer": "posteriors", "audit": "audit"}[command]
    out = tmp_path / "out"
    argv = {"prepare": [], "train": [], "infer": ["--checkpoint", str(out / "checkpoint")],
            "audit": ["--posteriors", str(out / "posteriors")]}
    set_train(config, epochs=1)
    for name in argv:
        assert cli.main([name, "--config", str(config), *argv[name]]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / f"{command}_config_echo.json" in before
    doc = json.loads(config.read_text())
    config.write_text(json.dumps({**doc, "split_seed": 1}))  # a new echo would differ
    real_replace = os.replace

    def failing_swap(src, dst):
        if Path(src).name.startswith(f".{staged}.tmp-"):
            raise OSError("swap failed")
        return real_replace(src, dst)

    monkeypatch.setattr(gs.os, "replace", failing_swap)
    capsys.readouterr()
    assert cli.main([command, "--config", str(config), *argv[command]]) == 2
    assert "swap failed" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


class TestEndToEnd:
    def test_readme_transitions_match_ground_truth(self, tmp_path):
        # The README spec and a 16-pixel tiling of its 64 x 64 extent, with
        # the default 200 epochs. The planted map is static, so the counted
        # transitions are the identity over the categories; the largest
        # entry error measured 0.2416 (the cat1 diagonal reads 0.7584), and
        # the bound leaves a margin of 0.0584 above it.
        spec = write_readme_spec(tmp_path / "spec.json")
        data, out = tmp_path / "data", tmp_path / "out"
        config = write_config(tmp_path / "config.json", data, out, tile_size=16,
                              upsample_factor=8, train={})
        for argv in (["synth", "--spec", str(spec), "--out", str(data)],
                     ["prepare", "--config", str(config)],
                     ["train", "--config", str(config)],
                     ["infer", "--config", str(config),
                      "--checkpoint", str(out / "checkpoint")],
                     ["audit", "--config", str(config),
                      "--posteriors", str(out / "posteriors")]):
            assert cli.main(argv) == 0, argv
        rows = (out / "audit" / "transition_averaged.csv").read_text().splitlines()[1:]
        audited = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])

        truth = gs.read_grid_stack(data / "ground_truth")
        heights = gs.read_grid_stack(data / "heights")
        k = len(truth.grids)
        planted = np.stack([g.values for g in truth.grids]).argmax(axis=0)
        codes = [np.where(h.values > 0, planted, k).ravel() for h in heights.grids]
        counts = np.zeros((k + 1, k + 1))
        for a, b in zip(codes, codes[1:]):
            np.add.at(counts, (a, b), 1)
        counts[counts.sum(axis=1) == 0, k] = 1  # no source mass: pinned to NONE
        expected = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(expected[:k, :k], np.eye(k))
        error = np.abs(audited - expected).max()
        assert error < 0.30, error
