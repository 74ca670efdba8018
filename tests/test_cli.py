import gc
import hashlib
import json
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vulnaudit import audit as au
from vulnaudit import cli
from vulnaudit import graph_build as gb
from vulnaudit import grid_store as gs
from vulnaudit import model as md
from vulnaudit import synth as sy


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


def write_readme_spec(path):
    """The README's 64 x 64 example spec."""
    return write_spec(path, width=64, height_px=64, timesteps=3, k=3,
                      mean_log_heights=[0.5, 1.5, 2.5], std_log_heights=[0.3, 0.3, 0.3],
                      block_size=8, seed=42, corruption=0.2)


def edit_json(raw, **changes):
    """JSON bytes with the given top-level keys set."""
    return json.dumps({**json.loads(raw), **changes}).encode()


@pytest.fixture
def toy_run(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
    config = write_config(tmp_path / "config.json", tmp_path / "data", tmp_path / "out")
    return tmp_path, config


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
        (lambda doc: {**doc, "labels": ["a", "b", "c"]}, "labels"),
        (lambda doc: {**doc, "mean_log_heights": [0.5, float("inf")]}, "mean_log_heights"),
        (lambda doc: {**doc, "mean_log_heights": [0.5, float("nan")]}, "mean_log_heights"),
        (lambda doc: {**doc, "std_log_heights": [0.3, -0.1]}, "std_log_heights"),
        (lambda doc: {**doc, "std_log_heights": [float("nan"), 0.3]}, "std_log_heights"),
        (lambda doc: {**doc, "n_blobs": -5}, "n_blobs"),
        (lambda doc: {**doc, "n_blobs": 0}, "n_blobs"),
    ], ids=["list", "unknown-key", "zero-width", "negative-height", "labels-not-k",
            "inf-mean", "nan-mean", "negative-std", "nan-std", "negative-blobs",
            "zero-blobs"])
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
        assert report["norm_std"] > 0

    def test_norm_stats_equal_pooled_graph_features(self, toy_run):
        tmp_path, config = toy_run
        # zero and nodata heights must stay out of the pool, as they are not nodes
        heights = gs.read_grid_stack(tmp_path / "data" / "heights")
        heights.grids[0].values[::3, ::3] = 0.0
        heights.grids[1].values[1::4, 2::4] = heights.grids[1].nodata
        gs.write_grid_stack(heights, tmp_path / "data" / "heights")
        assert cli.main(["prepare", "--config", str(config)]) == 0
        prepared = tmp_path / "out" / "prepared"
        report = json.loads((prepared / "prep_report.json").read_text())
        train_tiles = [gb.Tile(r["x"], r["y"], r["w"], r["h"]) for r in
                       json.loads((prepared / "splits.json").read_text())["tiles"]
                       if r["split"] == "train"]
        pooled = np.concatenate([gb.build_graph(g, train_tiles).features.ravel()
                                 for g in heights.grids])
        _, expected = gb.log_normalize(pooled)
        assert (report["norm_mean"], report["norm_std"]) == (expected.mean, expected.std)

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
            if self.parent == prepared and name in self.name:
                real_write(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("disk full")  # a crash or a full disk mid-write
            return real_write(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", flaky_write)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        monkeypatch.undo()
        assert (prepared / name).read_bytes() == before
        assert sorted(p.name for p in prepared.iterdir()) == \
            ["prep_report.json", "prior_proportions", "splits.json"]

    def test_rerun_byte_identical_splits(self, toy_run):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        first = (tmp_path / "out" / "prepared" / "splits.json").read_bytes()
        cli.main(["prepare", "--config", str(config)])
        assert (tmp_path / "out" / "prepared" / "splits.json").read_bytes() == first

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
        # the prior and posterior codecs were merged; prep_report.json is left
        # out, as its float reductions may differ by platform
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
                "f5c1b03882a67520269f156892593cf2834b02003bc0d966b3823ce08c31da6a",
        }

    def test_undersized_prior_rejected(self, tmp_path, capsys):
        self.write_hand_built(tmp_path, side=6)
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                              tile_size=3, upsample_factor=2)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert "upsample_factor" in capsys.readouterr().err


class TestTrain:
    def test_zero_epochs_keeps_initial_params(self, toy_run):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        assert cli.main(["train", "--config", str(config), "--epochs", "0"]) == 0
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
                                       "train_total", "val_rec", "val_kl", "val_ce",
                                       "val_total"]
        assert len(lines) == 4  # 3 epochs

    def test_diverging_run_exits_3(self, toy_run, capsys):
        tmp_path, config = toy_run
        cli.main(["prepare", "--config", str(config)])
        with pytest.warns(RuntimeWarning) as caught:
            assert cli.main(["train", "--config", str(config), "--lr", "1e300"]) == 3
        # the deliberate divergence: lr 1e300 overflows float32 in Adam's update,
        # which then multiplies inf by 0, and the next forward adds NaNs in gcn_layer
        assert {(Path(w.filename).name, str(w.message)) for w in caught} == {
            ("model.py", "overflow encountered in cast"),
            ("model.py", "invalid value encountered in multiply"),
            ("numcore.py", "invalid value encountered in add")}
        err = capsys.readouterr().err
        assert re.search(r"epoch \d+, timestep '(t0|t1)', subgraph \d+: "
                         r"gcn_layer produced non-finite values", err), err

    def test_zero_mass_prior_exits_2_naming_stack(self, toy_run, capsys):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        path = tmp_path / "out" / "prepared" / "prior_proportions"
        stack = gs.read_grid_stack(path)
        for grid in stack.grids:
            grid.values[grid.valid_mask()] = 0.0
        gs.write_grid_stack(stack, path)
        assert cli.main(["train", "--config", str(config)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_train_without_prepare_exits_2(self, toy_run):
        tmp_path, config = toy_run
        assert cli.main(["train", "--config", str(config)]) == 2

    @pytest.mark.parametrize("key, value, named", [
        ("norm_std", None, "norm_std"),
        ("norm_mean", float("nan"), "norm_mean"),
        ("norm_std", float("inf"), "norm_std"),
        ("norm_std", 0.0, "positive std"),
        ("norm_std", -1.0, "positive std"),
    ], ids=["missing-key", "nan-mean", "infinite-std", "zero-std", "negative-std"])
    def test_bad_prep_report_exits_2_naming_file(self, toy_run, capsys, key, value, named):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        path = tmp_path / "out" / "prepared" / "prep_report.json"
        doc = json.loads(path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err, err
        assert not (tmp_path / "out" / "checkpoint").exists()


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
        ("manifest.json", lambda raw: edit_json(raw, hidden=7), "shapes do not match"),
        ("manifest.json", lambda raw: edit_json(raw, norm_std=0), "positive std"),
        ("manifest.json", lambda raw: edit_json(raw, param_order=list(md.PARAM_ORDER[:-1])),
         "param_order"),
        ("enc_b1.f32", lambda raw: np.full(len(raw) // 4, np.nan, "<f4").tobytes(),
         "non-finite weights"),
        ("dec_w2.f32", lambda raw: raw[:-4], "4 per value"),
        ("manifest.json", lambda raw: edit_json(raw, norm_std=True), "'norm_std'"),
        ("manifest.json", lambda raw: edit_json(raw, norm_mean="0.25"), "'norm_mean'"),
        ("manifest.json", lambda raw: edit_json(
            raw, config={**json.loads(raw)["config"], "adam_eps": 1e-8}), "'adam_eps'"),
        ("manifest.json", lambda raw: edit_json(raw, notes="run 1"), "'notes'"),
    ], ids=["hidden", "zero-norm-std", "short-param-order", "nan-blob", "truncated-blob",
            "norm-std-true", "string-norm-mean", "config-unknown-key", "unknown-top-key"])
    def test_bad_checkpoint_exits_2_naming_file(self, toy_run, capsys, name, edit, named):
        tmp_path, config = toy_run
        ckpt = tmp_path / "out" / "checkpoint"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config), "--epochs", "1"]) == 0
        path = ckpt / name
        path.write_bytes(edit(path.read_bytes()))
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err, err
        assert not (tmp_path / "out" / "posteriors").exists()

    def test_missing_blob_exits_2_naming_it(self, toy_run, capsys):
        tmp_path, config = toy_run
        ckpt = tmp_path / "out" / "checkpoint"
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config), "--epochs", "1"]) == 0
        (ckpt / "dec_w2.f32").unlink()
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
        assert f"missing layer: {ckpt / 'dec_w2.f32'}" in capsys.readouterr().err


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
        assert cli.load_run_config(out / "audit_config_echo.json") == \
            cli.load_run_config(config)

    @pytest.mark.parametrize("region, named", [
        ({"x": 0, "y": 0, "width": 4, "height": 4, "colour": "red"}, "colour"),
        ({"x": 0, "y": 0, "width": 4}, "height"),
        ({"name": "a/b", "x": 0, "y": 0, "width": 4, "height": 4}, "a/b"),
        ({"name": "..", "x": 0, "y": 0, "width": 4, "height": 4}, ".."),
        ({"name": "a\\b", "x": 0, "y": 0, "width": 4, "height": 4}, "unusable"),
        ({"x": 10, "y": 0, "width": 10, "height": 4}, "out of bounds"),
        ({"x": 0, "y": -1, "width": 4, "height": 4}, "out of bounds"),
        ({"name": "ok", "x": 4, "y": 4, "width": 4, "height": 4}, "duplicate"),
    ], ids=["unknown-key", "missing-key", "slash-name", "dotdot-name",
            "backslash-name", "past-edge", "negative-origin", "duplicate-name"])
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

    def test_nonpositive_threshold_exits_2_before_writing(self, toy_run, capsys):
        tmp_path, config = self.run_pipeline(toy_run)
        for flag, value, key in [("--threshold-m", "0", "threshold_m"),
                                 ("--min-edge", "1.5", "min_edge")]:
            assert cli.main(["audit", "--config", str(config),
                             "--posteriors", str(tmp_path / "out" / "posteriors"),
                             flag, value]) == 2
            err = capsys.readouterr().err
            assert f"error: {flag}: " in err and key in err, err
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

    def test_failed_rewrite_keeps_previous_file(self, toy_run, monkeypatch):
        tmp_path, config = self.run_pipeline(toy_run)
        argv = ["audit", "--config", str(config),
                "--posteriors", str(tmp_path / "out" / "posteriors")]
        assert cli.main(argv) == 0
        out = tmp_path / "out" / "audit"
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
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

    def test_maps_dropped_before_transitions(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path / "spec.json", timesteps=3)
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        config = write_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out")
        self.run_pipeline((tmp_path, config))
        refs, inputs, live = [], [], []
        real_read_heights, real_read_field = cli._read_heights, cli._read_field

        def read_heights(*args):
            stack = real_read_heights(*args)
            inputs.extend(weakref.ref(obj) for g in stack.grids for obj in (g, g.values))
            return stack

        def read_field(path, kind, *args):
            field = real_read_field(path, kind, *args)
            if kind is gs.StackKind.PRIOR_PROPORTIONS:
                inputs.extend([weakref.ref(field.probs), weakref.ref(field.valid)])
            return field

        def keeping_ref(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                refs.append(weakref.ref(result.grid))
                return result
            return wrapper

        real_transition = au.transition_matrix

        def transition_matrix(*args, **kwargs):
            if not live:
                gc.collect()
                live.append([ref for ref in refs + inputs if ref() is not None])
            return real_transition(*args, **kwargs)

        monkeypatch.setattr(cli, "_read_heights", read_heights)
        monkeypatch.setattr(cli, "_read_field", read_field)
        monkeypatch.setattr(au, "ad_map", keeping_ref(au.ad_map))
        monkeypatch.setattr(au, "change_map", keeping_ref(au.change_map))
        monkeypatch.setattr(au, "transition_matrix", transition_matrix)
        assert cli.main(["audit", "--config", str(config),
                         "--posteriors", str(tmp_path / "out" / "posteriors")]) == 0
        assert len(refs) == 3 + 2  # an AD map per timestep, a change map per pair
        assert len(inputs) == 3 * 2 + 2  # each heights grid and its values, the prior
        # every map, the heights and the prior were freed before the first transition
        assert live == [[]]


class TestConfigHandling:
    def test_flag_overrides_win(self, toy_run):
        tmp_path, config = toy_run
        cfg = cli.load_run_config(config, {"epochs": 9, "lr": 0.5})
        assert cfg.train.epochs == 9
        assert cfg.train.learning_rate == 0.5

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "-1"),
                                             ("--epochs", "-1")],
                             ids=["nan-lr", "negative-lr", "negative-epochs"])
    def test_bad_train_flag_exits_2_naming_the_flag(self, toy_run, capsys, flag, value):
        tmp_path, config = toy_run
        assert cli.main(["train", "--config", str(config), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and str(config) not in err, err
        assert not (tmp_path / "out").exists()

    def test_config_file_is_checked_before_its_flags(self, toy_run, capsys):
        # a flag does not mend a bad value in the file: the file stands alone
        tmp_path, config = toy_run
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, "train": {"learning_rate": -1.0}}))
        assert cli.main(["train", "--config", str(config), "--lr", "0.1"]) == 2
        err = capsys.readouterr().err
        assert f"{config}, section 'train': bad value: learning_rate" in err, err

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: [], "JSON object"),
        (lambda doc: {**doc, "train": [1]}, "JSON object"),
        (lambda doc: {**doc, "tile_sise": 8}, "tile_sise"),
        (lambda doc: {**doc, "train": {"learning_rte": 0.1}}, "learning_rte"),
        (lambda doc: {k: v for k, v in doc.items() if k != "heights"}, "heights"),
        (lambda doc: {**doc, "split_ratios": [0.5, 0.5]}, "'split_ratios'"),
        (lambda doc: {**doc, "split_ratios": [0.25] * 4}, "'split_ratios'"),
        (lambda doc: {**doc, "train": {"loss_weights": [1.0, 1.0]}}, "'loss_weights'"),
        (lambda doc: {**doc, "train": {"n_subgraphs": 0}}, "n_subgraphs"),
        (lambda doc: {**doc, "train": {"learning_rate": -1.0}}, "learning_rate"),
        (lambda doc: {**doc, "train": {"adam_eps": 1e-8}}, "adam_eps"),
        (lambda doc: {**doc, "min_edge": -1}, "min_edge"),
        (lambda doc: {**doc, "min_edge": 2}, "min_edge"),
    ], ids=["list", "train-list", "unknown-key", "unknown-train-key", "missing-key",
            "two-ratios", "four-ratios", "two-loss-weights", "zero-subgraphs",
            "negative-learning-rate", "removed-adam-key", "negative-min-edge",
            "min-edge-above-one"])
    def test_bad_config_exits_2(self, toy_run, capsys, edit, named):
        tmp_path, config = toy_run
        config.write_text(json.dumps(edit(json.loads(config.read_text()))))
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("document, edit, named", [
        ("config", lambda doc: {**doc, "tile_size": 16.7}, "'tile_size'"),
        ("config", lambda doc: {**doc, "split_seed": True}, "'split_seed'"),
        ("config", lambda doc: {**doc, "min_edge": False}, "'min_edge'"),
        ("config", lambda doc: {**doc, "train": {"epochs": 2.9}}, "'epochs'"),
        ("config", lambda doc: {**doc, "train": {"n_subgraphs": 1.5}}, "'n_subgraphs'"),
        ("config", lambda doc: {**doc, "regions": [{"x": 1.5, "y": 0, "width": 4,
                                                    "height": 4}]}, "'x'"),
        ("spec", lambda doc: {**doc, "width": 64.9}, "'width'"),
        ("spec", lambda doc: {**doc, "seed": 42.7}, "'seed'"),
        ("spec", lambda doc: {**doc, "labels": [1, 2]}, "'labels'"),
        ("spec", lambda doc: {**doc, "labels": "ab"}, "'labels'"),
        ("config", lambda doc: {**doc, "train": {"learning_rate": float("nan")}},
         "'learning_rate'"),
        ("config", lambda doc: {**doc, "train": {"tau": float("inf")}}, "'tau'"),
        ("config", lambda doc: {**doc, "min_edge": 10 ** 400}, "'min_edge'"),
    ], ids=["float-tile-size", "bool-split-seed", "bool-min-edge", "float-epochs",
            "float-n-subgraphs", "float-region-x", "float-width", "float-seed",
            "int-labels", "string-labels", "nan-learning-rate", "infinite-tau",
            "huge-min-edge"])
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
        expected = cli.load_run_config(config)
        for command in ("prepare", "train", "infer", "audit"):
            assert cli.load_run_config(out / f"{command}_config_echo.json") == expected
        echo = tmp_path / "data" / "synth_config_echo.json"
        assert cli.main(["synth", "--spec", str(echo), "--out", str(tmp_path / "again")]) == 0

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["prepare", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_ratios_rejected(self, toy_run):
        tmp_path, config = toy_run
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(config, {"split_ratios": (0.5, 0.2, 0.2)})

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
        for argv in (["train"], ["infer", "--checkpoint", str(out / "checkpoint")]):
            assert cli.main(argv + ["--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert "32x32" in err and "16x16" in err, err
        assert not (out / "posteriors").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("x", "0", "'x'"),
        ("split", "holdout", "holdout"),
        ("h", -1, "8x-1"),
    ], ids=["string-coordinate", "unknown-split", "negative-height"])
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


def truncate(raw):
    return raw[:len(raw) // 2]


class TestMalformedJson:
    @pytest.mark.parametrize("name, edit, command", [
        ("config.json", truncate, "train"),
        ("out/prepared/splits.json", truncate, "train"),
        ("out/prepared/prep_report.json", truncate, "train"),
        ("out/checkpoint/manifest.json", truncate, "infer"),
        ("data/heights/manifest.json", truncate, "train"),
        ("data/heights/manifest.json", lambda raw: edit_json(raw, width=16.0), "train"),
    ], ids=["truncated-config", "truncated-splits", "truncated-prep-report",
            "truncated-checkpoint-manifest", "truncated-heights-manifest",
            "float-heights-width"])
    def test_exits_2_naming_file_and_writes_nothing(self, toy_run, capsys, name, edit,
                                                    command):
        tmp_path, config = toy_run
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config), "--epochs", "1"]) == 0
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
    assert cli.main(["train", "--config", str(config), "--epochs", "1"]) == 0
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
