"""Acceptance suite. Each test prints one PASS/FAIL line; run with -s to see
them all, e.g. ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
import scipy.sparse as sp

import conftest
from vulnaudit import audit as au
from vulnaudit import cli
from vulnaudit import graph_build as gb
from vulnaudit import grid_store as gs
from vulnaudit import model as md
from vulnaudit import numcore as nc
from vulnaudit import synth as sy
from vulnaudit.grid_store import CategoryField
from vulnaudit.numcore import Tape, Var

from oracles import (aitchison_double_loop, central_difference,
                     dense_normalized_adjacency, max_relative_error)


def report(n, name, ok, detail):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {n} ({name}): {detail}"


def full_grid_graph(values):
    arr = np.asarray(values, dtype=np.float32)
    grid = gs.RasterGrid(arr.shape[1], arr.shape[0], arr)
    return gb.build_graph(grid, [gb.Tile(0, 0, grid.width, grid.height_px)])


def training_loss(params, a_hat, x, prior_p, mask, gumbel_noise, tau=1.0):
    tape = Tape()
    enc = md.encode(params, a_hat, x, tape)
    v = nc.softmax_rows(tape, nc.scale(tape, nc.add_const(tape, enc.logits, gumbel_noise),
                                       1.0 / tau))
    recon = md.decode(params, a_hat, v, tape)
    terms = [md.loss_rec(tape, recon, x),
             md.loss_kl(tape, enc.probabilities, prior_p, mask),
             md.loss_ce(tape, enc.probabilities, prior_p, mask)]
    return tape, nc.weighted_sum(tape, terms, [1.0, 1.0, 1.0])


def random_posterior_field(rng, h, w, k, p_valid, timestep):
    valid = rng.random((h, w)) < p_valid
    probs = rng.dirichlet(np.ones(k), size=(h, w))
    probs = np.where(valid[:, :, None], probs, -1.0)
    return CategoryField([f"c{i}" for i in range(k)], probs, valid, timestep)


def _relu_kink_margin(params, a_hat, x, g):
    """Smallest |pre-activation| across the ReLU layers of the frozen forward.

    Central differences are only a valid oracle when no pre-activation sits
    within the step h of the kink, so the seed below was chosen to keep this
    margin above h."""
    w = params.weights
    z1 = (a_hat @ x) @ w["enc_w1"] + w["enc_b1"]
    z2 = (a_hat @ np.maximum(z1, 0)) @ w["enc_w2"] + w["enc_b2"]
    logits = (a_hat @ np.maximum(z2, 0)) @ w["enc_w3"] + w["enc_b3"]
    v = nc.softmax_values(logits + g)
    zd1 = (a_hat @ v) @ w["dec_w1"] + w["dec_b1"]
    zd2 = (a_hat @ np.maximum(zd1, 0)) @ w["dec_w2"] + w["dec_b2"]
    return min(float(np.abs(z).min()) for z in (z1, z2, zd1, zd2))


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(1285)
    graph = full_grid_graph(rng.uniform(0.5, 8.0, size=(5, 5)))
    assert graph.n_nodes == 25
    a_hat = gb.normalize_adjacency(graph)
    x, _ = gb.log_normalize(graph.features)
    params = md.ModelParams.initialize(f_dim=1, k_cats=3, seed=1285)  # hidden 25
    prior_p = rng.dirichlet(np.ones(3), size=25)
    mask = np.ones(25, dtype=bool)  # full prior
    g = md.sample_gumbel((25, 3), rng)
    assert _relu_kink_margin(params, a_hat, x, g) > 1.5e-4

    tape, total = training_loss(params, a_hat, x, prior_p, mask, g)
    analytic = nc.backward(tape, total)

    def loss():
        _, t = training_loss(params, a_hat, x, prior_p, mask, g)
        return float(t.value)

    numeric = central_difference(loss, params.weights, h=1e-4)
    rel = max_relative_error(analytic, numeric)
    elapsed = time.monotonic() - started
    n_params = sum(w.size for w in params.weights.values())
    report(1, "gradient correctness",
           rel < 1e-4 and elapsed < 60.0,
           f"max rel err {rel:.3e} over {n_params} params in {elapsed:.1f}s")


def test_criterion_2_metric_oracles():
    ad = au.aitchison_distance([0.8, 0.2], [0.2, 0.8])
    ad_closed = np.sqrt(2.0) * np.log(4.0)
    ad_loop = aitchison_double_loop([0.8, 0.2], [0.2, 0.8], 1e-6)
    ok_ad = abs(ad - ad_closed) < 1e-9 and abs(ad - ad_loop) < 1e-9

    kl = md.loss_kl(Tape(), Var(np.array([[0.75, 0.25]])),
                    np.array([[0.25, 0.75]]), np.array([True])).value
    ok_kl = abs(kl - 0.5 * np.log(3.0)) < 1e-12

    sm = nc.softmax_values(np.array([0.0, np.log(3.0)]))
    ok_sm = np.max(np.abs(sm - [0.25, 0.75])) < 1e-12

    report(2, "metric oracles", ok_ad and ok_kl and ok_sm,
           f"AD err {abs(ad - ad_closed):.1e}, KL err {abs(kl - 0.5 * np.log(3.0)):.1e}, "
           f"softmax err {np.max(np.abs(sm - [0.25, 0.75])):.1e}")


def test_criterion_3_simplex_and_stochasticity():
    rng = np.random.default_rng(1003)
    rows = nc.softmax_values(rng.normal(size=(100_000, 5)) * 8.0)
    worst_row = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
    ok_rows = worst_row <= 1e-9

    worst_tm = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        posts = [random_posterior_field(rng, 5, 5, k, rng.random(), f"t{i}")
                 for i in range(t)]
        tm = au.transition_matrix(posts, "averaged")
        worst_tm = max(worst_tm, float(np.max(np.abs(tm.normalized.sum(axis=1) - 1.0))))
    ok_tm = worst_tm <= 1e-9

    logits = np.array([0.4, -0.6, 1.2, 0.0])
    draws = md.gumbel_softmax_sample(np.tile(logits, (100_000, 1)), 1.0, rng)
    freq = np.bincount(draws.argmax(axis=1), minlength=4) / len(draws)
    gap = float(np.max(np.abs(freq - nc.softmax_values(logits))))
    ok_gumbel = gap <= 0.02

    report(3, "simplex and stochasticity", ok_rows and ok_tm and ok_gumbel,
           f"posterior-row err {worst_row:.1e}, transition-row err {worst_tm:.1e}, "
           f"gumbel argmax gap {gap:.4f}")


def test_criterion_4_structural_equivalence():
    rng = np.random.default_rng(1004)
    worst_spmm = 0.0
    for _ in range(100):
        r, c, k = rng.integers(1, 101, size=3)
        dense = rng.normal(size=(r, c)) * (rng.random((r, c)) < 0.2)
        x = rng.normal(size=(c, k))
        out = nc.gcn_layer(Tape(), sp.csr_matrix(dense), Var(x), Var(np.eye(k)),
                           Var(np.zeros(k)), False)
        worst_spmm = max(worst_spmm, float(np.max(np.abs(out.value - dense @ x))))
    ok_spmm = worst_spmm < 1e-12

    worst_adj = 0.0
    for w in range(1, 6):
        for h in range(1, 6):
            patterns = [np.ones((h, w))]
            for _ in range(3):
                vals = np.where(rng.random((h, w)) < 0.7,
                                rng.uniform(0.5, 5.0, size=(h, w)), 0.0)
                if (vals > 0).any():
                    patterns.append(vals)
            for vals in patterns:
                graph = full_grid_graph(vals)
                a_hat = gb.normalize_adjacency(graph)
                oracle = dense_normalized_adjacency(graph.adjacency.toarray())
                worst_adj = max(worst_adj,
                                float(np.max(np.abs(a_hat.toarray() - oracle))))
    ok_adj = worst_adj < 1e-12

    posts = [random_posterior_field(rng, 4, 5, 3, 0.8, f"t{i}") for i in range(5)]
    averaged = au.transition_matrix(posts, "averaged").raw
    mean_raw = np.mean([au.transition_matrix([a, b], "one_step").raw
                        for a, b in zip(posts, posts[1:])], axis=0)
    worst_avg = float(np.max(np.abs(averaged - mean_raw)))
    ok_avg = worst_avg < 1e-12

    report(4, "structural equivalence", ok_spmm and ok_adj and ok_avg,
           f"spmm diff {worst_spmm:.1e}, adjacency diff {worst_adj:.1e}, "
           f"averaged-transition diff {worst_avg:.1e}")


def test_criterion_5_synthetic_recovery(tmp_path):
    started = time.monotonic()
    spec = sy.default_spec(width=64, height_px=64, timesteps=3, k=3,
                           block_size=8, seed=42, corruption=0.2)
    sy.write_dataset(spec, tmp_path / "data")
    # default 450px tiles would produce a single tile and an empty test split,
    # so the run config tiles the 64px extent at 16px
    cfg = cli.RunConfig(
        heights=str(tmp_path / "data" / "heights"),
        prior_counts=str(tmp_path / "data" / "prior_counts"),
        out_dir=str(tmp_path / "out"),
        tile_size=16, upsample_factor=8,
        train=md.TrainConfig())  # defaults: 200 epochs (< 500), seed 0
    assert cli.cmd_prepare(cfg) == 0
    assert cli.cmd_train(cfg) == 0
    assert cli.cmd_infer(cfg, str(tmp_path / "out" / "checkpoint")) == 0

    truth = gs.read_grid_stack(tmp_path / "data" / "ground_truth")
    gt_codes = np.stack([g.values for g in truth.grids]).argmax(axis=0)
    prior = gs.stack_to_field(
        gs.read_grid_stack(tmp_path / "out" / "prepared" / "prior_proportions"),
        gs.StackKind.PRIOR_PROPORTIONS)
    splits = cli._load_splits(tmp_path / "out" / "prepared" / "splits.json")
    test_mask = np.zeros((64, 64), dtype=bool)
    for t in splits.test:
        test_mask[t.origin_y:t.origin_y + t.height,
                  t.origin_x:t.origin_x + t.width] = True
    assert test_mask.any(), "test split is empty"

    heights = gs.read_grid_stack(tmp_path / "data" / "heights")
    prior_pred = prior.probs.argmax(axis=2)
    accs, bases, majorities = [], [], []
    for label, hgrid in zip(heights.manifest.layer_labels, heights.grids):
        post = md.stack_to_posterior(
            gs.read_grid_stack(tmp_path / "out" / "posteriors" / label), label)
        nodes = test_mask & post.valid & (hgrid.values > 0)
        accs.append(float((post.probs.argmax(axis=2)[nodes] == gt_codes[nodes]).mean()))
        correct = (prior_pred[nodes] == gt_codes[nodes]) & prior.valid[nodes]
        bases.append(float(correct.mean()))
        # the accuracy of always answering the most common true category
        majorities.append(float(np.bincount(gt_codes[nodes]).max() / nodes.sum()))
    accuracy = float(np.mean(accs))
    baseline = float(np.mean(bases))
    elapsed = time.monotonic() - started
    report(5, "synthetic recovery",
           accuracy >= 0.80 and accuracy >= baseline + 0.10 and elapsed < 600.0,
           f"accuracy {accuracy:.4f} vs baseline {baseline:.4f} "
           f"(margin {accuracy - baseline:+.4f}; majority-category share "
           f"{np.mean(majorities):.4f}) in {elapsed:.1f}s")


def test_criterion_6_determinism(tmp_path):
    spec = sy.SyntheticSpec(16, 16, 2, 2, [0.5, 2.0], [0.3, 0.3],
                            block_size=4, seed=5, corruption=0.1)
    sy.write_dataset(spec, tmp_path / "data")

    def run(out_dir):
        cfg = cli.RunConfig(
            heights=str(tmp_path / "data" / "heights"),
            prior_counts=str(tmp_path / "data" / "prior_counts"),
            out_dir=str(out_dir), tile_size=8, upsample_factor=4,
            train=md.TrainConfig(epochs=5, seed=3))
        assert cli.cmd_prepare(cfg) == 0
        assert cli.cmd_train(cfg) == 0
        assert cli.cmd_infer(cfg, str(out_dir / "checkpoint")) == 0
        assert cli.cmd_audit(cfg, str(out_dir / "posteriors")) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")

    mismatches = []
    targets = ["losses.csv"]
    targets += [f"checkpoint/{p.name}"
                for p in sorted((tmp_path / "run1" / "checkpoint").iterdir())]
    targets += [f"audit/{p.name}"
                for p in sorted((tmp_path / "run1" / "audit").glob("transition_*.csv"))]
    for rel in targets:
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        if a != b:
            mismatches.append(rel)
    report(6, "determinism", not mismatches,
           f"{len(targets)} artifacts byte-compared"
           + (f", mismatches: {mismatches}" if mismatches else ", all identical"))


def test_criterion_7_format_round_trip(tmp_path):
    rng = np.random.default_rng(1007)
    kinds = list(gs.StackKind)
    failures = 0
    for i in range(1000):
        width = int(rng.integers(1, 7))
        height = int(rng.integers(1, 7))
        kind = kinds[int(rng.integers(0, len(kinds)))]
        labels = [f"l{j}" for j in range(int(rng.integers(1, 4)))]
        grids = []
        for _ in labels:
            if kind in (gs.StackKind.PRIOR_PROPORTIONS, gs.StackKind.POSTERIOR):
                vals = rng.random((height, width)).astype(np.float32)
            else:
                vals = (rng.normal(size=(height, width)) * 20).astype(np.float32)
            vals[rng.random((height, width)) < 0.25] = np.float32(-1.0)
            grids.append(gs.RasterGrid(width, height, vals))
        stack = gs.GridStack(gs.StackManifest(kind, width, height, labels), grids)
        path = tmp_path / f"s{i}"
        gs.write_grid_stack(stack, path)
        if not gs.stacks_equal(stack, gs.read_grid_stack(path)):
            failures += 1
    report(7, "format round-trip", failures == 0,
           f"{failures} of 1000 fuzzed stacks failed bit-exact read(write(s)) == s")


def test_criterion_8_change_map_boundary():
    base = gs.RasterGrid(4, 1, np.zeros((1, 4), dtype=np.float32))
    deltas = np.array([[1.5, 1.5 + 1e-6, -1.5, -1.5 - 1e-6]], dtype=np.float32)
    # negative heights are not meaningful, so realize negative deltas by
    # swapping which raster carries the magnitude
    h_t = gs.RasterGrid(4, 1, np.where(deltas < 0, -deltas, 0.0).astype(np.float32))
    h_t1 = gs.RasterGrid(4, 1, np.where(deltas > 0, deltas, 0.0).astype(np.float32))
    got = au.change_map(h_t, h_t1, 1.5).grid.values[0]
    expected = np.array([0.0, 1.0, 0.0, -1.0])
    ok = np.array_equal(got, expected)
    report(8, "change-map boundary", ok, f"codes {got.tolist()} == {expected.tolist()}")
