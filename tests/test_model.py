import gc
import tracemalloc
import weakref
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from vulnaudit import graph_build as gb
from vulnaudit import model as md
from vulnaudit import numcore as nc
from vulnaudit.grid_store import CategoryField, GridStack, RasterGrid, StackKind, StackManifest
from vulnaudit.numcore import Tape, Var

from oracles import (central_difference, gcn_block_of, gcn_layer_saving_activations,
                     gcn_layer_width_ordered_saving_activations, gumbel_softmax_chain,
                     loss_ce_eager, loss_kl_eager, max_relative_error,
                     sample_epoch_from_whole_graph, softmax_reference)


def grid_graph(values):
    arr = np.asarray(values, dtype=np.float32)
    grid = RasterGrid(arr.shape[1], arr.shape[0], arr)
    return gb.build_graph(grid, [gb.Tile(0, 0, grid.width, grid.height_px)])


def zero_params(f_dim=1, k=3, hidden=4):
    params = md.ModelParams.initialize(f_dim, k, hidden, seed=0)
    for name in params.weights:
        params.weights[name][:] = 0.0
    return params


def random_params(f_dim=1, k=3, hidden=4, seed=1):
    return md.ModelParams.initialize(f_dim, k, hidden, seed=seed)


def mlp_reference(params, x):
    """Independent plain-numpy forward for a single isolated node (A_hat = [1])."""
    w = params.weights
    h = np.maximum(x @ w["enc_w1"] + w["enc_b1"], 0.0)
    h = np.maximum(h @ w["enc_w2"] + w["enc_b2"], 0.0)
    logits = h @ w["enc_w3"] + w["enc_b3"]
    return logits


class TestEncodeDecode:
    def test_zero_weights_give_uniform(self):
        graph = grid_graph(np.ones((3, 3)))
        a_hat = gb.normalize_adjacency(graph)
        enc = md.encode(zero_params(k=4, hidden=5), a_hat, graph.features)
        np.testing.assert_allclose(enc.probabilities.value, 0.25, atol=1e-15)

    def test_isolated_node_reduces_to_mlp(self):
        params = random_params(k=3, hidden=5, seed=7)
        a_hat = sp.csr_matrix(np.array([[1.0]]))
        x = np.array([[0.8]])
        enc = md.encode(params, a_hat, x)
        np.testing.assert_allclose(enc.logits.value, mlp_reference(params, x), atol=1e-12)
        np.testing.assert_allclose(enc.probabilities.value[0],
                                   softmax_reference(mlp_reference(params, x)[0]),
                                   atol=1e-12)

    def test_zero_weights_decode_to_zero(self):
        tape = Tape()
        a_hat = sp.csr_matrix(np.eye(2))
        v = Var(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = md.decode(zero_params(k=2), a_hat, v, tape)
        np.testing.assert_array_equal(out.value, np.zeros((2, 1)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        graph = grid_graph(rng.uniform(0.5, 5.0, size=(3, 4)))
        a_hat = gb.normalize_adjacency(graph)
        params = random_params(k=3, hidden=6, seed=2)
        x = rng.normal(size=(graph.n_nodes, 1))
        enc = md.encode(params, a_hat, x)

        perm = rng.permutation(graph.n_nodes)
        p_mat = np.eye(graph.n_nodes)[perm]
        a_perm = sp.csr_matrix(p_mat @ a_hat.toarray() @ p_mat.T)
        enc_p = md.encode(params, a_perm, p_mat @ x)
        np.testing.assert_allclose(enc_p.probabilities.value,
                                   p_mat @ enc.probabilities.value, atol=1e-12)

        tape = Tape()
        v = rng.dirichlet(np.ones(3), size=graph.n_nodes)
        dec = md.decode(params, a_hat, Var(v), tape)
        dec_p = md.decode(params, a_perm, Var(p_mat @ v), Tape())
        np.testing.assert_allclose(dec_p.value, p_mat @ dec.value, atol=1e-12)

    def test_feature_dimension_mismatch(self):
        graph = grid_graph(np.ones((2, 2)))
        a_hat = gb.normalize_adjacency(graph)
        with pytest.raises(ValueError, match="gcn_block layer 1 shape mismatch"):
            md.encode(random_params(f_dim=2), a_hat, graph.features)


class TestGumbelSoftmax:
    def test_simplex_membership(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = md.gumbel_softmax_sample(rng.normal(size=4) * 3, 1.0, rng)
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(v > 0.0) and np.all(v < 1.0)

    def test_low_tau_concentrates(self):
        rng = np.random.default_rng(1)
        logits = np.tile([10.0, 0.0, 0.0], (10_000, 1))
        draws = md.gumbel_softmax_sample(logits, 0.01, rng)
        assert np.mean(draws[:, 0] > 0.99) > 0.99

    def test_argmax_frequencies_match_softmax(self):
        rng = np.random.default_rng(2)
        logits = np.array([0.5, -0.3, 1.1, 0.0])
        draws = md.gumbel_softmax_sample(np.tile(logits, (100_000, 1)), 1.0, rng)
        freq = np.bincount(draws.argmax(axis=1), minlength=4) / len(draws)
        np.testing.assert_allclose(freq, softmax_reference(logits), atol=0.02)

    def test_entropy_non_increasing_in_tau(self):
        logits = np.tile([0.5, -0.2, 0.1], (10_000, 1))
        means = []
        for tau in (2.0, 1.0, 0.5, 0.1):
            rng = np.random.default_rng(9)  # common random numbers across taus
            draws = md.gumbel_softmax_sample(logits, tau, rng)
            entropy = -(draws * np.log(draws)).sum(axis=1)
            means.append(entropy.mean())
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_bad_tau(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            md.gumbel_softmax_sample(np.zeros(3), 0.0, rng)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                             ids=["nan", "inf", "minus-inf", "zero", "negative"])
    def test_tau_not_finite_positive_rejected(self, tau):
        # the draw scales by 1 / tau, which must be a finite positive number
        rng = np.random.default_rng(0)
        logits = np.zeros((1, 2))
        with pytest.raises(ValueError, match="tau must be a finite positive number"):
            md.gumbel_softmax_sample(logits, tau, rng)
        with pytest.raises(ValueError, match="tau must be a finite positive number"):
            md.gumbel_softmax_var(Tape(), Var(logits), tau, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tau", [md.GUMBEL_TAU, 0.3])
    def test_taped_draw_is_one_entry_with_the_chains_bits(self, dtype, tau):
        # the draw was add_const -> scale -> softmax_rows; it is one entry
        # now, with the same value and logits gradient to the bit
        logits = np.random.default_rng(4).normal(size=(500, 3)).astype(dtype) * 2
        dout = np.random.default_rng(5).normal(size=(500, 3)).astype(dtype)
        runs = []
        for draw in (lambda tape, v, rng: md.gumbel_softmax_var(tape, v, tau, rng),
                     lambda tape, v, rng: gumbel_softmax_chain(
                         tape, v, md.sample_gumbel(v.value.shape, rng).astype(dtype),
                         1.0 / tau)):
            tape = Tape()
            out = draw(tape, tape.param("logits", logits), np.random.default_rng(6))
            runs.append((len(tape._entries), out.value.tobytes()))
            loss = Var((out.value * dout).sum())
            tape.record(loss, lambda d, out=out: ((out, dout * d),))
            grad = nc.backward(tape, loss)["logits"]
            assert grad.dtype == dtype
            runs[-1] += (grad.tobytes(),)
        (ours_entries, *ours), (chain_entries, *chain) = runs
        assert (ours_entries, chain_entries) == (1, 3)
        assert ours == chain


class TestLosses:
    def as_matrix(self, *rows):
        return np.array(rows, dtype=float)

    def test_kl_zero_at_equality(self):
        tape = Tape()
        p = self.as_matrix([0.4, 0.6])
        out = md.loss_kl(tape, Var(p), p, np.array([True]))
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_kl_hand_value(self):
        tape = Tape()
        out = md.loss_kl(tape, Var(self.as_matrix([0.75, 0.25])),
                         self.as_matrix([0.25, 0.75]), np.array([True]))
        assert out.value == pytest.approx(0.5 * np.log(3.0), abs=1e-12)

    def test_kl_non_negative_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(k), size=5)
            q = rng.dirichlet(np.ones(k), size=5)
            out = md.loss_kl(Tape(), Var(p), q, np.ones(5, dtype=bool))
            assert out.value >= -1e-9
            # per-node as well, via single-row masks
            for i in range(5):
                mask = np.zeros(5, dtype=bool)
                mask[i] = True
                assert md.loss_kl(Tape(), Var(p), q, mask).value >= -1e-9

    def test_kl_empty_mask(self):
        out = md.loss_kl(Tape(), Var(self.as_matrix([0.5, 0.5])),
                         self.as_matrix([0.1, 0.9]), np.array([False]))
        assert out.value == 0.0

    def test_ce_one_hot_limit(self):
        prior = self.as_matrix([1.0, 0.0])
        out = md.loss_ce(Tape(), Var(self.as_matrix([1.0 - 1e-9, 1e-9])),
                         prior, np.array([True]))
        assert 0.0 <= out.value < 1e-8

    def test_ce_hand_value(self):
        out = md.loss_ce(Tape(), Var(self.as_matrix([0.5, 0.5])),
                         self.as_matrix([1.0, 0.0]), np.array([True]))
        assert out.value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_ce_minimized_at_prior_grid_search(self):
        prior = self.as_matrix([0.3, 0.7])
        grid = np.linspace(0.01, 0.99, 99)
        values = [md.loss_ce(Tape(), Var(self.as_matrix([p, 1.0 - p])),
                             prior, np.array([True])).value
                  for p in grid]
        assert grid[int(np.argmin(values))] == pytest.approx(0.3, abs=0.011)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("loss, eager", [(md.loss_kl, loss_kl_eager),
                                             (md.loss_ce, loss_ce_eager)], ids=["kl", "ce"])
    @pytest.mark.parametrize("has_prior", [0.7, 0.0], ids=["mask", "empty-mask"])
    def test_gradient_in_the_backward_has_the_eager_bits(self, dtype, loss, eager, has_prior):
        # the losses take their gradients in the backward; a forward that
        # computed them gave the same value and gradient to the bit
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(4), size=300).astype(dtype)
        p[:5, 0] = 0.0  # under the clamp
        prior_p = rng.dirichlet(np.ones(4), size=300).astype(dtype)
        mask = rng.random(300) < has_prior
        results = []
        for fn in (lambda tape, post: loss(tape, post, prior_p, mask),
                   lambda tape, post: eager(tape, post, prior_p, mask, md.CLAMP)):
            tape = Tape()
            out = fn(tape, tape.param("p", p))
            scaled = nc.weighted_sum(tape, [out], [-0.37])
            results.append((out.value.tobytes(), nc.backward(tape, scaled)["p"].tobytes()))
        assert results[0] == results[1]

    def test_rec_zero_and_hand_value(self):
        x = self.as_matrix([1.0], [2.0])
        assert md.loss_rec(Tape(), Var(x), x).value == 0.0
        out = md.loss_rec(Tape(), Var(self.as_matrix([0.0], [0.0])), x)
        assert out.value == pytest.approx(2.5)

    def test_rec_non_negative_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=(4, 2))
            b = rng.normal(size=(4, 2))
            assert md.loss_rec(Tape(), Var(a), b).value >= 0.0

    def test_rec_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"reconstruction shape \(2, 1\) != target \(1, 2\)"):
            md.loss_rec(Tape(), Var(self.as_matrix([1.0], [2.0])), self.as_matrix([1.0, 2.0]))


def build_forward(params, a_hat, x, prior_p, mask, gumbel_noise, tau=1.0,
                  weights=(1.0, 1.0, 1.0)):
    """The training loss with frozen gumbel noise, for gradient checking."""
    tape = Tape()
    enc = md.encode(params, a_hat, x, tape)
    v = nc.softmax_rows(tape, nc.scale(tape, nc.add_const(tape, enc.logits, gumbel_noise),
                                       1.0 / tau))
    recon = md.decode(params, a_hat, v, tape)
    terms = [md.loss_rec(tape, recon, x),
             md.loss_kl(tape, enc.probabilities, prior_p, mask),
             md.loss_ce(tape, enc.probabilities, prior_p, mask)]
    return tape, nc.weighted_sum(tape, terms, list(weights))


class TestGradients:
    def test_total_loss_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        graph = grid_graph(rng.uniform(0.5, 6.0, size=(2, 3)))
        a_hat = gb.normalize_adjacency(graph)
        x, _ = gb.log_normalize(graph.features)
        params = random_params(f_dim=1, k=2, hidden=3, seed=3)
        prior_p = rng.dirichlet(np.ones(2), size=graph.n_nodes)
        mask = np.ones(graph.n_nodes, dtype=bool)
        g = md.sample_gumbel((graph.n_nodes, 2), rng)

        tape, total = build_forward(params, a_hat, x, prior_p, mask, g)
        analytic = nc.backward(tape, total)

        def loss():
            _, t = build_forward(params, a_hat, x, prior_p, mask, g)
            return float(t.value)

        numeric = central_difference(loss, params.weights)
        assert max_relative_error(analytic, numeric) < 1e-4


def toy_dataset(seed=0, side=8, tile=4, timesteps=2):
    """Planted two-category field with separable heights and a one-hot prior."""
    rng = np.random.default_rng(seed)
    codes = (rng.random((side, side)) < 0.3).astype(int)
    mu = np.array([0.5, 2.0])[codes]
    grids = [RasterGrid(side, side,
                        np.exp(rng.normal(size=(side, side)) * 0.3 + mu).astype(np.float32))
             for _ in range(timesteps)]
    stack = GridStack(StackManifest(StackKind.HEIGHT_SERIES, side, side,
                                    [f"t{i}" for i in range(timesteps)]), grids)
    prior = CategoryField(["a", "b"], np.eye(2)[codes], np.ones((side, side), dtype=bool))
    tiles = gb.tile_region(side, side, tile)
    splits = gb.split_tiles(tiles, gb.dominant_categories(tiles, prior), (0.5, 0.25, 0.25),
                            seed=seed)
    return stack, prior, splits, codes


# node caps that cut the 12x12 toy datasets' 80 training nodes per timestep
# into 1 and 3 parts
BY_NODE_CAP = pytest.mark.parametrize("n_sub, cap", [(1, 80), (3, 27)], ids=["1", "3"])


class TestTrainStep:
    def setup_step(self):
        stack, prior, splits, _ = toy_dataset(seed=1, side=5, tile=5)
        graph = gb.build_graph(stack.grids[0], splits.train)  # raw heights
        _, stats = gb.log_normalize(graph.features)
        params = md.ModelParams.initialize(1, 2, hidden=6, seed=4)
        return params, graph, stats, prior

    def test_zero_learning_rate_is_noop(self):
        params, graph, stats, prior = self.setup_step()
        before = {k: v.copy() for k, v in params.weights.items()}
        breakdown = md.train_step(params, md.Adam(0.0), graph, stats, prior,
                                  np.random.default_rng(0))
        assert np.isfinite(breakdown.total)
        for name in before:
            np.testing.assert_array_equal(params.weights[name], before[name])

    def test_single_step_decreases_loss(self):
        params, graph, stats, prior = self.setup_step()
        prior_p, mask = md.node_prior(prior, graph)
        a_hat = gb.normalize_adjacency(graph)
        feats, _ = gb.log_normalize(graph.features, stats)

        def total():  # under one Gumbel draw, seeded the same both times
            return md._forward_losses(params, a_hat, feats, prior_p, mask,
                                      np.random.default_rng(3), Tape())[1].total

        before = total()
        md.train_step(params, md.Adam(1e-3), graph, stats, prior,
                      np.random.default_rng(7))
        assert total() < before

    def test_prior_rows_freed_once_the_loss_rules_have_run(self, monkeypatch):
        # only the KL and CE rules read the step's prior rows, so they are
        # freed before the decoder's rule, the first to run after the loss
        # rules: train_step keeps no reference of its own through the backward
        params, graph, stats, prior = self.setup_step()
        params = params.astype(np.float32)
        prior = md.ModelPrior.of(prior, np.float32)  # its rows need no cast
        refs, alive = [], []
        node_prior, block = md.node_prior, nc.gcn_block

        def recorded_rows(*args):
            rows, mask = node_prior(*args)
            refs.append(weakref.ref(rows))
            return rows, mask

        def probed_block(tape, a, h, layers):
            """gcn_block, its rule noting whether the prior rows are alive."""
            out = block(tape, a, h, layers)
            var, rule = tape._entries[-1]

            def probe(dout):
                alive.append(refs[0]() is not None)
                return rule(dout)

            tape._entries[-1] = (var, probe)
            return out

        monkeypatch.setattr(md, "node_prior", recorded_rows)
        monkeypatch.setattr(nc, "gcn_block", probed_block)
        md.train_step(params, md.Adam(1e-3), graph, stats, prior, np.random.default_rng(0))
        assert len(refs) == 1 and alive == [False, False]  # the decoder's rule, the encoder's

    def test_empty_graph_rejected(self):
        params, graph, stats, prior = self.setup_step()
        before = {k: v.copy() for k, v in params.weights.items()}
        empty = gb.build_graph(RasterGrid(5, 5, np.zeros((5, 5), np.float32)),
                               [gb.Tile(0, 0, 5, 5)])
        with pytest.raises(ValueError, match="empty subgraph"):
            md.train_step(params, md.Adam(1e-3), empty, stats, prior, np.random.default_rng(0))
        for name in before:
            np.testing.assert_array_equal(params.weights[name], before[name])

    @pytest.mark.parametrize("has_prior", [True, False], ids=["prior", "no-prior"])
    def test_float32_step_stays_float32(self, monkeypatch, has_prior):
        # with numpy 2 promotion one float64 array (a prior, a target, the
        # Gumbel noise, a 0-d loss of a node set without prior) would
        # silently upcast every product after it
        params, graph, stats, prior = self.setup_step()
        params = params.astype(np.float32)
        if not has_prior:
            prior = CategoryField(prior.categories, prior.probs, np.zeros_like(prior.valid))
        recorded, grads = [], {}
        record, backward = Tape.record, nc.backward

        def recording(tape, out, backward_fn):
            recorded.append(out.value.dtype)
            return record(tape, out, backward_fn)

        def keeping_grads(tape, loss):
            grads.update(backward(tape, loss))
            return grads

        monkeypatch.setattr(Tape, "record", recording)
        monkeypatch.setattr(nc, "backward", keeping_grads)
        optimizer = md.Adam(1e-3)
        md.train_step(params, optimizer, graph, stats, prior, np.random.default_rng(0))
        assert recorded and set(recorded) == {np.dtype(np.float32)}, recorded
        for name in md.PARAM_ORDER:
            for kind, arrays in (("weight", params.weights), ("gradient", grads),
                                 ("first moment", optimizer._m),
                                 ("second moment", optimizer._v)):
                assert arrays[name].dtype == np.float32, (kind, name, arrays[name].dtype)


class TestTrain:
    def test_zero_epochs_returns_initial(self):
        stack, prior, splits, _ = toy_dataset(seed=2)
        params = md.ModelParams.initialize(1, 2, seed=5)
        before = {k: v.copy() for k, v in params.weights.items()}
        result = md.train(params, stack, prior, splits, md.TrainConfig(epochs=0))
        assert result.history == []
        for name in before:
            np.testing.assert_array_equal(result.params.weights[name], before[name])

    def test_seed_determinism(self):
        stack, prior, splits, _ = toy_dataset(seed=3)
        config = md.TrainConfig(epochs=3, seed=11)
        r1 = md.train(md.ModelParams.initialize(1, 2, seed=1), stack, prior, splits, config)
        r2 = md.train(md.ModelParams.initialize(1, 2, seed=1), stack, prior, splits, config)
        assert r1.history == r2.history
        for name in r1.params.weights:
            np.testing.assert_array_equal(r1.params.weights[name],
                                          r2.params.weights[name])

    @BY_NODE_CAP
    def test_same_run_as_sampling_the_whole_graph(self, monkeypatch, n_sub, cap):
        stack, prior, splits, _ = toy_dataset(seed=6, side=12, tile=4, timesteps=2)
        config = md.TrainConfig(epochs=2, seed=4)
        monkeypatch.setattr(gb, "MAX_SUBGRAPH_NODES", cap)

        def run():
            return md.train(md.ModelParams.initialize(1, 2, hidden=5, seed=2),
                            stack, prior, splits, config)

        ours = run()
        calls = []

        def oracle(*args):
            calls.append(args[2])
            return iter(sample_epoch_from_whole_graph(*args))

        with monkeypatch.context() as patch:
            patch.setattr(md, "epoch_subgraphs", oracle)
            theirs = run()
        assert calls == [n_sub] * 4  # two epochs of two timesteps
        assert ours.history == theirs.history
        for name in md.PARAM_ORDER:
            assert (ours.params.weights[name].tobytes()
                    == theirs.params.weights[name].tobytes()), name

    def test_training_reduces_loss(self):
        stack, prior, splits, _ = toy_dataset(seed=4)
        config = md.TrainConfig(epochs=30, seed=2)
        result = md.train(md.ModelParams.initialize(1, 2, seed=2), stack, prior,
                          splits, config)
        assert result.history[-1].total < result.history[0].total

    def test_timestep_with_fewer_nodes_than_parts_is_named(self, monkeypatch):
        # the part count follows the largest timestep: t0's 80 training
        # nodes make 3 parts at a cap of 27, more than t1's 2
        stack, prior, splits, _ = toy_dataset(seed=6, side=12, tile=4, timesteps=2)
        tile = splits.train[0]
        sparse = np.zeros((12, 12), dtype=np.float32)
        sparse[tile.origin_y, tile.origin_x:tile.origin_x + 2] = 1.0
        stack.grids[1] = RasterGrid(12, 12, sparse)
        monkeypatch.setattr(gb, "MAX_SUBGRAPH_NODES", 27)
        with pytest.raises(ValueError, match="timestep 't1' has 2 training nodes, "
                                             "fewer than the 3 subgraphs of each epoch"):
            md.train(md.ModelParams.initialize(1, 2, seed=2), stack, prior, splits,
                     md.TrainConfig(epochs=1))

    def test_model_prior_trains_as_the_category_field(self):
        # cli.cmd_train hands train the prior already cast to float32; the
        # run is the one the float64 field gives, to the bit
        stack, prior, splits, _ = toy_dataset(seed=4)
        config = md.TrainConfig(epochs=2, seed=2)
        runs = [md.train(md.ModelParams.initialize(1, 2, seed=2).astype(np.float32), stack,
                         given, splits, config)
                for given in (prior, md.ModelPrior.of(prior, np.float32))]
        assert runs[0].history == runs[1].history
        for name in md.PARAM_ORDER:
            assert (runs[0].params.weights[name].tobytes()
                    == runs[1].params.weights[name].tobytes()), name

    def test_model_prior_casts_once(self):
        _, prior, _, _ = toy_dataset(seed=4)
        cast = md.ModelPrior.of(prior, np.float32)
        assert cast.probs.dtype == np.float32 and cast.valid is prior.valid
        again = md.ModelPrior.of(cast, np.float32)
        assert again.probs is cast.probs
        assert md.ModelPrior.of(prior, np.float64).probs is prior.probs

    def test_float32_training_tracks_float64(self):
        # The per-epoch loss totals of one run in float32 and in float64:
        # the largest relative gap measured 1.5e-7 over these 30 epochs
        # (2.1e-7 over 200), about one float32 ulp.
        stack, prior, splits, _ = toy_dataset(seed=4)
        config = md.TrainConfig(epochs=30, seed=2)
        runs = [md.train(md.ModelParams.initialize(1, 2, seed=2).astype(dtype), stack,
                         prior, splits, config).history for dtype in (np.float64, np.float32)]
        gap = max(abs(e32.total / e64.total - 1.0) for e64, e32 in zip(*runs))
        assert gap < 2e-6, gap


class TestTrainMemory:
    """Each three-layer stack is one tape entry keeping at most two arrays
    (the encoder's, on a constant input, keeps one and rebuilds Z2), and its
    backward reuses the adjoints it owns, without changing the floats of
    three layers that make the same products but also keep A @ H, their
    ReLU masks and every activation."""

    @staticmethod
    def train_with(monkeypatch, block, n_sub, cap):
        """Three epochs on two timesteps of 80 training nodes (and an empty
        one), each cut into ``n_sub`` parts at a node cap of ``cap``."""
        stack, prior, splits, _ = toy_dataset(seed=5, side=12, tile=4, timesteps=3)
        stack.grids[1] = RasterGrid(12, 12, np.zeros((12, 12), dtype=np.float32))
        config = md.TrainConfig(epochs=3, seed=9)
        calls, parts, sampler = [], [], md.epoch_subgraphs

        def counted(*args):
            calls.append(1)
            return block(*args)

        def recorded(*args):
            parts.append(args[2])
            return sampler(*args)

        with monkeypatch.context() as patch:
            patch.setattr(nc, "gcn_block", counted)
            patch.setattr(md, "epoch_subgraphs", recorded)
            patch.setattr(gb, "MAX_SUBGRAPH_NODES", cap)
            result = md.train(md.ModelParams.initialize(1, 2, hidden=7, seed=3),
                              stack, prior, splits, config)
        assert calls and len(result.history) == 3
        assert parts == [n_sub] * 6  # three epochs of two timesteps
        return result

    @BY_NODE_CAP
    def test_same_floats_as_layer_saving_activations(self, monkeypatch, n_sub, cap):
        ours = self.train_with(monkeypatch, nc.gcn_block, n_sub, cap)
        theirs = self.train_with(
            monkeypatch, gcn_block_of(gcn_layer_width_ordered_saving_activations), n_sub, cap)
        assert ours.history == theirs.history
        for name in md.PARAM_ORDER:
            assert (ours.params.weights[name].tobytes()
                    == theirs.params.weights[name].tobytes()), name

    @BY_NODE_CAP
    def test_close_to_layer_in_the_old_product_order(self, monkeypatch, n_sub, cap):
        # (A @ H) @ W everywhere and a recomputed A @ H for grad-W: other
        # roundings, so the results agree to 1e-12, not to the bit
        ours = self.train_with(monkeypatch, nc.gcn_block, n_sub, cap)
        theirs = self.train_with(monkeypatch, gcn_block_of(gcn_layer_saving_activations),
                                 n_sub, cap)
        for e_ours, e_theirs in zip(ours.history, theirs.history):
            np.testing.assert_allclose(astuple(e_ours), astuple(e_theirs), rtol=0, atol=1e-12)
        for name in md.PARAM_ORDER:
            np.testing.assert_allclose(ours.params.weights[name],
                                       theirs.params.weights[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    @staticmethod
    def training_graph():
        """The 60x60 graph's A and features, model parameters (hidden 25,
        k 5), and the bytes of one N x hidden float64 array."""
        graph = grid_graph(np.full((60, 60), 2.0))
        a_hat = gb.normalize_adjacency(graph)
        x, _ = gb.log_normalize(graph.features)
        hidden = 25
        return a_hat, x, random_params(k=5, hidden=hidden, seed=1), graph.n_nodes * hidden * 8

    @classmethod
    def training_forward(cls):
        """One 60x60 training forward on a fresh tape, and the unit."""
        a_hat, x, params, unit = cls.training_graph()
        rng = np.random.default_rng(0)
        prior_p = rng.dirichlet(np.ones(params.k_cats), size=len(x))
        mask = rng.random(len(x)) < 0.7
        tape = Tape()

        def forward():
            return md._forward_losses(params, a_hat, x, prior_p, mask,
                                      np.random.default_rng(1), tape)[0]

        return tape, forward, unit

    @staticmethod
    def traced(fn):
        """(bytes held after ``fn``, peak bytes during it), both beyond what
        was held before it."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()  # noqa: F841  (held until measured)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held - before, peak - before

    def test_forward_keeps_about_three_node_arrays(self):
        # Bytes the tape holds after one training forward, in units of
        # N x hidden float64: 1.94 measured here, the decoder's Z2 and not
        # the encoder's, which its backward rebuilds; 2.93 when the encoder
        # kept its Z2 too; 3.74 when the KL and CE losses held their
        # gradients from the forward and the Gumbel draw was three entries,
        # 5.52 when each layer was its own entry keeping its output, 10.2
        # when each also kept A @ H and a bool ReLU mask.
        _, forward, unit = self.training_forward()
        held, _ = self.traced(forward)
        assert held <= 3.1 * unit, held / unit

    def test_step_peak_about_four_and_a_half_node_arrays(self):
        # Peak bytes of one training forward and backward together, in units
        # of N x hidden float64: 3.37 measured here, where N is below one
        # row block, so a block's products still hold two N x hidden arrays,
        # and the N x k ones; 4.37 when the encoder's Z2 lived through the
        # decoder beside them; 4.35 before layer 3's S3 (N x 1 here)
        # was held while dZ2 took Z2's buffer; 5.19 when the decoder's backward masked dZ2
        # with an N x hidden bool beside both blocks' Z2, the losses held
        # their gradients from the forward and the tape kept every entry
        # until the backward ended; 6.00 when the block's backward held
        # dZ2, Z1 and A.T @ dZ2 at once, 7.73 when each layer was its own
        # entry keeping its output. Tracing starts before the forward, so
        # the arrays the backward frees count as freed.
        tape, forward, unit = self.training_forward()
        _, peak = self.traced(lambda: nc.backward(tape, forward()))
        assert peak <= 4.55 * unit, peak / unit

    def test_float32_step_peak_about_one_node_array_past_one_row_block(self):
        # Peak bytes of one float32 training forward and backward on a dense
        # 128x160 graph (N = 20,480, five row blocks; hidden 25, k 3), in
        # units of N x hidden float32, the N x k arrays included: 2.15
        # measured here, one N x hidden array, a band of the products that
        # overwrite their input and the N x k ones; 3.15 when the encoder
        # kept its Z2 through the decoder; 3.81 when the decoder's forward
        # and backward held three N x hidden arrays.
        graph = grid_graph(np.full((128, 160), 2.0))
        n, hidden = graph.n_nodes, 25
        assert n >= 4 * nc.ROW_BLOCK
        a_hat = gb.normalize_adjacency(graph).astype(np.float32)
        x = gb.log_normalize(graph.features)[0].astype(np.float32)
        params = random_params(k=3, hidden=hidden, seed=1).astype(np.float32)
        rng = np.random.default_rng(0)
        prior_p = rng.dirichlet(np.ones(3), size=n).astype(np.float32)
        mask = rng.random(n) < 0.7
        tape = Tape()

        def step():
            total = md._forward_losses(params, a_hat, x, prior_p, mask,
                                       np.random.default_rng(1), tape)[0]
            return nc.backward(tape, total)

        _, peak = self.traced(step)
        unit = n * hidden * 4
        assert peak <= 2.35 * unit, peak / unit

    def test_encode_peak_about_two_node_arrays(self):
        # Peak bytes of encode on a fresh tape, as infer runs it: 2.19 units
        # measured here, 3.03 when Z1 lived beside Z1 @ W2 and A @ (Z1 @ W2).
        a_hat, x, params, unit = self.training_graph()
        _, peak = self.traced(lambda: md.encode(params, a_hat, x))
        assert peak <= 2.25 * unit, peak / unit

    def test_warm_train_step_peak_about_four_and_a_half_node_arrays(self):
        # Peak bytes of one float32 train_step after a warm-up, called as
        # train calls it, with the part graph passed by expression, on a
        # dense 256x192 part (N = 49,152 nodes, hidden 25, dropout 0.2), in
        # units of N x hidden float32. Tracing starts before the part is
        # built. Measured here: 2.89 (the bound-setting test for one N x
        # hidden array is the float32 one above); 3.89 when the encoder kept
        # its Z2 through the decoder; 4.58 when the decoder's forward and
        # backward held three; 5.43 before the tape dropped each entry once
        # it had run, the ReLU masks went by row blocks and the losses
        # took their gradients in the backward; 6.17 when the caller holds
        # the graph, as every caller did before Python 3.11; 7.13 when the
        # builder wrote the binary graph, the step normalized it and kept the
        # graph, and the block's backward held three N x hidden arrays.
        rng = np.random.default_rng(3)
        h, w, k, hidden = 192, 256, 3, 25
        grid = RasterGrid(w, h, rng.uniform(0.5, 9.0, (h, w)).astype(np.float32))
        prior = CategoryField([f"c{i}" for i in range(k)], rng.dirichlet(np.ones(k), (h, w)),
                              np.ones((h, w), dtype=bool))
        tiles = [gb.Tile(0, 0, w, h)]
        params = md.ModelParams.initialize(1, k, hidden, seed=0).astype(np.float32)
        optimizer = md.Adam(1e-3)
        stats = gb.fit_norm_stats([grid], tiles)

        def step(seed):
            parts = gb.epoch_subgraphs(grid, tiles, 1, 0.2, seed)
            md.train_step(params, optimizer, next(parts), stats, prior,
                          np.random.default_rng(seed))

        step(0)  # Adam's moments and the first-call allocations
        _, peak = self.traced(lambda: step(1))
        unit = h * w * hidden * 4
        assert peak <= 4.8 * unit, peak / unit

    @staticmethod
    def live_bytes_at_steps(monkeypatch, timesteps):
        """tracemalloc's live bytes at each ``train_step`` entry of two
        epochs on ``timesteps`` copies of one 60x60 raster, two parts each,
        beyond what was live when training began. Unreachable cycles are
        collected first, so the bytes are those that train holds."""
        rng = np.random.default_rng(12)
        vals = rng.uniform(0.5, 9.0, size=(60, 60)).astype(np.float32)
        stack = GridStack(StackManifest(StackKind.HEIGHT_SERIES, 60, 60,
                                        [f"t{i}" for i in range(timesteps)]),
                          [RasterGrid(60, 60, vals.copy()) for _ in range(timesteps)])
        codes = (rng.random((60, 60)) < 0.4).astype(int)
        prior = CategoryField(["a", "b"], np.eye(2)[codes], np.ones((60, 60), dtype=bool))
        tiles = gb.tile_region(60, 60, 10)
        splits = gb.split_tiles(tiles, gb.dominant_categories(tiles, prior), seed=1)
        params = md.ModelParams.initialize(1, 2, hidden=4, seed=3)
        config = md.TrainConfig(epochs=2, seed=5)
        monkeypatch.setattr(gb, "MAX_SUBGRAPH_NODES", 1250)  # 2500 training nodes: 2 parts
        live = []
        train_step = md.train_step

        def recording_step(*args):
            gc.collect()
            live.append(tracemalloc.get_traced_memory()[0])
            return train_step(*args)

        monkeypatch.setattr(md, "train_step", recording_step)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            md.train(params, stack, prior, splits, config)
        finally:
            tracemalloc.stop()
        assert len(live) == 2 * 2 * timesteps
        return [b - before for b in live]

    def test_held_state_per_timestep_is_about_one_part_id_raster(self, monkeypatch):
        # Between steps train holds, per timestep, a one-byte part-id raster
        # (3600 bytes here) and its sampler; each step's graph is built when
        # the step runs. Three more timesteps measured 27.7 kB more here
        # (4.2 kB with this test run alone), and 600-627 kB more when each
        # timestep's sampled parts and validation graph were held for the
        # whole epoch.
        one = max(self.live_bytes_at_steps(monkeypatch, 1))
        four = max(self.live_bytes_at_steps(monkeypatch, 4))
        assert four - one <= 3 * 3600 + 32_768, four - one


def stack_layers(stack):
    """A POSTERIOR stack's float32 layers as one (H, W, K) array."""
    assert stack.manifest.kind is StackKind.POSTERIOR
    return np.stack([grid.values for grid in stack.grids], axis=-1)


def infer_recording_rows(monkeypatch, *args):
    """``infer_posterior(*args)`` and the float64 rows of the softmax it
    calls, one array per core with a node."""
    rows, softmax = [], nc.softmax_values

    def recording_softmax(logits):
        rows.append(softmax(logits))
        return rows[-1]

    monkeypatch.setattr(md, "nc", SimpleNamespace(**{**vars(nc),
                                                     "softmax_values": recording_softmax}))
    return md.infer_posterior(*args), rows


class TestInferPosterior:
    def test_all_zero_heights_give_all_nodata(self):
        grid = RasterGrid(4, 4, np.zeros((4, 4), dtype=np.float32))
        post = md.infer_posterior(random_params(k=3), grid,
                                  gb.NormStats(0.0, 1.0), ["a", "b", "c"])
        assert post.manifest.layer_labels == ["a", "b", "c"]
        assert np.all(stack_layers(post) == -1.0)

    def test_empty_raster_still_checks_the_model(self):
        grid = RasterGrid(4, 4, np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="category count"):
            md.infer_posterior(random_params(k=3), grid,
                               gb.NormStats(0.0, 1.0), ["a", "b"])
        with pytest.raises(ValueError, match="feature-dimension"):
            md.infer_posterior(random_params(f_dim=2, k=3), grid,
                               gb.NormStats(0.0, 1.0), ["a", "b", "c"])

    def test_simplex_rows_at_nodes(self, monkeypatch):
        # each node's float64 row sums to 1 within 1e-9, and its layers hold
        # that row rounded to float32
        rng = np.random.default_rng(8)
        grid = RasterGrid(5, 5, rng.uniform(0.5, 4.0, size=(5, 5)).astype(np.float32))
        post, (rows,) = infer_recording_rows(monkeypatch, random_params(k=3, seed=6), grid,
                                             gb.NormStats(0.5, 0.4), ["a", "b", "c"])
        assert rows.dtype == np.float64 and rows.shape == (25, 3)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(stack_layers(post).reshape(25, 3),
                                      rows.astype(np.float32))

    def test_posterior_defined_without_prior(self, monkeypatch):
        # the model consults only heights, so node pixels lacking a prior
        # still receive a posterior
        vals = np.zeros((3, 3), dtype=np.float32)
        vals[1, 1] = 2.0
        post, (rows,) = infer_recording_rows(monkeypatch, random_params(k=2, seed=9),
                                             RasterGrid(3, 3, vals),
                                             gb.NormStats(0.0, 1.0), ["a", "b"])
        assert rows.shape == (1, 2)
        assert rows[0].sum() == pytest.approx(1.0, abs=1e-9)
        layers = stack_layers(post)
        np.testing.assert_array_equal(layers[1, 1], rows[0].astype(np.float32))
        assert (layers != -1.0).sum() == 2


def full_graph_posterior(params, grid, stats):
    """Oracle for infer_posterior: encode the graph of the whole raster.
    Float32 weights encode the float32 input the model casts for them, and
    the posterior is a float64 softmax of their logits, as infer stores."""
    graph = gb.build_graph(grid, [gb.Tile(0, 0, grid.width, grid.height_px)])
    probs = np.full((grid.height_px, grid.width, params.k_cats), -1.0)
    valid = np.zeros((grid.height_px, grid.width), dtype=bool)
    if graph.n_nodes:
        if params.dtype == np.float32:
            enc = md.encode(params, *md._encoder_input(graph, stats, np.float32))
            rows = np.apply_along_axis(softmax_reference, 1, enc.logits.value)
        else:
            feats, _ = gb.log_normalize(graph.features, stats)
            rows = md.encode(params, gb.normalize_adjacency(graph), feats).probabilities.value
        xs, ys = graph.node_pixels[:, 0], graph.node_pixels[:, 1]
        probs[ys, xs] = rows
        valid[ys, xs] = True
    return probs, valid


class TestTiledInference:
    """infer_posterior encodes halo windows; it must equal the full graph."""

    dtype = np.float64

    def params(self, **kwargs):
        return random_params(**kwargs).astype(self.dtype)

    @staticmethod
    def assert_matches_full_graph(grid, params, stats):
        cats = [f"c{i}" for i in range(params.k_cats)]
        post = md.infer_posterior(params, grid, stats, cats)
        probs, valid = full_graph_posterior(params, grid, stats)
        assert post.manifest.layer_labels == cats
        # nodata off the nodes, and at each node the oracle's float64 row
        # rounded to float32, exactly
        layers = stack_layers(post)
        np.testing.assert_array_equal(layers[~valid], -1.0)
        np.testing.assert_array_equal(layers[valid], probs[valid].astype(np.float32))

    def test_random_rasters_match_full_graph(self, monkeypatch):
        rng = np.random.default_rng(31)
        stats = gb.NormStats(0.9, 0.6)
        for trial in range(40):
            core = int(rng.integers(1, 10))
            monkeypatch.setattr(md, "INFER_CORE", core)
            h, w = (int(v) for v in rng.integers(1, 41, size=2))
            vals = rng.lognormal(0.5, 0.8, size=(h, w)).astype(np.float32)
            vals[rng.random((h, w)) < rng.uniform(0.0, 0.6)] = 0.0
            vals[rng.random((h, w)) < 0.1] = -1.0  # nodata
            params = self.params(k=int(rng.integers(2, 5)), hidden=5, seed=trial)
            self.assert_matches_full_graph(RasterGrid(w, h, vals), params, stats)

    @pytest.mark.parametrize("h, w, core", [
        (20, 20, 4),   # the left windows hold no node at all
        (3, 30, 7),    # narrower than one core
        (23, 17, 5),   # sides are not multiples of the core
    ])
    def test_edge_cases_match_full_graph(self, monkeypatch, h, w, core):
        monkeypatch.setattr(md, "INFER_CORE", core)
        rng = np.random.default_rng(h * w + core)
        vals = rng.uniform(0.5, 6.0, size=(h, w)).astype(np.float32)
        vals[:, : w // 2] = 0.0
        self.assert_matches_full_graph(RasterGrid(w, h, vals),
                                       self.params(k=3, hidden=6, seed=core),
                                       gb.NormStats(0.8, 0.5))

    def test_windows_stay_under_node_cap(self, monkeypatch):
        nodes = []
        build_graph = md.build_graph

        def counting_build_graph(heights, tiles):
            graph = build_graph(heights, tiles)
            nodes.append(graph.n_nodes)
            return graph

        monkeypatch.setattr(md, "build_graph", counting_build_graph)
        grid = RasterGrid(500, 300, np.full((300, 500), 2.0, dtype=np.float32))
        post = md.infer_posterior(self.params(k=3), grid,
                                  gb.NormStats(0.5, 0.4), ["a", "b", "c"])
        assert np.all(stack_layers(post) != -1.0)
        assert len(nodes) == 12
        assert max(nodes) <= (md.INFER_CORE + 2 * md.INFER_HALO) ** 2 == 18_496


class TestTiledInferenceFloat32(TestTiledInference):
    """The same windows in float32, the dtype the CLI trains and infers in:
    each window's float32 products equal the full graph's bit for bit."""

    dtype = np.float32


class TestInferWindowSize:
    """INFER_CORE sets only one window's size: the posterior does not depend
    on it, and infer's peak memory does."""

    stats = gb.NormStats(0.9, 0.6)
    cats = ["a", "b", "c"]

    @staticmethod
    def params():
        return md.ModelParams.initialize(1, 3, md.DEFAULT_HIDDEN, seed=5).astype(np.float32)

    def test_posterior_bytes_do_not_depend_on_core(self, monkeypatch):
        rng = np.random.default_rng(22)
        h, w = 2 * md.INFER_CORE + 41, 2 * md.INFER_CORE + 9  # 3 x 3 windows
        vals = rng.lognormal(0.5, 0.8, size=(h, w)).astype(np.float32)
        vals[rng.random((h, w)) < 0.3] = 0.0
        vals[rng.random((h, w)) < 0.1] = -1.0  # nodata
        grid = RasterGrid(w, h, vals)
        params = self.params()
        tiled = md.infer_posterior(params, grid, self.stats, self.cats)
        monkeypatch.setattr(md, "INFER_CORE", max(h, w))  # one window
        whole = md.infer_posterior(params, grid, self.stats, self.cats)
        assert 0 < tiled.grids[0].valid_mask().sum() < h * w
        assert [g.values.tobytes() for g in tiled.grids] == \
            [g.values.tobytes() for g in whole.grids]

    def test_peak_memory_below_training_cap_sized_windows(self, monkeypatch):
        # 7.7 vs 16.5 MiB measured here with 128- and 215-pixel cores, the
        # latter the largest square window under the 50k-node training cap
        grid = RasterGrid(400, 400, np.full((400, 400), 2.0, dtype=np.float32))
        params = self.params()

        def peak():
            tracemalloc.start()
            try:
                md.infer_posterior(params, grid, self.stats, self.cats)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        md.infer_posterior(params, grid, self.stats, self.cats)  # warm-up
        small = peak()
        monkeypatch.setattr(md, "INFER_CORE", 215)
        large = peak()
        assert small <= 0.6 * large, (small / 2**20, large / 2**20)

    def test_window_graph_dropped_before_encode(self):
        # Peak bytes of infer on a dense 256x256 raster after a warm-up,
        # beyond the posterior it returns, in units of one full window's
        # N x hidden float32 (136**2 nodes): 3.15 measured here, 3.35 when
        # each core's float64 rows lived on into the next window's encode,
        # 4.64 when each window's graph and float64 A_hat lived through it.
        grid = RasterGrid(256, 256, np.full((256, 256), 2.0, dtype=np.float32))
        params = self.params()
        md.infer_posterior(params, grid, self.stats, self.cats)  # warm-up
        tracemalloc.start()
        try:
            out = md.infer_posterior(params, grid, self.stats, self.cats)  # noqa: F841
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        side = md.INFER_CORE + 2 * md.INFER_HALO
        unit = side * side * md.DEFAULT_HIDDEN * 4
        assert peak - held <= 3.3 * unit, (peak - held) / unit


class TestCheckpoint:
    @pytest.mark.parametrize("f_dim, k_cats, hidden", [(1, 3, 3), (1, 3, 2), (4, 2, 4),
                                                       (1, 25, md.DEFAULT_HIDDEN)],
                             ids=["hidden-is-k", "hidden-below-k", "hidden-is-f-dim",
                                  "k-25-default-hidden"])
    def test_hidden_must_exceed_f_dim_and_k_cats(self, f_dim, k_cats, hidden):
        # gcn_block takes only a first layer that widens and a last one that
        # does not: the model and its checkpoint manifest keep to that shape
        message = (r"hidden must exceed f_dim and k_cats, "
                   rf"got \[{f_dim}, {k_cats}, {hidden}\]")
        with pytest.raises(ValueError, match=message):
            md.ModelParams.initialize(f_dim, k_cats, hidden)
        with pytest.raises(ValueError, match=message):
            md.CheckpointManifest(f_dim, k_cats, hidden, gb.NormStats(0.0, 1.0),
                                  md.TrainConfig())

    def test_roundtrip_bit_exact_files(self, tmp_path):
        params = random_params(f_dim=1, k=3, hidden=5, seed=12)
        stats = gb.NormStats(0.25, 1.5)
        config = md.TrainConfig(epochs=7, seed=3)
        md.save_checkpoint(tmp_path / "a", params, stats, config)
        loaded, stats2, cfg_doc = md.load_checkpoint(tmp_path / "a")
        assert (loaded.f_dim, loaded.k_cats, loaded.hidden) == (1, 3, 5)
        assert (stats2.mean, stats2.std) == (0.25, 1.5)
        assert cfg_doc.epochs == 7
        md.save_checkpoint(tmp_path / "b", loaded, stats2, config)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_failed_rewrite_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        stats, config = gb.NormStats(0.25, 1.5), md.TrainConfig()
        old, new = random_params(seed=12), random_params(seed=13)
        md.save_checkpoint(tmp_path / "ckpt", old, stats, config)
        real_write = Path.write_bytes
        calls = []

        def flaky_write(self, data):
            calls.append(self.name)
            if len(calls) == 2:  # the second blob: a crash or a full disk
                raise OSError("disk full")
            return real_write(self, data)

        monkeypatch.setattr(Path, "write_bytes", flaky_write)
        with pytest.raises(OSError, match="disk full"):
            md.save_checkpoint(tmp_path / "ckpt", new, gb.NormStats(0.5, 2.0), config)
        monkeypatch.undo()
        loaded, loaded_stats, _ = md.load_checkpoint(tmp_path / "ckpt")
        assert (loaded_stats.mean, loaded_stats.std) == (0.25, 1.5)
        for name in md.PARAM_ORDER:
            np.testing.assert_array_equal(
                loaded.weights[name], old.weights[name].astype(np.float32))
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_float32_weights_load_as_saved(self, tmp_path):
        # the CLI trains in float32, so its checkpoint holds the trained weights
        params = random_params(k=3, hidden=5, seed=12).astype(np.float32)
        md.save_checkpoint(tmp_path / "c", params, gb.NormStats(0.25, 1.5), md.TrainConfig())
        loaded, _, _ = md.load_checkpoint(tmp_path / "c")
        for name in md.PARAM_ORDER:
            assert loaded.weights[name].dtype == np.float32, name
            assert loaded.weights[name].tobytes() == params.weights[name].tobytes(), name

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            md.load_checkpoint(tmp_path / "nope")
