import numpy as np
import pytest

from vulnaudit import graph_build as gb
from vulnaudit import model as md
from vulnaudit import numcore as nc
from vulnaudit.grid_store import GridStack, PriorField, RasterGrid, StackKind, StackManifest
from vulnaudit.numcore import SparseMatrix, Tape, Var

from oracles import central_difference, max_relative_error, softmax_reference


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
        enc = md.encode(zero_params(k=4), a_hat, graph.features)
        np.testing.assert_allclose(enc.probabilities.value, 0.25, atol=1e-15)

    def test_isolated_node_reduces_to_mlp(self):
        params = random_params(k=3, hidden=5, seed=7)
        a_hat = SparseMatrix.from_dense(np.array([[1.0]]))
        x = np.array([[0.8]])
        enc = md.encode(params, a_hat, x)
        np.testing.assert_allclose(enc.logits.value, mlp_reference(params, x), atol=1e-12)
        np.testing.assert_allclose(enc.probabilities.value[0],
                                   softmax_reference(mlp_reference(params, x)[0]),
                                   atol=1e-12)

    def test_zero_weights_decode_to_zero(self):
        tape = Tape()
        a_hat = SparseMatrix.from_dense(np.eye(2))
        v = tape.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
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
        a_perm = SparseMatrix.from_dense(p_mat @ a_hat.to_dense() @ p_mat.T)
        enc_p = md.encode(params, a_perm, p_mat @ x)
        np.testing.assert_allclose(enc_p.probabilities.value,
                                   p_mat @ enc.probabilities.value, atol=1e-12)

        tape = Tape()
        v = rng.dirichlet(np.ones(3), size=graph.n_nodes)
        dec = md.decode(params, a_hat, tape.constant(v), tape)
        dec_p = md.decode(params, a_perm, Tape().constant(p_mat @ v), Tape())
        np.testing.assert_allclose(dec_p.value, p_mat @ dec.value, atol=1e-12)

    def test_feature_dimension_mismatch(self):
        graph = grid_graph(np.ones((2, 2)))
        a_hat = gb.normalize_adjacency(graph)
        with pytest.raises(ValueError, match="feature-dimension"):
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
    prior = PriorField(["a", "b"], np.eye(2)[codes], np.ones((side, side), dtype=bool))
    tiles = gb.tile_region(side, side, tile)
    splits = gb.split_tiles(tiles, prior, (0.5, 0.25, 0.25), seed=seed)
    return stack, prior, splits, codes


class TestTrainStep:
    def setup_step(self, lr):
        stack, prior, splits, _ = toy_dataset(seed=1, side=5, tile=5)
        graph = gb.build_graph(stack.grids[0], splits.train)
        feats, _ = gb.log_normalize(graph.features)
        graph = gb.GridGraph(graph.node_pixels, graph.adjacency, feats)
        params = md.ModelParams.initialize(1, 2, hidden=6, seed=4)
        config = md.TrainConfig(learning_rate=lr, epochs=1)
        return params, graph, prior, config

    def test_zero_learning_rate_is_noop(self):
        params, graph, prior, config = self.setup_step(0.0)
        before = {k: v.copy() for k, v in params.weights.items()}
        breakdown = md.train_step(params, md.Adam(0.0), graph, prior, config,
                                  np.random.default_rng(0))
        assert np.isfinite(breakdown.total)
        for name in before:
            np.testing.assert_array_equal(params.weights[name], before[name])

    def test_single_step_decreases_loss(self):
        params, graph, prior, config = self.setup_step(1e-3)
        prior_p, mask = md.node_prior(prior, graph)
        a_hat = gb.normalize_adjacency(graph)
        before = md.evaluate_losses(params, a_hat, graph.features, prior_p, mask, config)
        md.train_step(params, md.Adam(config.learning_rate), graph, prior, config,
                      np.random.default_rng(7))
        after = md.evaluate_losses(params, a_hat, graph.features, prior_p, mask, config)
        assert after.total < before.total


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
        for a, b in zip(r1.history, r2.history):
            assert (a.train, a.val) == (b.train, b.val)
        for name in r1.params.weights:
            np.testing.assert_array_equal(r1.params.weights[name],
                                          r2.params.weights[name])

    def test_training_reduces_loss(self):
        stack, prior, splits, _ = toy_dataset(seed=4)
        config = md.TrainConfig(epochs=30, seed=2)
        result = md.train(md.ModelParams.initialize(1, 2, seed=2), stack, prior,
                          splits, config)
        assert result.history[-1].train.total < result.history[0].train.total


class TestInferPosterior:
    def test_all_zero_heights_give_all_nodata(self):
        grid = RasterGrid(4, 4, np.zeros((4, 4), dtype=np.float32))
        post = md.infer_posterior(random_params(k=3), grid,
                                  gb.NormStats(0.0, 1.0), ["a", "b", "c"])
        assert not post.valid.any()
        assert np.all(post.probs == -1.0)

    def test_empty_raster_still_checks_the_model(self):
        grid = RasterGrid(4, 4, np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="category count"):
            md.infer_posterior(random_params(k=3), grid,
                               gb.NormStats(0.0, 1.0), ["a", "b"])
        with pytest.raises(ValueError, match="feature-dimension"):
            md.infer_posterior(random_params(f_dim=2, k=3), grid,
                               gb.NormStats(0.0, 1.0), ["a", "b", "c"])

    def test_simplex_rows_at_nodes(self):
        rng = np.random.default_rng(8)
        grid = RasterGrid(5, 5, rng.uniform(0.5, 4.0, size=(5, 5)).astype(np.float32))
        post = md.infer_posterior(random_params(k=3, seed=6), grid,
                                  gb.NormStats(0.5, 0.4), ["a", "b", "c"])
        assert post.valid.all()
        np.testing.assert_allclose(post.probs.sum(axis=2), 1.0, atol=1e-9)

    def test_posterior_defined_without_prior(self):
        # the model consults only heights, so node pixels lacking a prior
        # still receive a posterior
        vals = np.zeros((3, 3), dtype=np.float32)
        vals[1, 1] = 2.0
        post = md.infer_posterior(random_params(k=2, seed=9),
                                  RasterGrid(3, 3, vals),
                                  gb.NormStats(0.0, 1.0), ["a", "b"])
        assert post.valid[1, 1]
        assert post.probs[1, 1].sum() == pytest.approx(1.0, abs=1e-9)


def full_graph_posterior(params, grid, stats):
    """Oracle for infer_posterior: encode the graph of the whole raster."""
    graph = gb.build_graph(grid, [gb.Tile(0, 0, grid.width, grid.height_px)])
    probs = np.full((grid.height_px, grid.width, params.k_cats), -1.0)
    valid = np.zeros((grid.height_px, grid.width), dtype=bool)
    if graph.n_nodes:
        feats, _ = gb.log_normalize(graph.features, stats)
        enc = md.encode(params, gb.normalize_adjacency(graph), feats)
        xs, ys = graph.node_pixels[:, 0], graph.node_pixels[:, 1]
        probs[ys, xs] = enc.probabilities.value
        valid[ys, xs] = True
    return probs, valid


class TestTiledInference:
    """infer_posterior encodes halo windows; it must equal the full graph."""

    @staticmethod
    def assert_matches_full_graph(grid, params, stats):
        cats = [f"c{i}" for i in range(params.k_cats)]
        post = md.infer_posterior(params, grid, stats, cats)
        probs, valid = full_graph_posterior(params, grid, stats)
        np.testing.assert_array_equal(post.valid, valid)
        np.testing.assert_array_equal(post.probs[~valid], -1.0)
        np.testing.assert_allclose(post.probs[valid], probs[valid], rtol=0, atol=1e-12)

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
            params = random_params(k=int(rng.integers(2, 5)), hidden=5, seed=trial)
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
                                       random_params(k=3, hidden=6, seed=core),
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
        post = md.infer_posterior(random_params(k=3), grid,
                                  gb.NormStats(0.5, 0.4), ["a", "b", "c"])
        assert post.valid.all()
        assert len(nodes) == 6
        assert max(nodes) <= gb.MAX_SUBGRAPH_NODES


class TestCheckpoint:
    def test_roundtrip_bit_exact_files(self, tmp_path):
        params = random_params(f_dim=1, k=3, hidden=5, seed=12)
        stats = gb.NormStats(0.25, 1.5)
        config = md.TrainConfig(epochs=7, seed=3)
        md.save_checkpoint(tmp_path / "a", params, stats, config)
        loaded, stats2, cfg_doc = md.load_checkpoint(tmp_path / "a")
        assert (loaded.f_dim, loaded.k_cats, loaded.hidden) == (1, 3, 5)
        assert (stats2.mean, stats2.std) == (0.25, 1.5)
        assert cfg_doc["epochs"] == 7
        md.save_checkpoint(tmp_path / "b", loaded, stats2, config)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            md.load_checkpoint(tmp_path / "nope")
