import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from vulnaudit import graph_build as gb
from vulnaudit import numcore as nc
from vulnaudit.grid_store import RasterGrid
from vulnaudit.numcore import NonFiniteError, Tape, Var

from oracles import (all_finite_whole, central_difference, gumbel_softmax_chain,
                     max_relative_error, relu_mask_whole, softmax_grad_row_reductions,
                     softmax_row_reductions, taped_sum, weight_grad_by_blocks,
                     weight_grad_one_sum)


def random_sparse(rng, rows, cols, density=0.3):
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
    return sp.csr_matrix(dense), dense


def eye(n):
    return sp.identity(n, format="csr")


def banded_sparse(rng, n, bandwidth, kind, dtype=np.float64):
    """An n x n CSR matrix of about eight entries a row, each at most
    ``bandwidth`` from the diagonal, with the entries (0, bandwidth) and
    (n - 1, n - 1 - bandwidth) so that its bandwidth is exactly that.
    ``kind`` is symmetric, asymmetric (every seventh row empty), or unsorted:
    asymmetric with each row's entries stored in a shuffled order."""
    rows = np.repeat(np.arange(n), 8)
    cols = np.clip(rows + rng.integers(-bandwidth, bandwidth + 1, rows.size), 0, n - 1)
    keep = rows % 7 != 3
    rows = np.concatenate([rows[keep], [0, n - 1]])
    cols = np.concatenate([cols[keep], [bandwidth, n - 1 - bandwidth]])
    a = sp.coo_matrix((rng.normal(size=rows.size), (rows, cols)), shape=(n, n)).tocsr()
    if kind == "symmetric":
        a = (a + a.T).tocsr()
        a.data[:] = rng.normal(size=a.nnz)
        a = ((a + a.T) * 0.5).tocsr()
        assert (a != a.T).nnz == 0
    a.sum_duplicates()
    if kind == "unsorted":
        for i in range(n):
            lo, hi = a.indptr[i], a.indptr[i + 1]
            order = lo + rng.permutation(hi - lo)
            a.indices[lo:hi], a.data[lo:hi] = a.indices[order], a.data[order]
        a.has_sorted_indices = False
    a.data = a.data.astype(dtype)
    return a


def mask_graph_a(rng, shape, dtype=np.float64, keep=0.95):
    """The A-hat of a ``_mask_graph`` part, as training builds it: the
    8-neighbor graph on a random ``keep`` share of a ``shape`` raster's
    pixels with 20% of its edges dropped (``DEFAULT_EDGE_DROPOUT``), its
    values cast to ``dtype`` as the model's input function casts them."""
    grid = RasterGrid(shape[1], shape[0], np.ones(shape, np.float32))
    a = gb._mask_graph(grid, rng.random(shape) < keep, gb.DEFAULT_EDGE_DROPOUT, rng).a_hat
    return sp.csr_matrix((a.data.astype(dtype), a.indices, a.indptr), shape=a.shape)


def gcn(tape, a, h, w, b, activate=False):
    """gcn_layer on plain arrays, held as constants."""
    return nc.gcn_layer(tape, a, Var(h), Var(w), Var(b), activate)


# TestSpmm, TestMatmul, TestAddBias and TestRelu each check one stage of
# gcn_layer's relu((A @ H) @ W + b), the other stages set to identities
# (A = I, W = I, b = 0, activate off); TestGcnLayer checks the fused layer.


class TestSpmm:
    def test_identity(self):
        tape = Tape()
        x = tape.param("x", np.arange(6.0).reshape(3, 2))
        out = nc.gcn_layer(tape, eye(3), x, Var(np.eye(2)), Var(np.zeros(2)), False)
        np.testing.assert_array_equal(out.value, x.value)
        grads = nc.backward(tape, taped_sum(tape, out))
        np.testing.assert_array_equal(grads["x"], np.ones((3, 2)))

    def test_swap_rows(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = gcn(Tape(), a, [[1.0], [2.0]], np.eye(1), np.zeros(1))
        np.testing.assert_array_equal(out.value, [[2.0], [1.0]])

    def test_matches_dense_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            r, c, k = rng.integers(1, 21, size=3)
            a, dense = random_sparse(rng, r, c)
            x = rng.normal(size=(c, k))
            out = gcn(Tape(), a, x, np.eye(k), np.zeros(k))
            assert np.max(np.abs(out.value - dense @ x)) < 1e-12

    def test_backward_is_transpose(self):
        rng = np.random.default_rng(8)
        a, dense = random_sparse(rng, 5, 4)
        tape = Tape()
        x = tape.param("x", rng.normal(size=(4, 3)))
        out = nc.gcn_layer(tape, a, x, Var(np.eye(3)), Var(np.zeros(3)), False)
        grads = nc.backward(tape, taped_sum(tape, out))
        np.testing.assert_allclose(grads["x"], dense.T @ np.ones((5, 3)), atol=1e-12)

    def test_gradient_check(self):
        rng = np.random.default_rng(14)
        a, _ = random_sparse(rng, 6, 5)
        arrays = {"x": rng.normal(size=(5, 3))}

        def loss():
            return float(gcn(Tape(), a, arrays["x"], np.eye(3), np.zeros(3)).value.sum())

        tape = Tape()
        out = nc.gcn_layer(tape, a, tape.param("x", arrays["x"]), Var(np.eye(3)),
                           Var(np.zeros(3)), False)
        grads = nc.backward(tape, taped_sum(tape, out))
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            gcn(Tape(), eye(3), np.ones((2, 2)), np.eye(2), np.zeros(2))


class TestMatmul:
    def test_identity_weight(self):
        x = np.arange(4.0).reshape(2, 2)
        out = gcn(Tape(), eye(2), x, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out.value, x)

    def test_hand_value(self):
        out = gcn(Tape(), eye(1), [[1.0, 2.0]], [[3.0], [4.0]], [0.0])
        assert out.value.item() == 11.0

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        arrays = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2))}

        def loss():
            return float(gcn(Tape(), eye(3), arrays["x"], arrays["w"], np.zeros(2)).value.sum())

        tape = Tape()
        out = nc.gcn_layer(tape, eye(3), tape.param("x", arrays["x"]),
                           tape.param("w", arrays["w"]), Var(np.zeros(2)), False)
        grads = nc.backward(tape, taped_sum(tape, out))
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6


class TestAddBias:
    def test_zero_bias(self):
        out = gcn(Tape(), eye(2), np.ones((2, 3)), np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out.value, np.ones((2, 3)))

    def test_row_shift(self):
        out = gcn(Tape(), eye(2), [[1.0, 2.0], [3.0, 4.0]], np.eye(2), [1.0, -1.0])
        np.testing.assert_array_equal(out.value, [[2.0, 1.0], [4.0, 3.0]])

    def test_bias_grad_is_column_sum(self):
        rng = np.random.default_rng(5)
        arrays = {"x": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        tape = Tape()
        out = nc.gcn_layer(tape, eye(4), tape.param("x", arrays["x"]), Var(np.eye(3)),
                           tape.param("b", arrays["b"]), False)
        grads = nc.backward(tape, taped_sum(tape, out))
        np.testing.assert_array_equal(grads["b"], np.full(3, 4.0))

        def loss():
            return float(gcn(Tape(), eye(4), arrays["x"], np.eye(3), arrays["b"]).value.sum())

        numeric = central_difference(loss, arrays)
        assert max_relative_error(grads, numeric) < 1e-6


class TestRelu:
    def test_all_negative(self):
        tape = Tape()
        x = tape.param("x", -np.ones((2, 2)))
        out = nc.gcn_layer(tape, eye(2), x, Var(np.eye(2)), Var(np.zeros(2)), True)
        np.testing.assert_array_equal(out.value, np.zeros((2, 2)))
        grads = nc.backward(tape, taped_sum(tape, out))
        np.testing.assert_array_equal(grads["x"], np.zeros((2, 2)))

    def test_mixed(self):
        out = gcn(Tape(), eye(1), [[-1.0, 2.0]], np.eye(2), np.zeros(2), activate=True)
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_gradient_check_away_from_zero(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 3))
        x[np.abs(x) < 0.2] += 0.5  # keep clear of the kink
        arrays = {"x": x}

        def loss():
            out = gcn(Tape(), eye(3), arrays["x"], np.eye(3), np.zeros(3), activate=True)
            return float(out.value.sum())

        tape = Tape()
        out = nc.gcn_layer(tape, eye(3), tape.param("x", x), Var(np.eye(3)),
                           Var(np.zeros(3)), True)
        grads = nc.backward(tape, taped_sum(tape, out))
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6


class TestGcnLayer:
    def test_matches_dense_fuzz(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            r, c, f, k = rng.integers(1, 21, size=4)
            a, dense = random_sparse(rng, r, c)
            h, w, b = rng.normal(size=(c, f)), rng.normal(size=(f, k)), rng.normal(size=k)
            activate = bool(trial % 2)
            out = gcn(Tape(), a, h, w, b, activate)
            expected = (dense @ h) @ w + b
            if activate:
                expected = np.maximum(expected, 0.0)
            assert np.max(np.abs(out.value - expected)) < 1e-12

    @staticmethod
    def check_gradient(rng, a, dense, f_in, f_out, activate):
        """Central differences against the backward of one layer on A, its
        output projected to one column so that entries weigh unequally."""
        arrays = {"h": rng.normal(size=(a.shape[1], f_in)),
                  "w": rng.normal(size=(f_in, f_out)), "b": rng.normal(size=f_out)}
        project = rng.normal(size=(f_out, 1))  # a weighted loss, not a plain sum
        pre = (dense @ arrays["h"]) @ arrays["w"] + arrays["b"]
        assert np.abs(pre).min() > 1e-3  # central differences stay off the kink

        def forward(tape, h, w, b):
            out = nc.gcn_layer(tape, a, h, w, b, activate)
            return taped_sum(tape, nc.gcn_layer(tape, eye(a.shape[0]), out, Var(project),
                                                Var(np.zeros(1)), False))

        def loss():
            return float(forward(Tape(), *(Var(arrays[n]) for n in ("h", "w", "b"))).value)

        tape = Tape()
        total = forward(tape, *(tape.param(n, arrays[n]) for n in ("h", "w", "b")))
        grads = nc.backward(tape, total)
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6

    @pytest.mark.parametrize("activate", [False, True])
    def test_gradient_check(self, activate):
        rng = np.random.default_rng(23)
        a, dense = random_sparse(rng, 6, 6, density=0.5)
        self.check_gradient(rng, a, dense, 4, 3, activate)

    @pytest.mark.parametrize("f_in, f_out", [(4, 3), (4, 4), (3, 5)],
                             ids=["narrowing", "square", "widening"])
    @pytest.mark.parametrize("a_rows, a_cols", [(7, 5), (6, 6)],
                             ids=["rectangular", "square-asymmetric"])
    def test_gradient_check_each_product_order(self, f_in, f_out, a_rows, a_cols):
        # A @ (H @ W) or (A @ H) @ W forward, one or two sparse products
        # backward; A.T, not A, carries the adjoint back to H
        rng = np.random.default_rng(29)
        a, dense = random_sparse(rng, a_rows, a_cols, density=0.5)
        assert a_rows != a_cols or np.abs(dense - dense.T).max() > 0.1
        self.check_gradient(rng, a, dense, f_in, f_out, True)

    def test_owned_adjoints_under_fan_out_and_pass_through(self):
        # g1 feeds two layers, and g4 reaches g5 through add_const. Each
        # layer masks its adjoint and may write grad-H into it, so an adjoint
        # shared by two entries, or one that add_const's pass-through left
        # held elsewhere, would corrupt a gradient.
        rng = np.random.default_rng(31)
        a, dense = random_sparse(rng, 6, 6, density=0.5)
        shapes = {"h": (6, 3), "w1": (3, 3), "w2": (3, 3), "w3": (3, 3), "w4": (3, 5),
                  "w5": (5, 3), "b1": (3,), "b2": (3,), "b3": (3,), "b4": (5,), "b5": (3,)}
        arrays = {n: rng.normal(size=shape) for n, shape in shapes.items()}
        c = rng.normal(size=(6, 5))
        project = rng.normal(size=(3, 1))

        def forward(tape, v, margins=None):
            def layer(x, i, activate):
                if margins is not None and activate:
                    pre = dense @ x.value @ v[f"w{i}"].value + v[f"b{i}"].value
                    margins.append(np.abs(pre).min())
                return nc.gcn_layer(tape, a, x, v[f"w{i}"], v[f"b{i}"], activate)

            g1 = layer(v["h"], 1, True)
            g2, g3 = layer(g1, 2, True), layer(g1, 3, False)
            g5 = layer(nc.add_const(tape, layer(v["h"], 4, True), c), 5, True)
            total = nc.weighted_sum(tape, [g2, g3, g5], [1.0, 1.0, -0.5])
            return taped_sum(tape, nc.gcn_layer(tape, eye(6), total, Var(project),
                                                Var(np.zeros(1)), False))

        def loss():
            return float(forward(Tape(), {n: Var(x) for n, x in arrays.items()}).value)

        margins = []
        tape = Tape()
        total = forward(tape, {n: tape.param(n, x) for n, x in arrays.items()}, margins)
        assert min(margins) > 1e-3  # central differences stay off the kink
        grads = nc.backward(tape, total)
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6

    @pytest.mark.parametrize("a_shape, h_shape, w_shape, b_shape", [
        ((3, 2), (3, 2), (2, 2), (2,)),   # A columns != H rows
        ((3, 3), (3, 2), (3, 2), (2,)),   # H columns != W rows
        ((3, 3), (3, 2), (2, 4), (3,)),   # bias length != W columns
        ((3, 3), (3, 2), (2, 4), (1,)),   # a (1,) bias would broadcast
        ((3, 3), (3, 2), (2, 4), (1, 4)),
        ((3, 3), (3, 2), (2,), (2,)),     # W not a matrix
    ])
    def test_shape_mismatch(self, a_shape, h_shape, w_shape, b_shape):
        a = sp.csr_matrix(np.ones(a_shape))
        with pytest.raises(ValueError, match="gcn_layer shape mismatch"):
            gcn(Tape(), a, np.ones(h_shape), np.ones(w_shape), np.ones(b_shape))

    def test_nonfinite_preactivation_raises_before_relu(self):
        # the pre-activation is -inf, which ReLU maps to 0: a check made
        # after the ReLU would let it through
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="gcn_layer"):
                gcn(Tape(), eye(1), [[10.0]], [[-1e308]], [0.0], activate=True)


BLOCK_NAMES = ("h", "w1", "b1", "w2", "b2", "w3", "b3")


class TestGcnBlock:
    """gcn_block: three layers on one symmetric A, ReLU, ReLU, linear, as
    one entry that keeps A @ H (or Z1) and Z2 and recomputes Z1 in the
    backward."""

    @staticmethod
    def block_arrays(rng, n, f_in, hidden, f_out, hidden2=None):
        hidden2 = hidden if hidden2 is None else hidden2
        widths = {"w1": (f_in, hidden), "w2": (hidden, hidden2), "w3": (hidden2, f_out)}
        arrays = {"h": rng.normal(size=(n, f_in))}
        for i in (1, 2, 3):
            arrays[f"w{i}"] = rng.normal(size=widths[f"w{i}"])
            arrays[f"b{i}"] = rng.normal(size=widths[f"w{i}"][1])
        return arrays

    @staticmethod
    def block(tape, a, v):
        return nc.gcn_block(tape, a, v["h"], tuple((v[f"w{i}"], v[f"b{i}"]) for i in (1, 2, 3)))

    @staticmethod
    def three_layers(tape, a, v):
        h = nc.gcn_layer(tape, a, v["h"], v["w1"], v["b1"], True)
        h = nc.gcn_layer(tape, a, h, v["w2"], v["b2"], True)
        return nc.gcn_layer(tape, a, h, v["w3"], v["b3"], False)

    @staticmethod
    def a_of(rng, kind, n=6):
        """A symmetric, asymmetric, or a ``_mask_graph`` part's A-hat on a
        2 x 3 raster, and A as a dense array."""
        if kind == "mask-graph":
            a = mask_graph_a(rng, (2, 3), keep=1.0)
            return a, a.toarray()
        a, dense = random_sparse(rng, n, n, density=0.5)
        if kind == "symmetric":
            dense = dense + dense.T
            a = sp.csr_matrix(dense)
        else:
            assert np.abs(dense - dense.T).max() > 0.1
        return a, dense

    WIDTHS = pytest.mark.parametrize("f_in, hidden, f_out", [(2, 4, 3), (3, 3, 2), (5, 3, 4)],
                                     ids=["first-widening", "first-square",
                                          "first-narrowing"])
    A_KINDS = pytest.mark.parametrize("kind", ["symmetric", "mask-graph"])

    @staticmethod
    def projected(tape, stack, a, v, project):
        """The stack's output projected to one column and summed, so that
        its entries weigh unequally."""
        return taped_sum(tape, nc.gcn_layer(tape, eye(a.shape[0]), stack(tape, a, v),
                                            Var(project), Var(np.zeros(1)), False))

    @WIDTHS
    @A_KINDS
    def test_gradient_check(self, f_in, hidden, f_out, kind):
        # all seven inputs by central differences
        rng = np.random.default_rng(37)
        a, dense = self.a_of(rng, kind)
        arrays = self.block_arrays(rng, 6, f_in, hidden, f_out)
        project = rng.normal(size=(f_out, 1))
        z = arrays["h"]
        for i in (1, 2):  # central differences stay off the kink
            pre = dense @ z @ arrays[f"w{i}"] + arrays[f"b{i}"]
            assert np.abs(pre).min() > 1e-3
            z = np.maximum(pre, 0.0)

        def loss():
            v = {n: Var(x) for n, x in arrays.items()}
            return float(self.projected(Tape(), self.block, a, v, project).value)

        tape = Tape()
        v = {n: tape.param(n, arrays[n]) for n in BLOCK_NAMES}
        grads = nc.backward(tape, self.projected(tape, self.block, a, v, project))
        assert set(grads) == set(BLOCK_NAMES)
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6

    @WIDTHS
    @A_KINDS
    def test_same_bits_as_three_layers(self, f_in, hidden, f_out, kind):
        # on a constant input, as the model's encoder runs, the block drops
        # Z2 after layer 3 and its backward rebuilds it
        rng = np.random.default_rng(41)
        a, _ = self.a_of(rng, kind)
        arrays = self.block_arrays(rng, 6, f_in, hidden, f_out)
        project = rng.normal(size=(f_out, 1))
        for constant in (False, True):
            self.assert_same_bits_as_three_layers(a, arrays, project, constant)
        # past one row block the block makes its products in bands and
        # blocks, in place; float64 blocks give other bits than one product
        # there, so gcn_layer makes its dense products in the same blocks.
        # A mask-graph part spans three whole bands and ends inside a fourth
        for dtype in (np.float32, np.float64):
            if kind == "symmetric":
                a = banded_sparse(rng, 2 * nc.ROW_BLOCK + 517, 150, kind, dtype)
            else:
                a = mask_graph_a(rng, (120, 112), dtype)
                rows = nc.band(a)[0]
                assert 3 * rows < a.shape[0] < 4 * rows
            n = a.shape[0]
            arrays = {k: v.astype(dtype) for k, v in
                      self.block_arrays(rng, n, f_in, hidden, f_out).items()}
            project = rng.normal(size=(f_out, 1)).astype(dtype)
            for constant in (False, True):
                self.assert_same_bits_as_three_layers(a, arrays, project, constant)

    @pytest.mark.parametrize("hidden, hidden2", [(5, 3)], ids=["middle-narrowing"])
    @A_KINDS
    def test_same_bits_as_three_layers_with_unequal_hidden_widths(self, hidden, hidden2, kind):
        # the backward takes the middle layer's products in gcn_layer's order
        rng = np.random.default_rng(43)
        a, _ = self.a_of(rng, kind)
        self.assert_same_bits_as_three_layers(
            a, self.block_arrays(rng, 6, 2, hidden, 3, hidden2), rng.normal(size=(3, 1)))

    @WIDTHS
    def test_constant_input_gets_no_gradient(self, f_in, hidden, f_out):
        # the model's features are a constant: the rule returns no gradient
        # for them, and every other gradient keeps its bits
        rng = np.random.default_rng(53)
        a, _ = self.a_of(rng, "mask-graph")
        arrays = self.block_arrays(rng, 6, f_in, hidden, f_out)
        project = rng.normal(size=(f_out, 1))
        runs = []
        for constant in (False, True):
            tape = Tape()
            v = {n: Var(arrays[n]) if constant and n == "h" else tape.param(n, arrays[n])
                 for n in BLOCK_NAMES}
            out = self.block(tape, a, v)
            assert tape.tracks(v["h"]) is not constant
            _, rule = tape._entries[-1]
            returned = [var for var, _ in rule(np.ones_like(out.value))]
            assert (v["h"] in returned) is not constant and len(returned) == 7 - constant
            tape = Tape()
            v = {n: Var(arrays[n]) if constant and n == "h" else tape.param(n, arrays[n])
                 for n in BLOCK_NAMES}
            grads = nc.backward(tape, self.projected(tape, self.block, a, v, project))
            runs.append({n: g.tobytes() for n, g in grads.items() if n != "h"})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_widening_middle_layer_raises(self, kind):
        # the model's W2 is hidden x hidden; the block has no widening-W2 backward
        rng = np.random.default_rng(43)
        a, _ = self.a_of(rng, kind)
        v = {n: Var(x) for n, x in self.block_arrays(rng, 6, 2, 3, 3, 5).items()}
        with pytest.raises(ValueError, match=r"gcn_block layer 2 widens: W \(3, 5\)"):
            self.block(Tape(), a, v)

    @pytest.mark.parametrize("odd", ["a", "h", "w1", "b2", "w3"])
    def test_mixed_dtypes_raise(self, odd):
        # one float32 array among float64 ones: a product wider than the
        # buffer it writes into would round, so the block takes one dtype
        rng = np.random.default_rng(47)
        a = mask_graph_a(rng, (2, 3), np.float32 if odd == "a" else np.float64, keep=1.0)
        v = {k: Var(x.astype(np.float32) if k == odd else x)
             for k, x in self.block_arrays(rng, 6, 2, 3, 3).items()}
        with pytest.raises(ValueError, match="gcn_block needs one dtype for A, H, W1, b1, "
                                             "W2, b2, W3, b3, got .*float32"):
            self.block(Tape(), a, v)

    def assert_same_bits_as_three_layers(self, a, arrays, project, constant=False):
        """The value and every parameter gradient, bit for bit; H is a
        parameter, or a constant when ``constant``."""
        results = []
        for stack in (self.block, self.three_layers):
            tape = Tape()
            v = {n: Var(arrays[n]) if constant and n == "h" else tape.param(n, arrays[n])
                 for n in BLOCK_NAMES}
            total = self.projected(tape, stack, a, v, project)
            grads = nc.backward(tape, total)
            assert set(grads) == set(BLOCK_NAMES) - ({"h"} if constant else set())
            results.append((total.value.tobytes(), {n: g.tobytes() for n, g in grads.items()}))
        assert results[0] == results[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_input_entry_keeps_only_the_narrow_product(self, dtype):
        # the model's encoder: between its forward and its backward the
        # entry holds A @ H (N x 1) and not Z2 (N x hidden), which a
        # tracked input's entry keeps
        rng = np.random.default_rng(59)
        n, hidden = 2 * nc.ROW_BLOCK + 517, 25
        a = banded_sparse(rng, n, 150, "symmetric", dtype)
        arrays = {k: v.astype(dtype) for k, v in self.block_arrays(rng, n, 1, hidden, 3).items()}
        unit = n * hidden * np.dtype(dtype).itemsize
        held = {}
        for constant in (False, True):
            tape = Tape()
            v = {k: Var(arrays[k]) if constant and k == "h" else tape.param(k, arrays[k])
                 for k in BLOCK_NAMES}
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = self.block(tape, a, v)
                held[constant] = (tracemalloc.get_traced_memory()[0] - before) / unit
            finally:
                tracemalloc.stop()
            assert out.value.shape == (n, 3)
        # measured: 1.16 units tracked (Z2, A @ H and the N x 3 output),
        # 0.16 constant; 1.16 for both when both kept Z2
        assert held[True] < 0.2 and held[False] - held[True] > 0.95, held

    @pytest.mark.parametrize("a_shape, shapes", [
        ((3, 3), {"h": (3, 2), "w1": (3, 4)}),   # H columns != W1 rows
        ((3, 3), {"w2": (3, 4)}),                # W2 rows != W1 columns
        ((3, 3), {"w3": (2, 2)}),                # W3 rows != W2 columns
        ((3, 3), {"b2": (2,)}),                  # bias length != W2 columns
        ((3, 3), {"b3": (1, 2)}),
        ((3, 3), {"w1": (2,)}),                  # W1 not a matrix
        ((3, 4), {"h": (4, 2)}),                 # A not square: Z1 has 3 rows
        ((3, 3), {"h": (4, 2)}),                 # A columns != H rows
    ])
    def test_shape_mismatch(self, a_shape, shapes):
        default = {"h": (3, 2), "w1": (2, 4), "b1": (4,), "w2": (4, 4), "b2": (4,),
                   "w3": (4, 2), "b3": (2,)}
        v = {n: Var(np.ones({**default, **shapes}[n])) for n in BLOCK_NAMES}
        with pytest.raises(ValueError, match="gcn_block layer [123] shape mismatch"):
            self.block(Tape(), sp.csr_matrix(np.ones(a_shape)), v)

    @pytest.mark.parametrize("layer, h, w1, w2, w3", [
        (1, 10.0, -1e308, 1.0, 1.0),    # -inf, which its ReLU would hide
        (2, 1.0, 1e300, -1e300, 1.0),   # -inf, likewise
        (3, 1.0, 1e300, 1.0, 1e300),    # +inf
    ], ids=["layer-1", "layer-2", "layer-3"])
    def test_nonfinite_in_each_layer_raises(self, layer, h, w1, w2, w3):
        v = {"h": h, "w1": w1, "b1": 0.0, "w2": w2, "b2": 0.0, "w3": w3, "b3": 0.0}
        v = {n: Var(np.full((1, 1) if n[0] in "hw" else (1,), x)) for n, x in v.items()}
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError,
                               match=f"^gcn_block layer {layer} produced non-finite values$"):
                self.block(Tape(), eye(1), v)


class TestWeightGrad:
    """``_weight_grad``: x.T @ d summed block by block, so that its bits do
    not depend on the BLAS thread count."""

    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 1000, 31_672])
    @pytest.mark.parametrize("widths", [(25, 25), (25, 3), (3, 25), (25, 1), (1, 25)])
    def test_same_bits_as_block_loop(self, n, widths):
        rng = np.random.default_rng(n)
        x, d = (rng.normal(size=(n, w)).astype(np.float32) for w in widths)
        grad = nc._weight_grad(x, d)
        assert grad.dtype == np.float32 and grad.shape == widths
        assert grad.tobytes() == weight_grad_by_blocks(x, d, nc.GRAD_BLOCK_ROWS).tobytes()
        np.testing.assert_allclose(grad, x.astype(np.float64).T @ d, rtol=0, atol=1e-3)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # node counts of sparse-churn's training subgraphs (31,672) and of a
        # dense 46,000-node graph, at the model's widths; one BLAS product
        # over these rows gives other bytes at 2 threads than at 1
        script = (
            "import hashlib, numpy as np\n"
            "from vulnaudit import numcore as nc\n"
            "rng = np.random.default_rng(0)\n"
            "for n in (31672, 46000):\n"
            "    for w in ((25, 25), (25, 3), (3, 25), (25, 1), (1, 25)):\n"
            "        x, d = (rng.normal(size=(n, k)).astype(np.float32) for k in w)\n"
            "        print(hashlib.sha256(nc._weight_grad(x, d).tobytes()).hexdigest())\n")
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(nc.__file__).parents[1])}
            runs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(runs[0].split()) == 10 and runs[0] == runs[1]


# three whole row blocks, then five weight-gradient blocks and 77 rows
BLOCKED_N = 3 * nc.ROW_BLOCK + 5 * nc.GRAD_BLOCK_ROWS + 77


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees during ``fn``, beyond what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


class TestRowBlocks:
    """The passes made a block of rows at a time give the bits of the whole
    array formulas they replace (``tests/oracles.py``)."""

    @staticmethod
    def relu_output_and_adjoint(n, width, dtype):
        """A ReLU output with exact zeros and an adjoint with signs, zeros,
        NaN and infinities, so each masked entry's bits are telling."""
        rng = np.random.default_rng(n + width)
        z = np.maximum(rng.normal(size=(n, width)), 0.0).astype(dtype)
        d = rng.normal(size=(n, width)).astype(dtype)
        if n:
            d.flat[rng.integers(0, d.size, 4)] = [np.nan, np.inf, -np.inf, -0.0]
        return z, d

    @pytest.mark.parametrize("n", [0, 1, nc.ROW_BLOCK, BLOCKED_N])
    @pytest.mark.parametrize("width", [25, 3, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masks_same_bits_as_one_bool_mask(self, n, width, dtype):
        z, d = self.relu_output_and_adjoint(n, width, dtype)
        blocked = d.copy()
        with np.errstate(invalid="ignore"):  # an infinity masked out gives NaN
            expected = relu_mask_whole(d.copy(), z).tobytes()
            nc._mask_relu(blocked, z)
        assert blocked.tobytes() == expected

    @pytest.mark.parametrize("n", [2 * nc.ROW_BLOCK, BLOCKED_N])
    @pytest.mark.parametrize("widths", [(25, 25), (25, 3), (3, 25), (25, 1), (1, 25)])
    def test_weight_grad_same_bits_as_one_sum(self, n, widths):
        rng = np.random.default_rng(n)
        x, d = (rng.normal(size=(n, w)).astype(np.float32) for w in widths)
        expected = weight_grad_one_sum(x, d, nc.GRAD_BLOCK_ROWS)
        assert nc._weight_grad(x, d).tobytes() == expected.tobytes()

    def test_weight_grad_holds_one_chunk_of_block_products(self):
        # every block's 25 x 25 product in one array would take 1.28 MB here
        n = 16 * nc.ROW_BLOCK
        rng = np.random.default_rng(3)
        x, d = (rng.normal(size=(n, 25)).astype(np.float32) for _ in range(2))
        all_blocks = n // nc.GRAD_BLOCK_ROWS * 25 * 25 * 4
        assert traced_peak(lambda: nc._weight_grad(x, d)) < all_blocks / 8


class TestInPlace:
    """The banded sparse product that overwrites its input gives the bits
    of the whole product A @ x, for any square A; for a ``_mask_graph``
    part's A-hat, those of A.T @ x too."""

    KINDS = pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "unsorted"])
    DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])

    @staticmethod
    def assert_same_bits(a, x, whole=None):
        """The banded product on a copy of x, against ``whole``, by default
        scipy's whole A @ x."""
        whole = a @ x if whole is None else whole
        ours = x.copy()
        assert nc._in_place(a, ours, nc.band(a)) is ours
        assert ours.dtype == whole.dtype and ours.tobytes() == whole.tobytes()

    @KINDS
    @DTYPES
    @pytest.mark.parametrize("n", [3 * nc.ROW_BLOCK - 5, 3 * nc.ROW_BLOCK,
                                   3 * nc.ROW_BLOCK + 1, 7],
                             ids=["below-a-multiple", "a-multiple", "one-past", "one-band"])
    @pytest.mark.parametrize("width", [25, 3, 1])
    def test_same_bits_as_whole_product(self, kind, dtype, n, width):
        rng = np.random.default_rng(n + width)
        a = banded_sparse(rng, n, min(300, n - 1), kind, dtype)
        assert nc.band(a)[0] == nc.ROW_BLOCK  # row blocks, each reading the next
        self.assert_same_bits(a, rng.normal(size=(n, width)).astype(dtype))

    @KINDS
    @DTYPES
    def test_bandwidth_above_row_block(self, kind, dtype):
        # bands widen to the bandwidth, so a band still reads only its neighbours
        n, bandwidth = 3 * nc.ROW_BLOCK + 700, nc.ROW_BLOCK + 300
        rng = np.random.default_rng(59)
        a = banded_sparse(rng, n, bandwidth, kind, dtype)
        rows, reach = nc.band(a)
        assert bandwidth <= reach < bandwidth + nc.REACH_ROWS and rows == reach
        assert 2 * rows < n < 3 * rows  # two whole bands and a partial last one
        self.assert_same_bits(a, rng.normal(size=(n, 25)).astype(dtype))

    @DTYPES
    @pytest.mark.parametrize("width", [25, 3, 1])
    def test_mask_graph_part_same_bits_as_whole_transposed_product(self, dtype, width):
        # gcn_block's backward multiplies by A-hat for A-hat.T: a part's
        # A-hat is symmetric with sorted rows, so each banded row sums its
        # column's terms in A.T's order. Three whole bands, then a partial one
        rng = np.random.default_rng(73 + width)
        a = mask_graph_a(rng, (120, 112), dtype)
        rows = nc.band(a)[0]
        assert (a != a.T).nnz == 0 and a.has_sorted_indices
        assert 3 * rows < a.shape[0] < 4 * rows
        x = rng.normal(size=(a.shape[0], width)).astype(dtype)
        self.assert_same_bits(a, x, a.T @ x)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_entry(self, n):
        a = sp.csr_matrix((n, n))
        assert nc.band(a) == (nc.ROW_BLOCK, 0)
        self.assert_same_bits(a, np.ones((n, 4)))

    def test_reach_bounds_bandwidth(self):
        rng = np.random.default_rng(61)
        for bandwidth in (0, 1, 63, 64, 500):
            a = banded_sparse(rng, 1000, bandwidth, "asymmetric")
            coo = a.tocoo()
            assert np.abs(coo.row - coo.col).max() == bandwidth
            assert bandwidth <= nc.band(a)[1] < bandwidth + nc.REACH_ROWS

    def test_holds_about_one_band_beside_the_array(self):
        # a product on a 12-band array holds, beside its input, one band's
        # result and the rows of the band before that it still reads: 0.14
        # of the input measured here
        n = 12 * nc.ROW_BLOCK
        rng = np.random.default_rng(67)
        a = banded_sparse(rng, n, 260, "asymmetric", np.float32)
        x = rng.normal(size=(n, 25)).astype(np.float32)
        bands = nc.band(a)
        peak = traced_peak(lambda: nc._in_place(a, x, bands))
        assert peak < 0.2 * x.nbytes, peak / x.nbytes


class TestCheckFinite:
    SHAPE = (2 * nc.ROW_BLOCK + 3, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, (SHAPE[0] // 2) * SHAPE[1] + 3, -1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raises_naming_the_op(self, bad, where, dtype):
        value = np.ones(self.SHAPE, dtype=dtype)
        value.flat[where] = bad
        assert not all_finite_whole(value)
        with pytest.raises(NonFiniteError, match="^some_op produced non-finite values$"):
            nc._check_finite("some_op", value)
        with pytest.raises(NonFiniteError, match="some_op"):
            nc._check_finite("some_op", value.reshape(-1))

    @pytest.mark.parametrize("value", [np.ones((0, 25)), np.ones(0), np.array(2.5),
                                       np.float32(-3.0), np.ones((5, 0))])
    def test_passes_on_empty_and_0d(self, value):
        assert all_finite_whole(value)
        nc._check_finite("some_op", np.asarray(value))

    def test_0d_nonfinite_raises(self):
        with pytest.raises(NonFiniteError, match="some_op"):
            nc._check_finite("some_op", np.array(np.nan))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_allocates_nothing_of_the_arrays_size(self, dtype):
        value = np.ones((12 * nc.ROW_BLOCK, 25), dtype=dtype)
        assert traced_peak(lambda: nc._check_finite("some_op", value)) < value.nbytes / 8


class TestGumbelSoftmax:
    """One tape entry, the bits of add_const -> scale -> softmax_rows."""

    @staticmethod
    def draw(kernel, logits, noise, s, dout):
        """(value, logits gradient) of ``kernel`` under the loss sum(out * dout)."""
        tape = Tape()
        out = kernel(tape, tape.param("logits", logits), noise, s)
        loss = Var((out.value * dout).sum())
        tape.record(loss, lambda d: ((out, dout * d),))
        return out.value, nc.backward(tape, loss)["logits"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [1.0, 1.0 / 0.3, 0.5])
    def test_same_bits_as_the_three_entry_chain(self, dtype, s):
        rng = np.random.default_rng(7)
        logits, noise, dout = (rng.normal(size=(300, 4)).astype(dtype) * 3 for _ in range(3))
        ours = self.draw(nc.gumbel_softmax, logits, noise, s, dout)
        chain = self.draw(gumbel_softmax_chain, logits, noise, s, dout)
        for one, three in zip(ours, chain):  # the value, then the logits gradient
            assert one.dtype == dtype and one.tobytes() == three.tobytes()

    def test_nonfinite_raises_named_error(self):
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="gumbel_softmax"):
                nc.gumbel_softmax(Tape(), Var(np.array([[1e308, 0.0]])),
                                  np.array([[1e308, 0.0]]), 1.0)


class TestSoftmaxRows:
    def test_uniform(self):
        out = nc.softmax_rows(Tape(), Var(np.zeros((2, 4))))
        np.testing.assert_allclose(out.value, 0.25, atol=1e-15)

    def test_hand_value(self):
        out = nc.softmax_values(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3))
        a = nc.softmax_values(logits)
        b = nc.softmax_values(logits + 3.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        p = nc.softmax_values(rng.normal(size=(100, 6)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        arrays = {"l": rng.normal(size=(4, 3))}
        c = rng.normal(size=(3, 2))

        def loss():
            tape = Tape()
            p = nc.softmax_rows(tape, Var(arrays["l"]))
            return float(nc.gcn_layer(tape, eye(4), p, Var(c), Var(np.zeros(2)),
                                      False).value.sum())

        tape = Tape()
        lv = tape.param("l", arrays["l"])
        out = nc.gcn_layer(tape, eye(4), nc.softmax_rows(tape, lv), Var(c),
                           Var(np.zeros(2)), False)
        grads = nc.backward(tape, taped_sum(tape, out))
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6

    @staticmethod
    def logits(rng, shape, dtype):
        """Normal logits of every scale, ten times over, with NaN, +inf and
        -inf in some rows, and rows of +0.0 and of -0.0 when there are any."""
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
        flat = x.reshape(-1)
        for i, special in enumerate((np.nan, np.inf, -np.inf)):
            flat[i::37] = special
        if x.ndim == 2 and len(x) > 8:
            x[5], x[6], x[7, ::2] = 0.0, -0.0, -0.0
        return x.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("rows", [None, 0, 500], ids=["1-D", "0-rows", "500-rows"])
    def test_row_reductions_same_bits_as_numpy(self, dtype, k, rows):
        # column passes below 8 columns; 8 and 9 take numpy's sum
        x = self.logits(np.random.default_rng(k), (k,) if rows is None else (rows, k), dtype)
        with np.errstate(invalid="ignore"):  # inf + -inf
            for ours, numpy_s in ((nc._row_max(x), x.max(axis=-1, keepdims=True)),
                                  (nc._row_sum(x), x.sum(axis=-1, keepdims=True))):
                assert ours.shape == numpy_s.shape and ours.dtype == dtype
                assert ours.tobytes() == numpy_s.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(2, 10))
    def test_same_bits_as_numpy_row_reductions(self, dtype, k):
        # finite logits, and a gradient from their softmax
        rng = np.random.default_rng(k)
        x = (rng.normal(size=(2000, k)) * 10.0 ** rng.integers(-3, 3, size=(2000, k)))
        x, dout = x.astype(dtype), rng.normal(size=(2000, k)).astype(dtype)
        for logits in (x, x[0]):
            p = nc.softmax_values(logits)
            assert p.dtype == dtype and p.tobytes() == softmax_row_reductions(logits).tobytes()
        # the gradient is made in the adjoint's buffer, which the rule owns
        for p, dout in ((p, dout[0]), (nc.softmax_values(x), dout)):
            owned = dout.copy()
            grad = nc._softmax_grad(p, owned)
            assert grad is owned
            assert grad.tobytes() == softmax_grad_row_reductions(p, dout).tobytes()

    @pytest.mark.parametrize("rows", [2048, 12 * nc.ROW_BLOCK])
    def test_backward_makes_one_array_of_the_logits_size(self, rows):
        # in units of the logits' size: the backward makes dout * p and an
        # N x 1 row sum (peak 1.37 measured here at 2048 rows, 1.33 at
        # 49,152) and returns dout's buffer (0.00 held). When dout - inner
        # and the product were new arrays: peak 2.36 at 2048 rows, 1.39 at
        # 49,152, where numpy (2.4) made the product in the temporary
        # dout - inner, past 256 KiB; 1.00 held at both
        tape = Tape()
        logits = np.random.default_rng(9).normal(size=(rows, 3))
        nc.softmax_rows(tape, tape.param("logits", logits))
        _, rule = tape._entries[-1]
        dout = np.ones_like(logits)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grad = rule(dout)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * logits.nbytes and held < 0.1 * logits.nbytes, (peak, held)
        assert grad[0][1] is dout

    def test_makes_one_array_of_the_logits_size(self):
        # in units of the logits' size: 1.39 measured here (logits - max,
        # an N x 1 row sum and numpy's 64 KiB ufunc buffer), 3.39 when exp
        # and the division made new arrays
        logits = np.random.default_rng(8).normal(size=(12 * nc.ROW_BLOCK, 3))
        assert traced_peak(lambda: nc.softmax_values(logits)) < 1.5 * logits.nbytes


class TestSparseMatrix:
    # The sparse operand of gcn_layer is a scipy CSR adjacency; its symmetry
    # is checked where it is normalized.
    def test_symmetry_check(self):
        sym = np.array([[0.0, 1.0], [1.0, 0.0]])
        asym = np.array([[0.0, 1.0], [0.0, 0.0]])
        gb.normalize_adjacency(sp.csr_matrix(sym))
        with pytest.raises(ValueError, match="symmetric"):
            gb.normalize_adjacency(sp.csr_matrix(asym))


class TestSmallOps:
    def test_add_const_scale_weighted_sum_gradients(self):
        rng = np.random.default_rng(9)
        arrays = {"x": rng.normal(size=(2, 3))}
        c = rng.normal(size=(2, 3))

        def build(tape, xv):
            a = nc.scale(tape, nc.add_const(tape, xv, c), 0.7)
            s1 = taped_sum(tape, a)
            s2 = taped_sum(tape, nc.gcn_layer(tape, eye(2), xv, Var(np.eye(3)),
                                              Var(np.zeros(3)), True))
            return nc.weighted_sum(tape, [s1, s2], [2.0, -0.5])

        def loss():
            tape = Tape()
            return float(build(tape, Var(arrays["x"])).value)

        tape = Tape()
        grads = nc.backward(tape, build(tape, tape.param("x", arrays["x"])))
        assert max_relative_error(grads, central_difference(loss, arrays)) < 1e-6

    def test_weighted_sum_length_mismatch(self):
        tape = Tape()
        term = taped_sum(tape, tape.param("x", np.ones(2)))
        with pytest.raises(ValueError, match="terms and weights must have equal length"):
            nc.weighted_sum(tape, [term], [1.0, 2.0])


class TestTape:
    def test_param_reregistered_with_another_array(self):
        # the same name with the same array, or a view of it, is the one
        # parameter; another array under that name is an error
        tape = Tape()
        value = np.ones((2, 3))
        w = tape.param("w", value)
        assert tape.param("w", value) is w and tape.param("w", value[:1]) is w
        with pytest.raises(ValueError, match="parameter 'w' re-registered with a different array"):
            tape.param("w", value.copy())

    def test_sum_of_parameter_gives_ones(self):
        tape = Tape()
        w = tape.param("w", np.arange(6.0).reshape(2, 3))
        grads = nc.backward(tape, taped_sum(tape, w))
        np.testing.assert_array_equal(grads["w"], np.ones((2, 3)))

    def test_rerecorded_tape_returns_only_the_new_loss_gradient(self):
        # the tape keeps no gradient between losses: each backward returns a
        # new map holding its own loss's gradient alone
        tape = Tape()
        w = tape.param("w", np.ones((2, 2)))
        first = nc.backward(tape, taped_sum(tape, w))
        loss2 = taped_sum(tape, nc.scale(tape, w, 2.0))
        grads = nc.backward(tape, loss2)
        np.testing.assert_array_equal(grads["w"], np.full((2, 2), 2.0))
        np.testing.assert_array_equal(first["w"], np.ones((2, 2)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            nc.backward(Tape(), Var(1.0))

    def test_double_backward_without_rerecording(self):
        tape = Tape()
        loss = taped_sum(tape, tape.param("w", np.ones(3)))
        nc.backward(tape, loss)
        with pytest.raises(RuntimeError):
            nc.backward(tape, loss)

    def test_backward_drops_each_entry_before_earlier_rules_run(self):
        # a later entry's rule, and what it closed over, is freed once the
        # rule has run: no earlier rule runs beside it
        tape = Tape()
        w = tape.param("w", np.ones(3))
        refs, alive = [], []

        def scaled(x, factor):
            """x * factor as a tape entry whose rule closes over a new array."""
            kept = np.full(3, factor)
            refs.append(weakref.ref(kept))

            def bwd(dout):
                alive.append([ref() is not None for ref in refs])
                return ((x, dout * kept),)

            out = Var(x.value * kept)
            tape.record(out, bwd)
            return out

        grads = nc.backward(tape, taped_sum(tape, scaled(scaled(w, 2.0), 3.0)))
        np.testing.assert_array_equal(grads["w"], np.full(3, 6.0))
        assert alive == [[True, True], [True, False]]
        assert refs[0]() is None and not tape._entries

    def test_tracks_parameters_and_entry_outputs(self):
        tape = Tape()
        w = tape.param("w", np.ones(3))
        scaled, constant = nc.scale(tape, w, 2.0), Var(np.ones(3))
        assert tape.tracks(w) and tape.tracks(scaled) and not tape.tracks(constant)
        assert not tape.tracks(Var(w.value))  # the same array, but not the parameter

    def test_unused_parameter_gets_zero_gradient(self):
        tape = Tape()
        w = tape.param("w", np.ones(2))
        tape.param("unused", np.ones(3))
        grads = nc.backward(tape, taped_sum(tape, w))
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))


class TestFiniteness:
    def test_no_nan_from_bounded_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            tape = Tape()
            x = Var(rng.uniform(-100, 100, size=(6, 4)))
            w = Var(rng.uniform(-100, 100, size=(4, 3)))
            a, _ = random_sparse(rng, 6, 6)
            out = nc.softmax_rows(tape, nc.gcn_layer(tape, a, x, w, Var(np.zeros(3)), True))
            assert np.all(np.isfinite(out.value))

    def test_overflow_raises_named_error(self):
        tape = Tape()
        x = Var(np.array([[1e308]]))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="add_const"):
                nc.add_const(tape, x, np.array([[1e308]]))

