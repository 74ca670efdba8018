"""Reverse-mode tape over the handful of kernels the model needs.

Every kernel carries a hand-derived backward rule. The graph convolution is
one fused entry, ``gcn_layer``, taking its normalized adjacency as a scipy
CSR matrix. Values are float64 ndarrays end to end (raster storage elsewhere
is float32 and gets upcast on entry), and each kernel checks its output so a
diverging run fails naming the op that produced the first non-finite value.

The tape keeps one N x width array per graph convolution, its output: the
backward reads the ReLU mask back from that output and recomputes A @ H from
the layer's input, which the tape already holds as the previous entry's
output (or a constant).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


def _check_finite(op: str, value: np.ndarray) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"{op} produced non-finite values")


class Var:
    """A value tracked on a tape."""

    __slots__ = ("value", "name")

    def __init__(self, value, name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name

    def __repr__(self):
        return f"Var(shape={self.value.shape}, name={self.name!r})"


# backward_fn(dout) -> iterable of (input Var, gradient contribution)
BackwardFn = Callable[[np.ndarray], Iterable[tuple[Var, np.ndarray]]]


class Tape:
    """Ordered record of kernel calls plus persistent gradient accumulators.

    ``backward`` consumes the recorded ops in exact reverse order and adds the
    resulting parameter gradients into ``grads``, so successive recorded losses
    accumulate additively. Parameters are registered once per name and must
    wrap the same underlying array for the lifetime of the tape.
    """

    def __init__(self):
        self._entries: list[tuple[Var, BackwardFn]] = []
        self._params: dict[str, Var] = {}
        self.grads: dict[str, np.ndarray] = {}

    def param(self, name: str, value: np.ndarray) -> Var:
        if name in self._params:
            if self._params[name].value is not value and not np.shares_memory(
                    self._params[name].value, value):
                raise ValueError(f"parameter {name!r} re-registered with a different array")
            return self._params[name]
        var = Var(value, name=name)  # no copy when value is already float64
        self._params[name] = var
        self.grads.setdefault(name, np.zeros_like(var.value))
        return var

    def constant(self, value) -> Var:
        return Var(value)

    def record(self, out: Var, backward_fn: BackwardFn) -> None:
        self._entries.append((out, backward_fn))


def backward(tape: Tape, loss: Var) -> dict[str, np.ndarray]:
    """Propagate a unit seed from ``loss`` back through the tape.

    Returns the tape's accumulator map {param name: gradient}; entries are
    consumed, so calling again without recording a new forward pass raises.
    """
    if not tape._entries:
        raise RuntimeError("backward called with no recorded forward pass "
                           "(nothing taped, or tape already consumed)")
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    for out, fn in reversed(tape._entries):
        dout = adjoint.pop(id(out), None)
        if dout is None:
            continue
        for var, grad in fn(dout):
            key = id(var)
            if key in adjoint:
                adjoint[key] = adjoint[key] + grad
            else:
                adjoint[key] = grad
    for name, var in tape._params.items():
        contrib = adjoint.get(id(var))
        if contrib is not None:
            tape.grads[name] += contrib
    tape._entries.clear()
    return tape.grads


def gcn_layer(tape: Tape, a: sp.csr_matrix, h: Var, w: Var, b: Var,
              activate: bool) -> Var:
    """One graph convolution, out = (A @ H) @ W + b, ReLU'd when ``activate``.

    A is a constant scipy CSR matrix. Finiteness is checked once, on the
    pre-activation: ReLU would map a -inf to 0 and hide it.

    The tape entry keeps only ``out``. The backward takes the ReLU mask as
    ``out > 0``, which is where the pre-activation was positive, and
    recomputes ``A @ H`` for grad-W with the same kernel on the same
    operands, so the gradients are the floats a stored copy would give.
    """
    hv, wv, bv = h.value, w.value, b.value
    if (hv.ndim != 2 or wv.ndim != 2 or a.shape[1] != hv.shape[0]
            or hv.shape[1] != wv.shape[0] or bv.shape != (wv.shape[1],)):
        raise ValueError(f"gcn_layer shape mismatch: A {a.shape}, H {hv.shape}, "
                         f"W {wv.shape}, b {bv.shape}")
    pre = (a @ hv) @ wv
    pre += bv
    _check_finite("gcn_layer", pre)
    if activate:
        np.maximum(pre, 0.0, out=pre)  # subgradient at 0 is 0
    out = Var(pre)

    def bwd(dout):
        dpre = dout * (pre > 0.0) if activate else dout
        return ((h, a.T @ (dpre @ wv.T)), (w, (a @ hv).T @ dpre), (b, dpre.sum(axis=0)))

    tape.record(out, bwd)
    return out


def softmax_values(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction; works on 1-D or 2-D input."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(tape: Tape, logits: Var) -> Var:
    p = softmax_values(logits.value)
    out = Var(p)
    _check_finite("softmax_rows", out.value)

    def bwd(dout):
        inner = (dout * p).sum(axis=-1, keepdims=True)
        return ((logits, p * (dout - inner)),)

    tape.record(out, bwd)
    return out


def add_const(tape: Tape, x: Var, c: np.ndarray) -> Var:
    out = Var(x.value + c)
    _check_finite("add_const", out.value)

    def bwd(dout):
        return ((x, dout),)

    tape.record(out, bwd)
    return out


def scale(tape: Tape, x: Var, s: float) -> Var:
    out = Var(x.value * s)
    _check_finite("scale", out.value)

    def bwd(dout):
        return ((x, dout * s),)

    tape.record(out, bwd)
    return out


def sum_all(tape: Tape, x: Var) -> Var:
    out = Var(x.value.sum())
    _check_finite("sum_all", out.value)

    def bwd(dout):
        return ((x, np.full_like(x.value, float(dout))),)

    tape.record(out, bwd)
    return out


def weighted_sum(tape: Tape, terms: list[Var], weights: list[float]) -> Var:
    if len(terms) != len(weights):
        raise ValueError("terms and weights must have equal length")
    out = Var(sum(w * t.value for t, w in zip(terms, weights)))
    _check_finite("weighted_sum", out.value)

    def bwd(dout):
        return [(t, w * dout) for t, w in zip(terms, weights)]

    tape.record(out, bwd)
    return out
