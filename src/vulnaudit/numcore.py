"""Reverse-mode tape over the handful of kernels the model needs.

Every kernel carries a hand-derived backward rule. The graph convolution is
one fused entry, ``gcn_layer``, taking its normalized adjacency as a scipy
CSR matrix. Values are float64 ndarrays end to end (raster storage elsewhere
is float32 and gets upcast on entry), and each kernel checks its output so a
diverging run fails naming the op that produced the first non-finite value.

The tape keeps one N x width array per graph convolution, its output, and
the layer multiplies by A at the narrower of its two widths, forward and
backward (see ``gcn_layer``). The backward hands every rule an adjoint the
rule owns, so a rule may reuse it as scratch space (see ``backward``).
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


# backward_fn(dout) -> iterable of (input Var, gradient contribution); the
# rule owns ``dout`` and may overwrite it (see ``backward``)
BackwardFn = Callable[[np.ndarray], Iterable[tuple[Var, np.ndarray]]]


class Tape:
    """Ordered record of kernel calls plus persistent gradient accumulators.

    ``backward`` consumes the recorded ops in exact reverse order and adds the
    resulting parameter gradients into ``grads``, so successive recorded losses
    accumulate additively. Parameters are registered once per name and must
    wrap the same underlying array for the lifetime of the tape.

    A recorded backward rule owns the adjoint ``dout`` it is given and may
    overwrite it. In return each gradient it returns must be an array that
    nothing else holds: never one array for two inputs, never its output's
    value or an array another entry still reads. The one exception is a
    pass-through of ``dout`` itself to a single input, as ``add_const`` does.
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

    Each entry's adjoint is popped before its rule runs, and a sum of two
    contributions is a new array, so the rule gets the only reference to its
    ``dout``; the Tape docstring gives what a rule must return in exchange.
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
    """One graph convolution, out = A @ H @ W + b, ReLU'd when ``activate``.

    A is a constant scipy CSR matrix. Finiteness is checked once, on the
    pre-activation: ReLU would map a -inf to 0 and hide it.

    The sparse product runs at the narrower of the layer's two widths: the
    forward is A @ (H @ W) when W narrows or keeps the width and (A @ H) @ W
    when it widens. The tape entry keeps only ``out``. The backward owns its
    adjoint and multiplies it in place by the ReLU mask, read back as
    ``out > 0`` (where the pre-activation was positive), to give dpre; then

    - narrowing or square W: one sparse product S = A.T @ dpre gives
      grad-W = H.T @ S and grad-H = S @ W.T, the latter written into dpre's
      buffer when the shapes agree;
    - widening W: grad-W = (A @ H).T @ dpre, recomputed at H's width, and
      grad-H = A.T @ (dpre @ W.T).

    ``A.T`` keeps the rule right for a rectangular or asymmetric A.
    """
    hv, wv, bv = h.value, w.value, b.value
    if (hv.ndim != 2 or wv.ndim != 2 or a.shape[1] != hv.shape[0]
            or hv.shape[1] != wv.shape[0] or bv.shape != (wv.shape[1],)):
        raise ValueError(f"gcn_layer shape mismatch: A {a.shape}, H {hv.shape}, "
                         f"W {wv.shape}, b {bv.shape}")
    narrows = wv.shape[1] <= wv.shape[0]
    pre = a @ (hv @ wv) if narrows else (a @ hv) @ wv
    pre += bv
    _check_finite("gcn_layer", pre)
    if activate:
        np.maximum(pre, 0.0, out=pre)  # subgradient at 0 is 0
    out = Var(pre)

    def bwd(dpre):  # the adjoint, owned: masked and reused in place
        if activate:
            dpre *= pre > 0.0
        grad_b = dpre.sum(axis=0)
        if not narrows:
            return ((h, a.T @ (dpre @ wv.T)), (w, (a @ hv).T @ dpre), (b, grad_b))
        s = a.T @ dpre
        grad_w = hv.T @ s
        grad_h = (np.matmul(s, wv.T, out=dpre) if dpre.shape == hv.shape
                  else s @ wv.T)
        return ((h, grad_h), (w, grad_w), (b, grad_b))

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
