"""Reverse-mode tape over the handful of kernels the model needs.

Every kernel carries a hand-derived backward rule. Graph convolutions take
their normalized adjacency as a scipy CSR matrix: ``gcn_layer`` is one
convolution, and ``gcn_block`` is the model's three-layer stack (ReLU, ReLU,
linear) as one entry. Values are float32 or float64 ndarrays: ``Var``
keeps a float32 value as float32 and makes anything else float64, and no
kernel casts its result, so a tape computes in the dtype of what it is fed
(the model feeds it its weights' dtype). Each kernel checks its output so a
diverging run fails naming the op that produced the first non-finite value.

Each convolution multiplies by A at the narrower of its two widths, forward
and backward; the layer and the block share that per-layer product and
gradient rule. A ``gcn_layer`` entry keeps its output; a ``gcn_block``
entry keeps A @ H (or the first activation, when the first layer does not
widen) and the middle activation, and recomputes the first activation in
its backward. The backward hands every rule an adjoint the rule owns, so a
rule may reuse it as scratch space (see ``backward``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


def _check_finite(op: str, value: np.ndarray) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"{op} produced non-finite values")


def _as_value(value) -> np.ndarray:
    """``value`` as an ndarray, float32 if it is float32, else float64; no
    copy when it already is one of the two."""
    value = np.asarray(value)
    return value if value.dtype == np.float32 else value.astype(np.float64, copy=False)


class Var:
    """A value tracked on a tape: a float32 array stays float32, anything
    else becomes float64."""

    __slots__ = ("value", "name")

    def __init__(self, value, name: str | None = None):
        self.value = _as_value(value)
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
        var = Var(value, name=name)  # no copy when value is float32 or float64
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


def _narrows(w: np.ndarray) -> bool:
    """The width rule: A multiplies H @ W when W narrows or keeps the width,
    and H when W widens, so the sparse product runs at the narrower width."""
    return w.shape[1] <= w.shape[0]


def _check_shapes(op: str, a: sp.csr_matrix, h_shape: tuple[int, ...], w: np.ndarray,
                  b: np.ndarray) -> None:
    if (len(h_shape) != 2 or w.ndim != 2 or a.shape[1] != h_shape[0]
            or h_shape[1] != w.shape[0] or b.shape != (w.shape[1],)):
        raise ValueError(f"{op} shape mismatch: A {a.shape}, H {h_shape}, "
                         f"W {w.shape}, b {b.shape}")


def _first_product(a: sp.csr_matrix, h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A layer's first product, at its narrower width: H @ W or A @ H."""
    return h @ w if _narrows(w) else a @ h


def _pre_activation(a: sp.csr_matrix, first: np.ndarray, w: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """A @ (H @ W) + b or (A @ H) @ W + b from the first product, unchecked."""
    pre = a @ first if _narrows(w) else first @ w
    pre += b
    return pre


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)  # in place; subgradient at 0 is 0


def _finish_layer(a: sp.csr_matrix, first: np.ndarray, w: np.ndarray,
                  b: np.ndarray, activate: bool) -> np.ndarray:
    """A forward layer from its first product, checked for finiteness before
    the ReLU (which would map a -inf to 0)."""
    pre = _pre_activation(a, first, w, b)
    _check_finite("gcn_layer", pre)
    return _relu(pre) if activate else pre


def _layer_grads(a: sp.csr_matrix, dpre: np.ndarray, h: np.ndarray, w: np.ndarray,
                 ah: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grad-H, grad-W, grad-b) of one layer from its adjoint ``dpre``,
    already masked by the ReLU. The rule owns ``dpre`` and may write grad-H
    into it. A widening layer takes grad-W from A @ H: ``ah`` when the
    caller kept it, else recomputed."""
    grad_b = dpre.sum(axis=0)
    if not _narrows(w):
        ah = a @ h if ah is None else ah
        return a.T @ (dpre @ w.T), ah.T @ dpre, grad_b
    s = a.T @ dpre
    grad_w = h.T @ s
    grad_h = np.matmul(s, w.T, out=dpre) if dpre.shape == h.shape else s @ w.T
    return grad_h, grad_w, grad_b


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
    _check_shapes("gcn_layer", a, hv.shape, wv, bv)
    pre = _finish_layer(a, _first_product(a, hv, wv), wv, bv, activate)
    out = Var(pre)

    def bwd(dpre):  # the adjoint, owned: masked and reused in place
        if activate:
            dpre *= pre > 0.0
        grad_h, grad_w, grad_b = _layer_grads(a, dpre, hv, wv)
        return ((h, grad_h), (w, grad_w), (b, grad_b))

    tape.record(out, bwd)
    return out


def gcn_block(tape: Tape, a: sp.csr_matrix, h: Var,
              layers: tuple[tuple[Var, Var], tuple[Var, Var], tuple[Var, Var]]) -> Var:
    """Three graph convolutions on one A, ReLU, ReLU, then linear, as one
    tape entry: the same products, in the same order, as three
    ``gcn_layer`` calls, so the same floats.

    The entry keeps two arrays: A @ H when the first layer widens (Z1 when
    it narrows or keeps the width) and Z2, the second layer's output. The
    forward drops Z1 once Z1 @ W2 exists, before the second sparse product.
    The backward takes layer 3's gradients from Z2, masks dZ2 by Z2 > 0 and
    drops Z2, recomputes Z1 = ReLU((A @ H) @ W1 + b1) from the kept A @ H
    without a finite check (the same product on the same arrays gives the
    bits the forward checked), takes layer 2's gradients with dZ1 written
    into dZ2's buffer, masks dZ1 by Z1 > 0, drops Z1, and ends with layer
    1's gradients.
    """
    (w1, b1), (w2, b2), (w3, b3) = layers
    hv = h.value
    shape = hv.shape
    for i, (w, b) in enumerate(layers, 1):
        _check_shapes(f"gcn_block layer {i}", a, shape, w.value, b.value)
        shape = (a.shape[0], w.value.shape[1])
    w1v, w2v, w3v = w1.value, w2.value, w3.value
    widens = not _narrows(w1v)
    first = _first_product(a, hv, w1v)
    z1 = _finish_layer(a, first, w1v, b1.value, True)
    kept = first if widens else z1  # the narrow A @ H, or Z1
    first = _first_product(a, z1, w2v)
    z1 = None
    z2 = _finish_layer(a, first, w2v, b2.value, True)
    first = None
    out = Var(_finish_layer(a, _first_product(a, z2, w3v), w3v, b3.value, False))

    def bwd(d3):  # the adjoint, owned
        nonlocal z2
        dz2, grad_w3, grad_b3 = _layer_grads(a, d3, z2, w3v)
        dz2 *= z2 > 0.0
        z2 = None
        z1 = _relu(_pre_activation(a, kept, w1v, b1.value)) if widens else kept
        dz1, grad_w2, grad_b2 = _layer_grads(a, dz2, z1, w2v)
        dz1 *= z1 > 0.0
        z1 = None
        grad_h, grad_w1, grad_b1 = _layer_grads(a, dz1, hv, w1v, kept if widens else None)
        return ((h, grad_h), (w1, grad_w1), (b1, grad_b1), (w2, grad_w2),
                (b2, grad_b2), (w3, grad_w3), (b3, grad_b3))

    tape.record(out, bwd)
    return out


def softmax_values(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction; works on 1-D or 2-D input, in
    float32 for float32 logits and float64 for any other."""
    z = _as_value(logits)
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
