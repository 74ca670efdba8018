"""Reverse-mode tape over the handful of kernels the model needs.

Every kernel carries a hand-derived backward rule. Graph convolutions take
their normalized adjacency as a scipy CSR matrix: ``gcn_layer`` is one
convolution, and ``gcn_block`` is the model's three-layer stack (ReLU, ReLU,
linear) as one entry. ``gumbel_softmax`` is a relaxed categorical draw,
softmax((logits + noise) * s), as one entry. Values are float32 or float64
ndarrays: ``Var`` keeps a float32 value as float32 and makes anything else
float64, and no kernel casts its result, so a tape computes in the dtype of
what it is fed (the model feeds it its weights' dtype). Each kernel checks
its output so a diverging run fails naming the op that produced the first
non-finite value.

Each convolution multiplies by A at the narrower of its two widths, forward
and backward; the layer and the block share that per-layer product and
gradient rule. A ``gcn_layer`` entry keeps its output; a ``gcn_block``
entry keeps A @ H (or the first activation, when the first layer does not
widen) and the middle activation, and recomputes the first activation in
its backward. The backward hands every rule an adjoint the rule owns, so a
rule may reuse it as scratch space; it drops each entry before running the
entry's rule, so what a rule closed over is freed once the rule has run,
and no tape keeps a gradient (see ``backward``). Passes over an N-row array
that would make a temporary of its size (the ReLU masks, the finite check,
a weight gradient's block products) run ROW_BLOCK rows at a time. Each
weight gradient sums its node rows in fixed blocks (``_weight_grad``), so
its bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

# rows per block of a weight gradient's sum (see ``_weight_grad``). A 25 x 25
# gradient over N = 31,672 rows took 0.8 ms in blocks of 128 and 1.0 ms as
# one product (one BLAS thread, 2-vCPU x86-64 VM)
GRAD_BLOCK_ROWS = 128
# rows per block of a pass over an N-row array, so that no pass makes a
# temporary of the array's size: a ReLU mask (a bool block, or its packed
# bits), a finite check, and a chunk of a weight gradient's block products.
# A multiple of GRAD_BLOCK_ROWS and of 8, so a block of packed mask bits
# ends on a byte. At N = 49,152 and width 25 (one BLAS thread, 2-vCPU
# x86-64 VM) a blocked finite check took 0.30 ms against 0.29 ms whole
ROW_BLOCK = 4096


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


def _row_blocks(n: int) -> Iterator[slice]:
    """n rows as slices of ROW_BLOCK rows, the last one shorter."""
    return (slice(i, i + ROW_BLOCK) for i in range(0, n, ROW_BLOCK))


def _check_finite(op: str, value: np.ndarray) -> None:
    """Raise NonFiniteError naming ``op`` if ``value`` holds a NaN or an
    infinity; ROW_BLOCK rows at a time, so the check allocates nothing of
    the array's size."""
    value = np.atleast_1d(value)
    for rows in _row_blocks(len(value)):
        if not np.isfinite(value[rows]).all():
            raise NonFiniteError(f"{op} produced non-finite values")


def _as_value(value) -> np.ndarray:
    """``value`` as an ndarray, float32 if it is float32, else float64; no
    copy when it already is one of the two."""
    value = np.asarray(value)
    return value if value.dtype == np.float32 else value.astype(np.float64, copy=False)


class Var:
    """A value tracked on a tape: a float32 array stays float32, anything
    else becomes float64."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = _as_value(value)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


# backward_fn(dout) -> iterable of (input Var, gradient contribution); the
# rule owns ``dout`` and may overwrite it (see ``backward``)
BackwardFn = Callable[[np.ndarray], Iterable[tuple[Var, np.ndarray]]]


class Tape:
    """Ordered record of the kernel calls of one forward pass, and the
    parameters they read, by name.

    ``backward`` consumes the recorded ops in exact reverse order, dropping
    each entry before its rule runs, and returns one loss's parameter
    gradients; the tape keeps none of them. Parameters are registered once
    per name and must wrap the same underlying array for the lifetime of the
    tape.

    A recorded backward rule owns the adjoint ``dout`` it is given and may
    overwrite it. In return each gradient it returns must be an array that
    nothing else holds: never one array for two inputs, never its output's
    value or an array another entry still reads. The one exception is a
    pass-through of ``dout`` itself to a single input, as ``add_const`` does.
    """

    def __init__(self):
        self._entries: list[tuple[Var, BackwardFn]] = []
        self._params: dict[str, Var] = {}

    def param(self, name: str, value: np.ndarray) -> Var:
        if name in self._params:
            if self._params[name].value is not value and not np.shares_memory(
                    self._params[name].value, value):
                raise ValueError(f"parameter {name!r} re-registered with a different array")
            return self._params[name]
        var = Var(value)  # no copy when value is float32 or float64
        self._params[name] = var
        return var

    def record(self, out: Var, backward_fn: BackwardFn) -> None:
        self._entries.append((out, backward_fn))


def _accumulate(adjoint: dict[int, np.ndarray],
                contributions: Iterable[tuple[Var, np.ndarray]]) -> None:
    """Add each (input, gradient) pair a rule returned to the input's
    adjoint; a sum of two contributions is a new array."""
    for var, grad in contributions:
        key = id(var)
        adjoint[key] = adjoint[key] + grad if key in adjoint else grad


def backward(tape: Tape, loss: Var) -> dict[str, np.ndarray]:
    """Propagate a unit seed from ``loss`` back through the tape.

    Returns a new map {param name: gradient} of this loss alone, zeros for a
    parameter it does not reach; entries are consumed, so calling again
    without recording a new forward pass raises.

    Each entry is popped off the tape before its rule runs, so whatever a
    rule closed over (the arrays its kernel kept, its output's value) is
    freed once the rule has run, before the next one runs. Its adjoint is
    popped too, and a sum of two contributions is a new array, so the rule
    gets the only reference to its ``dout``; the Tape docstring gives what a
    rule must return in exchange. Adjoints are keyed by ``id``: every Var a
    rule returns was alive when the backward began, so no two share a key.
    """
    entries = tape._entries
    if not entries:
        raise RuntimeError("backward called with no recorded forward pass "
                           "(nothing taped, or tape already consumed)")
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    while entries:
        out, fn = entries.pop()  # rebinding frees the previous entry's rule
        key = id(out)
        if key in adjoint:
            _accumulate(adjoint, fn(adjoint.pop(key)))
    return {name: adjoint[id(var)] if id(var) in adjoint else np.zeros_like(var.value)
            for name, var in tape._params.items()}


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


def _mask_relu(d: np.ndarray, z: np.ndarray) -> None:
    """d *= z > 0 in place, where ``z`` is a ReLU's output (positive where
    its input was), one block of rows at a time."""
    for rows in _row_blocks(len(z)):
        np.multiply(d[rows], z[rows] > 0.0, out=d[rows])


def _relu_mask_bits(z: np.ndarray) -> list[np.ndarray]:
    """``z > 0`` packed to bits, one flat array per block of rows: an
    eighth of the bool mask's bytes, kept while ``z``'s buffer is reused."""
    return [np.packbits(z[rows] > 0.0) for rows in _row_blocks(len(z))]


def _mask_by_bits(d: np.ndarray, bits: list[np.ndarray]) -> None:
    """``_mask_relu`` from the bits ``_relu_mask_bits`` packed."""
    for rows, packed in zip(_row_blocks(len(d)), bits):
        block = d[rows]
        block *= np.unpackbits(packed, count=block.size).reshape(block.shape).view(bool)


def _finish_layer(op: str, a: sp.csr_matrix, first: np.ndarray, w: np.ndarray,
                  b: np.ndarray, activate: bool) -> np.ndarray:
    """A forward layer from its first product, finite-checked as ``op`` before the ReLU."""
    pre = _pre_activation(a, first, w, b)
    _check_finite(op, pre)
    return _relu(pre) if activate else pre


def _weight_grad(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x.T @ d, a weight gradient: a sum over the N node rows, in an order
    that does not depend on the BLAS thread count. One BLAS product over all
    N rows splits that sum across threads, so its bits would depend on the
    count (OpenBLAS 0.3.31, float32, 1 against 2 threads: 25 x 25 and 25 x 3
    gradients differ for most N from 1,655 rows up, 25 x 1 ones from about
    32,768). Here the rows past the last whole block of
    GRAD_BLOCK_ROWS rows make one product, and each block's product, small
    enough that BLAS runs it on one thread, is added to it in block order.

    The block products are made ROW_BLOCK rows at a time. Each chunk's are
    summed along axis 0, which adds them one by one in order, with the
    running total of the chunks before as the first term; so the additions
    are those of one sum over all blocks, in the same order, and no array
    holds every block's product."""
    n = len(x) - len(x) % GRAD_BLOCK_ROWS
    grad = x[n:].T @ d[n:]
    if n:
        xb = x[:n].reshape(-1, GRAD_BLOCK_ROWS, x.shape[1]).transpose(0, 2, 1)
        db = d[:n].reshape(-1, GRAD_BLOCK_ROWS, d.shape[1])
        per = ROW_BLOCK // GRAD_BLOCK_ROWS
        # slot 0 carries the running total, the chunk's products follow it
        terms = np.empty((min(per, len(xb)) + 1,) + grad.shape, dtype=grad.dtype)
        for i in range(0, len(xb), per):
            c = min(per, len(xb) - i)
            np.matmul(xb[i:i + c], db[i:i + c], out=terms[1:1 + c])
            if i:
                terms[0] = total
            total = terms[(0 if i else 1):1 + c].sum(axis=0)
        grad += total
    return grad


def _layer_grads(a: sp.csr_matrix, dpre: np.ndarray, h: np.ndarray, w: np.ndarray,
                 ah: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grad-H, grad-W, grad-b) of one layer from its adjoint ``dpre``,
    already masked by the ReLU. The rule owns ``dpre`` and may write grad-H
    into it. A widening layer takes grad-W from A @ H: ``ah`` when the
    caller kept it, else recomputed."""
    grad_b = dpre.sum(axis=0)
    if not _narrows(w):
        ah = a @ h if ah is None else ah
        return a.T @ (dpre @ w.T), _weight_grad(ah, dpre), grad_b
    s = a.T @ dpre
    grad_w = _weight_grad(h, s)
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
    ``out > 0`` (where the pre-activation was positive) a block of rows at a
    time, to give dpre; then

    - narrowing or square W: one sparse product S = A.T @ dpre gives
      grad-W = H.T @ S and grad-H = S @ W.T, the latter written into dpre's
      buffer when the shapes agree;
    - widening W: grad-W = (A @ H).T @ dpre, recomputed at H's width, and
      grad-H = A.T @ (dpre @ W.T).

    ``A.T`` keeps the rule right for a rectangular or asymmetric A.
    """
    hv, wv, bv = h.value, w.value, b.value
    _check_shapes("gcn_layer", a, hv.shape, wv, bv)
    pre = _finish_layer("gcn_layer", a, _first_product(a, hv, wv), wv, bv, activate)
    out = Var(pre)

    def bwd(dpre):  # the adjoint, owned: masked and reused in place
        if activate:
            _mask_relu(dpre, pre)
        grad_h, grad_w, grad_b = _layer_grads(a, dpre, hv, wv)
        return ((h, grad_h), (w, grad_w), (b, grad_b))

    tape.record(out, bwd)
    return out


def gcn_block(tape: Tape, a: sp.csr_matrix, h: Var,
              layers: tuple[tuple[Var, Var], tuple[Var, Var], tuple[Var, Var]]) -> Var:
    """Three graph convolutions on one A, ReLU, ReLU, then linear, as one
    tape entry: the same products, in the same order, as three
    ``gcn_layer`` calls, so the same floats.

    The middle layer must not widen: the model's W2 is hidden x hidden
    (``model.param_shapes``), and a widening W2 is a ValueError.

    The entry keeps two arrays: A @ H when the first layer widens (Z1 when
    it narrows or keeps the width) and Z2, the second layer's output. The
    forward drops Z1 once Z1 @ W2 exists, before the second sparse product.
    The backward takes layer 3's gradients from Z2, masks dZ2 by Z2 > 0 a
    block of rows at a time and drops Z2. It then forms S = A.T @ dZ2 and
    drops dZ2, recomputes Z1 = ReLU((A @ H) @ W1 + b1) from the kept A @ H
    without a finite check (the same product on the same arrays gives the
    bits the forward checked), takes grad-W2 = Z1.T @ S, packs the mask
    Z1 > 0 into bits, writes dZ1 = S @ W2.T into Z1's buffer and drops S,
    masks dZ1 from the bits, and ends with layer 1's gradients. These are
    ``gcn_layer``'s products on the same arrays, so the same bits, but the
    backward holds at most two N x hidden arrays of its own and no N x
    hidden mask. With the other block's Z2 (the model's encoder keeps its
    own through the decoder's backward), a training step peaks at three
    N x hidden arrays.
    """
    (w1, b1), (w2, b2), (w3, b3) = layers
    hv = h.value
    shape = hv.shape
    for i, (w, b) in enumerate(layers, 1):
        _check_shapes(f"gcn_block layer {i}", a, shape, w.value, b.value)
        shape = (a.shape[0], w.value.shape[1])
    w1v, w2v, w3v = w1.value, w2.value, w3.value
    if not _narrows(w2v):
        raise ValueError(f"gcn_block layer 2 widens: W {w2v.shape}")
    widens = not _narrows(w1v)
    first = _first_product(a, hv, w1v)
    z1 = _finish_layer("gcn_block layer 1", a, first, w1v, b1.value, True)
    kept = first if widens else z1  # the narrow A @ H, or Z1
    first = _first_product(a, z1, w2v)
    z1 = None
    z2 = _finish_layer("gcn_block layer 2", a, first, w2v, b2.value, True)
    first = None
    out = Var(_finish_layer("gcn_block layer 3", a, _first_product(a, z2, w3v), w3v,
                            b3.value, False))

    def bwd(d3):  # the adjoint, owned
        nonlocal z2
        dz2, grad_w3, grad_b3 = _layer_grads(a, d3, z2, w3v)
        _mask_relu(dz2, z2)
        z2 = None
        # layer 2: _layer_grads' products, each array dropped after its last read
        grad_b2 = dz2.sum(axis=0)
        s, dz2 = a.T @ dz2, None  # all that is read of dZ2 from here on
        z1 = _relu(_pre_activation(a, kept, w1v, b1.value)) if widens else kept
        grad_w2 = _weight_grad(z1, s)
        z1_positive = _relu_mask_bits(z1)
        dz1 = np.matmul(s, w2v.T, out=z1)  # Z1 is read no more: dZ1 takes its buffer
        s = z1 = None
        _mask_by_bits(dz1, z1_positive)
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


def _softmax_grad(p: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """The gradient of a row softmax's logits from its output ``p`` and
    adjoint ``dout``."""
    inner = (dout * p).sum(axis=-1, keepdims=True)
    return p * (dout - inner)


def softmax_rows(tape: Tape, logits: Var) -> Var:
    p = softmax_values(logits.value)
    out = Var(p)
    _check_finite("softmax_rows", out.value)

    def bwd(dout):
        return ((logits, _softmax_grad(p, dout)),)

    tape.record(out, bwd)
    return out


def gumbel_softmax(tape: Tape, logits: Var, noise: np.ndarray, s: float) -> Var:
    """softmax((logits + noise) * s), the relaxed categorical draw with the
    Gumbel ``noise`` a constant and ``s`` = 1 / tau, as one tape entry.

    The value and the logits' gradient are those of ``add_const``, ``scale``
    and ``softmax_rows`` chained, in the same order, so the same bits; the
    entry keeps only its output, where the chain keeps three N x K arrays.
    (logits + noise) * s is checked for finiteness once: a positive scale
    keeps a NaN or an infinity non-finite."""
    z = logits.value + noise
    z *= s
    _check_finite("gumbel_softmax", z)
    p = softmax_values(z)
    _check_finite("gumbel_softmax", p)

    def bwd(dout):
        grad = _softmax_grad(p, dout)
        grad *= s
        return ((logits, grad),)

    out = Var(p)
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


def weighted_sum(tape: Tape, terms: list[Var], weights: list[float]) -> Var:
    if len(terms) != len(weights):
        raise ValueError("terms and weights must have equal length")
    out = Var(sum(w * t.value for t, w in zip(terms, weights)))
    _check_finite("weighted_sum", out.value)

    def bwd(dout):
        return [(t, w * dout) for t, w in zip(terms, weights)]

    tape.record(out, bwd)
    return out
