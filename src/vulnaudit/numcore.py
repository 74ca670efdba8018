"""Reverse-mode tape over the handful of kernels the model needs.

Every kernel carries a hand-derived backward rule. Graph convolutions take
their normalized adjacency as a scipy CSR matrix: ``gcn_layer`` is one
convolution of any widths, and ``gcn_block`` is the model's three-layer
stack (ReLU, ReLU, linear) as one entry, in the model's shape only: its
first layer widens and its others keep or narrow the width. The relaxed
categorical draw softmax((logits + noise) * s) is one ``gumbel_softmax``
entry. Values are float32 or float64
ndarrays: ``Var`` keeps a float32 value as float32 and makes anything else
float64, and no kernel casts its result, so a tape computes in the dtype of
what it is fed (the model feeds it its weights' dtype). Each kernel checks
its output so a diverging run fails naming the op that produced the first
non-finite value.

Each convolution multiplies by A at the narrower of its two widths, forward
and backward; the layer and the block share that per-layer product and
gradient rule. A ``gcn_layer`` entry keeps its output; a ``gcn_block``
entry keeps A @ H, keeps the middle activation only for an input the tape
tracks, and recomputes in its backward what it did not keep; each of its
products at the hidden width writes into the buffer it reads, the sparse
ones a band of A's rows at a time (``band``), in the backward too: a
block's A is symmetric, so A stands for A.T there. A row softmax reduces
its rows by passes over their few columns, with numpy's bits (``_row_max``,
``_row_sum``). The backward hands every rule an adjoint the rule owns, so
a rule may reuse it as scratch space; it drops each entry before running
the entry's rule, so what a rule closed over is freed once the rule has
run, and no tape keeps a gradient (see ``backward``). Dense products over
N rows, and passes that would make a temporary of an N-row array's size
(the ReLU masks, the finite check, a weight gradient's block products),
run ROW_BLOCK rows at a time. Each weight gradient sums its node rows in
fixed blocks (``_weight_grad_of``), so its bytes do not depend on the BLAS
thread count.
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
# temporary of the array's size: a dense product (``_matmul_rows``), a ReLU
# mask, a finite check, and a chunk of a weight gradient's block products,
# so a multiple of GRAD_BLOCK_ROWS; and the least rows of a band of a sparse
# product that overwrites its input (``band``). At N = 49,152 and width 25
# (one BLAS thread, 2-vCPU x86-64 VM) a blocked finite check took 0.30 ms
# against 0.29 ms whole
ROW_BLOCK = 4096
# rows per run of A whose column range bounds A's bandwidth (see ``band``):
# on a dense 256 x 192 part graph (49,152 rows, one BLAS thread, 2-vCPU
# x86-64 VM) the bound took 0.09 ms, one row at a time 2.2 ms
REACH_ROWS = 64


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


def _row_blocks(n: int) -> Iterator[slice]:
    """n rows as slices of ROW_BLOCK rows, the last one shorter; one empty
    slice for no rows, so a pass over them still sees each array's width."""
    return (slice(i, i + ROW_BLOCK) for i in range(0, max(n, 1), ROW_BLOCK))


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

    def tracks(self, var: Var) -> bool:
        """Whether a gradient can reach ``var``: it is a registered parameter
        or the output of a recorded entry. Any other input is a constant,
        and a rule need not return a gradient for it."""
        return (any(var is p for p in self._params.values())
                or any(var is out for out, _ in self._entries))


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


def band(a: sp.csr_matrix) -> tuple[int, int]:
    """(rows, reach) of the bands in which a square A's products overwrite
    their input (``_in_place``). ``reach`` bounds A's bandwidth max|i - j|
    over its stored entries: it is read from the column range of each run of
    REACH_ROWS rows of A's CSR, so it needs no sorted indices and is at most
    REACH_ROWS - 1 above the bandwidth. A band is ROW_BLOCK rows, or
    ``reach`` rows when that is more, so no output row reads an input row
    more than a band away."""
    n = a.shape[0]
    starts = np.arange(0, n, REACH_ROWS)
    ends = np.minimum(starts + REACH_ROWS, n)
    first, last = a.indptr[starts], a.indptr[ends]
    stored = last > first
    if not stored.any():
        return ROW_BLOCK, 0
    starts, ends, first = starts[stored], ends[stored], first[stored]
    indices = a.indices[:a.indptr[-1]]
    low = np.minimum.reduceat(indices, first)
    high = np.maximum.reduceat(indices, first)
    reach = int(max((ends - 1 - low).max(), (high - starts).max()))
    return max(ROW_BLOCK, reach), reach


def _in_place(a: sp.csr_matrix, x: np.ndarray, bands: tuple[int, int],
              finish: Callable[[np.ndarray], None] | None = None) -> np.ndarray:
    """A @ x for a square A, written into x's buffer one band of rows at a
    time (``band``); ``finish`` (bias, finite check, ReLU) runs on each band
    as it is made. A's dtype must not be wider than x's, which would round
    the product into x's buffer; ``gcn_block`` makes sure of that.

    An output row reads input rows at most ``reach`` away, so once a band is
    made, no band still to come reads its rows but the last ``reach``: the
    rest replace their input rows at once, and those last rows are held
    until the next band is made. A band is A's CSR rows for it, on A's own
    arrays, so each output row is the sum scipy makes for it in the whole
    product, for any A."""
    import scipy.sparse as sp
    rows, reach = bands
    n = len(x)
    indptr, indices, data = a.indptr, a.indices, a.data
    held, tail = 0, None  # the last band's rows the next band reads, from row ``held``
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        p0, p1 = indptr[r0], indptr[r1]
        result = sp.csr_matrix((data[p0:p1], indices[p0:p1], indptr[r0:r1 + 1] - p0),
                               shape=(r1 - r0, n)) @ x
        if finish is not None:
            finish(result)
        if tail is not None:
            x[held:r0] = tail
        held = r1 if r1 == n else r1 - reach  # a band is at least ``reach`` rows
        x[r0:held] = result[:held - r0]
        tail, result = result[held - r0:].copy(), None
    return x


def _into(out: np.ndarray | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """``out`` when it has this shape and dtype, else a new array: a result
    reuses a buffer only where it fits it exactly."""
    if out is not None and out.shape == shape and out.dtype == dtype:
        return out
    return np.empty(shape, dtype)


def _matmul_rows(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None,
                 positive: np.ndarray | None = None) -> np.ndarray:
    """x @ w, ROW_BLOCK rows at a time, into ``out`` when it fits (``_into``),
    times ``positive > 0`` when given: a ReLU's mask, from its output. Each
    block reads its rows of x and ``positive`` before it writes its rows of
    ``out``, so ``out`` may be either of them.

    A product with one output column is made whole. For the model's wider
    outputs 4096-row blocks give the float32 bits of one product (OpenBLAS
    0.3.31, AVX-512, N up to 49,153), but for a one-column output they do
    not (N x 25 @ 25 x 1 with a one-row last block, N x 3 @ 3 x 1 at most N
    past 8,192). float64 blocks can differ from one product past ROW_BLOCK
    rows, so ``gcn_layer`` makes its dense products here too."""
    out = _into(out, (len(x), w.shape[1]), np.result_type(x, w))
    for rows in _row_blocks(len(x)) if w.shape[1] > 1 else (slice(None),):
        mask = None if positive is None else positive[rows] > 0.0
        np.matmul(x[rows], w, out=out[rows])  # numpy buffers x's rows if out is x
        if mask is not None:
            out[rows] *= mask
    return out


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)  # in place; subgradient at 0 is 0


def _mask_relu(d: np.ndarray, z: np.ndarray) -> None:
    """d *= z > 0 in place, where ``z`` is a ReLU's output (positive where
    its input was), one block of rows at a time."""
    for rows in _row_blocks(len(z)):
        np.multiply(d[rows], z[rows] > 0.0, out=d[rows])


def _finish(op: str | None, b: np.ndarray,
            activate: bool) -> Callable[[np.ndarray], None]:
    """The end of a forward layer, in place on rows of its pre-activation:
    add the bias, check finiteness as ``op`` (before the ReLU, which would
    map a -inf to 0), then the ReLU when ``activate``. With no ``op`` there
    is no check: a recompute makes the products the forward checked."""
    def finish(pre: np.ndarray) -> None:
        pre += b
        if op is not None:
            _check_finite(op, pre)
        if activate:
            _relu(pre)
    return finish


def _finish_layer(op: str | None, a: sp.csr_matrix, first: np.ndarray, w: np.ndarray,
                  b: np.ndarray, activate: bool) -> np.ndarray:
    """A forward layer from its first product, H @ W for a layer that
    narrows or keeps the width and A @ H for one that widens, finished by
    ``_finish`` in the new array its second product makes."""
    pre = a @ first if _narrows(w) else _matmul_rows(first, w)
    _finish(op, b, activate)(pre)
    return pre


def _weight_grad(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x.T @ d, a weight gradient, summed by ``_weight_grad_of``."""
    return _weight_grad_of((x[rows], d[rows]) for rows in _row_blocks(len(x)))


def _weight_grad_of(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The sum of x.T @ d over ``chunks``, (x, d) row pairs of ROW_BLOCK rows
    each but the last, in row order: a weight gradient, a sum over the N
    node rows, in an order that does not depend on the BLAS thread count.
    One BLAS product over all N rows splits that sum across threads, so its
    bits would depend on the count (OpenBLAS 0.3.31, float32, 1 against 2
    threads: 25 x 25 and 25 x 3 gradients differ for most N from 1,655 rows
    up, 25 x 1 ones from about 32,768). Here the rows past the last whole
    block of GRAD_BLOCK_ROWS rows make one product, and each block's
    product, small enough that BLAS runs it on one thread, is added to it in
    block order.

    Each chunk's block products are summed along axis 0, which adds them one
    by one in order, with the running total of the chunks before as the
    first term; so the additions are those of one sum over all blocks, in
    the same order, and no array holds every block's product. A chunk is
    read before the next is asked for, so the caller may then overwrite it."""
    total = None
    for x, d in chunks:
        n = len(x) - len(x) % GRAD_BLOCK_ROWS
        grad = x[n:].T @ d[n:]  # only the last chunk has rows past a whole block
        if n:
            c = n // GRAD_BLOCK_ROWS
            # slot 0 carries the running total, the chunk's products follow it
            terms = np.empty((c + 1,) + grad.shape, dtype=grad.dtype)
            np.matmul(x[:n].reshape(c, GRAD_BLOCK_ROWS, x.shape[1]).transpose(0, 2, 1),
                      d[:n].reshape(c, GRAD_BLOCK_ROWS, d.shape[1]), out=terms[1:])
            if total is not None:
                terms[0] = total
            total = terms[(1 if total is None else 0):].sum(axis=0)
            terms = None
        x = d = None  # freed before the caller makes the next chunk
    if total is not None:
        grad += total
    return grad


def _layer_grads(a: sp.csr_matrix, dpre: np.ndarray, h: np.ndarray, w: np.ndarray,
                 ah: np.ndarray | None = None, positive: np.ndarray | None = None,
                 with_h: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(grad-H, grad-W, grad-b) of one layer from its adjoint ``dpre``,
    already masked by the ReLU. The rule owns ``dpre`` and may write grad-H
    into it.

    A widening layer takes grad-W from A @ H: ``ah`` when the caller kept
    it, else recomputed; its grad-H is None when ``with_h`` is False. A
    narrowing or square layer takes grad-W before grad-H, which it masks by
    ``positive``, a ReLU's output, and writes into that array's buffer (the
    layer below's output, read no more) when given, else into dpre's when
    the shapes agree."""
    grad_b = dpre.sum(axis=0)
    if not _narrows(w):
        grad_w = _weight_grad(a @ h if ah is None else ah, dpre)
        if not with_h:
            return None, grad_w, grad_b
        return a.T @ _matmul_rows(dpre, w.T), grad_w, grad_b
    s = a.T @ dpre
    grad_w = _weight_grad(h, s)
    out = positive if positive is not None else dpre
    return _matmul_rows(s, w.T, out, positive), grad_w, grad_b


def gcn_layer(tape: Tape, a: sp.csr_matrix, h: Var, w: Var, b: Var,
              activate: bool) -> Var:
    """One graph convolution, out = A @ H @ W + b, ReLU'd when ``activate``.

    A is a constant scipy CSR matrix. Finiteness is checked once, on the
    pre-activation: ReLU would map a -inf to 0 and hide it.

    The sparse product runs at the narrower of the layer's two widths: the
    forward is A @ (H @ W) when W narrows or keeps the width and (A @ H) @ W
    when it widens. The tape entry keeps only ``out``. The backward owns its
    adjoint, masks it in place by ``out > 0`` a block of rows at a time to
    give dpre, and takes the gradients by ``_layer_grads``: one sparse
    product S = A.T @ dpre for a narrowing or square W, giving grad-W =
    H.T @ S and grad-H = S @ W.T; for a widening W, grad-W = (A @ H).T @
    dpre, recomputed at H's width, and grad-H = A.T @ (dpre @ W.T).

    ``A.T`` keeps the rule right for a rectangular or asymmetric A. Its
    sparse products are whole; its dense ones are ``gcn_block``'s, made
    ROW_BLOCK rows at a time (``_matmul_rows``), so on the block's A the two
    give the same bits in either dtype.
    """
    hv, wv, bv = h.value, w.value, b.value
    _check_shapes("gcn_layer", a, hv.shape, wv, bv)
    first = _matmul_rows(hv, wv) if _narrows(wv) else a @ hv
    pre = _finish_layer("gcn_layer", a, first, wv, bv, activate)
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

    The block takes the model's shape (``model.param_shapes``), a hidden
    width above the input's and the output's: W1 widens, and W2 and W3 keep
    or narrow the width. Each layer is checked in turn, and another shape
    is a ValueError naming the layer and its W. A, H and every W and b
    share one dtype, and another is a ValueError, so no product is wider
    than the buffer it writes into. A is square and symmetric with sorted
    rows, as ``graph_build`` makes every A-hat: the backward multiplies by
    A where a layer multiplies by A.T, and a sorted row of a symmetric A
    sums its column's terms in A.T's order, so the bits are A.T's.

    Every product at the hidden width writes into the buffer it reads: the
    sparse ones band by band (``_in_place``), with the bias, finite check
    and ReLU made on each band; the dense ones ROW_BLOCK rows at a time
    (``_matmul_rows``), each under its ReLU mask. A @ H and the output
    layer's products make new arrays.

    The entry keeps A @ H and, for an input the tape tracks
    (``Tape.tracks``), Z2; Z1 @ W2 and then Z2 take Z1's buffer. A block on
    an untracked input, the model's encoder, drops Z2 once layer 3 has read
    it, and its backward, which runs last in a step, rebuilds Z2 from A @ H
    with the forward's calls on the same arrays, without a finite check:
    the same bits. The backward takes layer 3's gradients from Z2 and
    writes dZ2 = (S3 @ W3.T) * (Z2 > 0) into Z2's buffer; S = A @ dZ2 takes
    that buffer in turn. It then recomputes Z1 = ReLU((A @ H) @ W1 + b1)
    one block of rows at a time, again unchecked; each block feeds grad-W2
    = Z1.T @ S in ``_weight_grad_of``'s order, and then dZ1 = (S @ W2.T) *
    (Z1 > 0) is made in the block's buffer and replaces S's rows. Layer 1's
    gradients end it; grad-H only for a tracked H: the model's features
    are a constant.

    So the block holds one N x hidden array of its own, forward and
    backward, beside the blocks and bands it works in (for N <= ROW_BLOCK
    one block is all N rows), and the encoder holds none between its
    forward and its backward: a training step peaks at one N x hidden
    array. The decoder keeps its Z2, which its backward reads at once.
    """
    (w1, b1), (w2, b2), (w3, b3) = layers
    hv = h.value
    shape = hv.shape
    for i, (w, b) in enumerate(layers, 1):
        _check_shapes(f"gcn_block layer {i}", a, shape, w.value, b.value)
        if _narrows(w.value) == (i == 1):
            rule = "does not widen" if i == 1 else "widens"
            raise ValueError(f"gcn_block layer {i} {rule}: W {w.value.shape}")
        shape = (a.shape[0], w.value.shape[1])
    w1v, w2v, w3v = w1.value, w2.value, w3.value
    b1v, b2v = b1.value, b2.value
    dtypes = [a.dtype, hv.dtype] + [v.value.dtype for pair in layers for v in pair]
    if len(set(dtypes)) > 1:
        raise ValueError("gcn_block needs one dtype for A, H, W1, b1, W2, b2, W3, b3, got "
                         + ", ".join(map(str, dtypes)))
    bands = band(a)
    tracked = tape.tracks(h)

    def layer_2(z1: np.ndarray, op: str | None) -> np.ndarray:
        """Z2 from Z1, Z1 @ W2 and then Z2 in Z1's buffer."""
        return _in_place(a, _matmul_rows(z1, w2v, z1), bands, _finish(op, b2v, True))

    ah = a @ hv
    z2 = layer_2(_finish_layer("gcn_block layer 1", a, ah, w1v, b1v, True),
                 "gcn_block layer 2")
    out = Var(_finish_layer("gcn_block layer 3", a, _matmul_rows(z2, w3v), w3v,
                            b3.value, False))
    if not tracked:  # rebuilt by the backward
        z2 = None

    def bwd(d3):  # the adjoint, owned
        nonlocal z2
        if z2 is None:
            z2 = layer_2(_finish_layer(None, a, ah, w1v, b1v, True), None)
        n = len(z2)
        dz2, grad_w3, grad_b3 = _layer_grads(a, d3, z2, w3v, positive=z2)  # in Z2's buffer
        z2 = None
        grad_b2 = dz2.sum(axis=0)
        s, dz2 = _in_place(a, dz2, bands), None
        dz1 = _into(s, (n, w2v.shape[0]), s.dtype)  # S's dtype: the adjoint's or wider

        def z1_blocks():
            """Z1 one block at a time; once grad-W2 has read a block
            (``_weight_grad_of`` reads each before asking for the next),
            dZ1's rows are made in its buffer."""
            for rows in _row_blocks(n):
                z1 = ah[rows] @ w1v
                z1 += b1v
                _relu(z1)
                yield z1, s[rows]
                positive = z1 > 0.0
                block = np.matmul(s[rows], w2v.T, out=_into(z1, z1.shape, s.dtype))
                block *= positive
                dz1[rows] = block
                del z1, block, positive  # before the next block is made

        grad_w2 = _weight_grad_of(z1_blocks())
        s = None
        grad_h, grad_w1, grad_b1 = _layer_grads(a, dz1, hv, w1v, ah, with_h=tracked)
        grads = ((w1, grad_w1), (b1, grad_b1), (w2, grad_w2), (b2, grad_b2),
                 (w3, grad_w3), (b3, grad_b3))
        return ((h, grad_h),) + grads if tracked else grads

    tape.record(out, bwd)
    return out


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True), as a pass over x's columns: the max is
    exact, and numpy's reduction along a short last axis is slow (49,152 x 3
    float64, 2-vCPU x86-64 VM: 2.7 ms, where the pass took 0.3 ms)."""
    m = x[..., :1].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(m, x[..., k:k + 1], out=m)
    return m


def _row_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1, keepdims=True), the same bits. Below 8 columns numpy
    (2.4) adds a row's entries one at a time, left to right, from +0.0,
    and so does this pass over the columns (1.1 ms against 0.3 ms on the
    same 49,152 x 3); from 8 columns on numpy sums in eight lanes, so wider
    rows are summed by numpy."""
    if x.shape[-1] >= 8:
        return x.sum(axis=-1, keepdims=True)
    total = x[..., :1] + 0.0  # +0.0 first, as numpy's: a row of -0.0 sums to +0.0
    for k in range(1, x.shape[-1]):
        total += x[..., k:k + 1]
    return total


def softmax_values(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction; works on 1-D or 2-D input, in
    float32 for float32 logits and float64 for any other. The one N x K
    array it makes is logits - max: exp and the division by the row sums
    run in it. The row reductions are column passes (``_row_max``,
    ``_row_sum``), with the bits of numpy's."""
    z = _as_value(logits)
    z = z - _row_max(z)
    np.exp(z, out=z)
    z /= _row_sum(z)
    return z


def _softmax_grad(p: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """The gradient of a row softmax's logits from its output ``p`` and
    adjoint ``dout``, written into ``dout``, which the rule owns, when it
    has the gradient's dtype (``_into``): dout * p is the one N x K array
    it makes."""
    inner = _row_sum(dout * p)
    grad = _into(dout, dout.shape, np.result_type(p, dout))
    np.subtract(dout, inner, out=grad)
    grad *= p
    return grad


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
