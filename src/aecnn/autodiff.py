"""Minimal reverse-mode autodiff over float64 numpy arrays.

Tensors wrap ndarrays and remember how they were produced; `backward` walks
the graph once in reverse topological order. The module holds only the ops
the network runs: affine maps, row blocks of a weight, addition and scaling
(of losses and of weight blocks), in-place relu, max reduction, last-axis
concatenation, reshapes, batched row gathers, inverse-distance weighted
sums, stable softmax cross entropy, and the fused edge kernels (in-place
adds of per-row terms onto edges, matrix-vector alignment and the
orthogonality penalty) whose gradients are hand derived.
The unfused ops the tests compare them against (`sub`, `mul`, `square`,
`relu`, `sum_reduce`, `mean_reduce`, `expand_set`) live in
tests/reference_ops.py, built on `_make` and `Tensor._add_grad`.

Every op hands `_make` its values, its parents and a function `bwd(out)`;
the sweep calls it once with the output, whose `.grad` then holds the whole
upstream gradient. `bwd` closes over the op's inputs, never its output, so
no output refers to itself and a graph dropped without `backward` is freed
by reference counting at once.

A first layer that reads a concatenation is affine in each of its blocks,
so the network multiplies a block that repeats across edges once per row
that holds it: `row_block` hands `linear` the rows of a weight as a weight
of their own shape (so every multiply is still a `linear` call), and
`gather_add` and `expand_add` add the per-row products onto the per-edge
term in its own buffer, gathered by neighbor index or broadcast over k.

Several ops save a buffer and keep the bits of the op chain they replace.
`relu_inplace`, `gather_add` and `expand_add` overwrite their first input's
values, so they may only take a tensor that nobody else reads and whose
op's backward never reads its output values: the output of a `linear`, or
of `gather_add` or `expand_add` on one.
`weighted_sum(x, w)` is sum_reduce(mul(x, constant(w[..., None])),
axis=-2) without keeping the product or broadcasting the gradient first.
The signed zeros these skip (the chains store 0.0 + g before passing a
gradient on) can only move the sign of a zero partial sum, and every
gradient is stored as 0.0 + g in the end, so no stored bit moves.

Who gives up what. Calling `relu_inplace`, `gather_add`, `expand_add`,
`max_reduce` or `weighted_sum` gives up the first tensor the op reads, and
`concat` gives up every tensor of its list; none of these backwards reads
those tensors' values. The op wires its output as usual and then releases
an input's values (`_release`) when the input is an op output made with a
`spend` (see `_make`), this op is its one consumer and the values are
C-contiguous. The input keeps its node, its shape and its backward. The
outputs that can be released are those of `linear`, `gather_rows`,
`gather_add`, `expand_add`, `weighted_sum`, `max_reduce` and
`edge_matvec`, whose backwards read none of their output values (the max
reads only its argmax and its input's shape), and of `relu_inplace`, whose
backward then reads a bool mask instead. So in a tracked pass each set
MLP's (.., k, f) output before its max, the pooled blocks a `concat` joins
(SA-first's), every other released input of a `concat`, a max pooled again
by another max and the relu ahead of propagation's weighted sum are freed
as the forward pass moves on; backward runs the same arithmetic in the
same order. `as_tensor` refuses a released tensor as any op's input; an
input that another op also consumes keeps its values.

Everything is float64 and single threaded on purpose: gradient checks sit at
1e-4 relative tolerance and training runs must be bit-reproducible.

Gradient buffers have one owner. A tensor's `.grad` belongs to that tensor
alone, so an op's backward may work in its output's `.grad` in place and hand
it on. An op hands each contribution to `_add_grad` either as a buffer it
owns (one it just made, or its output's `.grad`, given up to one parent) or
as a shared view. The first contribution adopts an owned buffer and copies a
shared one; either way it stores exactly 0.0 + g, so -0.0 becomes +0.0 and
every gradient, interior ones included, has the bits a zero-filled buffer
plus g would give.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

def _screen(v: np.ndarray, what: str):
    """Raise FloatingPointError if v holds a NaN or Inf."""
    if not np.isfinite(v).all():
        raise FloatingPointError(f"non-finite values entering {what}")


class Tensor:
    """A float64 array plus the plumbing to backpropagate through it."""

    __slots__ = ("values", "shape", "grad", "needs_grad", "name", "_parents",
                 "_backward", "_spend", "_uses")

    def __init__(self, values, parents: tuple = (), needs_grad: bool = True,
                 name: Optional[str] = None, *, _screened: bool = False):
        v = np.asarray(values, dtype=np.float64)
        if not _screened:
            _screen(v, f"tensor {name or '<anon>'}")
        self.values = v
        self.shape = v.shape  # kept when `_release` drops the values
        self.grad: Optional[np.ndarray] = None
        self.needs_grad = needs_grad
        self.name = name
        self._parents = parents
        self._backward = None
        self._spend = None    # set by `_make` for an output that may be released
        self._uses = 0        # ops wired to this tensor

    def _add_grad(self, g: np.ndarray, owned: bool = False):
        """Accumulate one gradient contribution of this tensor's shape.

        `owned=True` means the caller gives `g` up: no one else reads or
        writes it afterwards. The first contribution then adopts it in place,
        otherwise it is copied once, so `.grad` always belongs to this tensor
        alone. Either way the first write stores 0.0 + g. A buffer is adopted
        only when it and the values are C-contiguous (released values were),
        so `.grad` keeps the layout of `zeros_like(values)` and reductions
        over it sum in the same order.
        """
        if not self.needs_grad:
            return
        if g.shape != self.shape:
            raise ValueError(
                f"gradient of shape {g.shape} for tensor {self.name or '<anon>'} "
                f"of shape {self.shape}"
            )
        if self.grad is not None:
            self.grad += g
        elif self.values is not None and not self.values.flags.c_contiguous:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.values))
        elif owned and isinstance(g, np.ndarray) and g.flags.c_contiguous:
            g += 0.0
            self.grad = g
        else:
            self.grad = np.add(g, 0.0, out=np.empty(self.shape))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape})"


def parameter(values, name: Optional[str] = None) -> Tensor:
    """Trainable leaf."""
    return Tensor(np.array(values, dtype=np.float64), needs_grad=True, name=name)


def constant(values, name: Optional[str] = None) -> Tensor:
    """Leaf that never accumulates gradient (inputs, geometry, labels)."""
    return Tensor(values, needs_grad=False, name=name)


def as_tensor(x) -> Tensor:
    """x itself, or a constant holding it; a tensor whose values an op
    released (`_release`) is refused."""
    if not isinstance(x, Tensor):
        return constant(x)
    if x.values is None:
        raise ValueError(
            f"tensor {x.name or '<anon>'} was given up to an op that released "
            "its values"
        )
    return x


def _reads_no_values(values):
    """`spend` of an op whose backward reads none of its output's values."""
    return None


def _make(values, parents: Sequence, bwd, screened: bool = False,
          spend=None) -> Tensor:
    """Wire an op output to its parents and its backward function.

    `bwd` is stored as given; the sweep calls `bwd(out)` with this output.
    So `bwd` need not and must not refer to the output, and no output refers
    to itself. On a constant subgraph nothing is wired and `bwd` is dropped.
    Each wired parent counts the ops that consume it (`_uses`).

    `screened=True` skips the finiteness scan, for ops whose values are only
    selected or copied from their (already screened) inputs.

    `spend` lets the output's one consumer release its values (`_release`):
    called with them, it returns the backward to run once they are gone, or
    None when `bwd` reads none of them (`_reads_no_values`). Without it the
    values stay as long as the output does.
    """
    parents = tuple(parents)
    if not any(p.needs_grad for p in parents):
        return Tensor(values, needs_grad=False, _screened=screened)
    for p in parents:
        if p.needs_grad:
            p._uses += 1
    out = Tensor(values, parents=parents, needs_grad=True, _screened=screened)
    out._backward, out._spend = bwd, spend
    return out


def _release(x: Tensor, out: Tensor) -> Tensor:
    """Drop the values of x, the input out's op gives up, and return out.

    For an op whose backward reads none of x's values, after `_make` has
    wired out. The values go only when x is an op output made with a
    `spend`, out's op is its one consumer (an input passed twice counts
    twice) and they are C-contiguous; x's backward then becomes the one
    `spend` returns, if any. The release moves no node, so the sweep runs
    x's backward where it would have anyway. `as_tensor` refuses x from
    then on. Any other x keeps its values.
    """
    if x._spend is not None and x._uses == 1 and x.values.flags.c_contiguous:
        x._backward = x._spend(x.values) or x._backward
        x.values = x._spend = None
    return out


def backward(loss: Tensor):
    """Populate .grad on every reachable leaf tensor that needs one.

    The loss must be scalar. Visit order is a deterministic iterative
    post-order, so repeated runs accumulate in the same sequence bit for
    bit. Each interior node's `_backward(node)` runs once its gradient is
    complete (see `_make`). Each node's `.grad` is its own buffer (see
    `Tensor._add_grad`), so `_backward` may modify it in place or hand it
    on to one parent. Interior nodes are consumed as the sweep passes them:
    their grad buffer, `_backward` and parents are dropped once propagated,
    so peak memory tracks the gradient frontier rather than the whole
    graph. A graph can therefore be swept only once.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    topo: list = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.needs_grad:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node)
        node.grad = node._backward = None
        node._parents = ()


# ---------------------------------------------------------------------------
# elementwise / broadcast arithmetic
# ---------------------------------------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(out):
        if a.needs_grad:
            a._add_grad(_unbroadcast(out.grad, a.values.shape))
        if b.needs_grad:
            b._add_grad(_unbroadcast(out.grad, b.values.shape))

    return _make(a.values + b.values, (a, b), bwd)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bwd(out):
        a._add_grad(out.grad * c, owned=True)

    return _make(a.values * c, (a,), bwd)


# ---------------------------------------------------------------------------
# affine map and activation
# ---------------------------------------------------------------------------

def linear(x, w, b=None) -> Tensor:
    """y = x @ w (+ b) applied along the last axis of x.

    x: (..., fin), w: (fin, fout), b: (fout,). Leading axes are flattened for
    one GEMM and restored, which is where nearly all training time goes.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    fin, fout = w.values.shape
    if x.values.shape[-1] != fin:
        raise ValueError(
            f"linear shape mismatch: x ends in {x.values.shape[-1]}, w expects {fin}"
        )
    lead = x.values.shape[:-1]
    x2 = x.values.reshape(-1, fin)
    y2 = x2 @ w.values
    if b is not None:
        if b.values.shape != (fout,):
            raise ValueError(f"bias must have shape ({fout},), got {b.values.shape}")
        y2 += b.values
    parents = (x, w) if b is None else (x, w, b)

    def bwd(out):
        g2 = out.grad.reshape(-1, fout)
        if x.needs_grad:
            x._add_grad((g2 @ w.values.T).reshape(*lead, fin), owned=True)
        if w.needs_grad:
            w._add_grad(x2.T @ g2, owned=True)
        if b is not None and b.needs_grad:
            b._add_grad(g2.sum(axis=0), owned=True)

    return _make(y2.reshape(*lead, fout), parents, bwd, spend=_reads_no_values)


def relu_inplace(x: Tensor) -> Tensor:
    """max(x, 0) written over x's own values, which x gives up.

    Only for an x that nothing else reads: the output of an affine map,
    whose backward does not read its output's values, held by the caller
    alone (`Mlp` hidden layers), or that output with per-row terms added in
    place (`gather_add`, `expand_add`). The values and gradients are the
    reference `relu`'s bit for bit (negative zeros come out as +0.0),
    without a second buffer of x's size. The gradient mask is built from
    the output: out > 0 exactly where x > 0. An op that releases this
    output's values keeps that mask as a bool array instead.
    """
    x = as_tensor(x)
    values = np.maximum(x.values, 0.0, out=x.values)

    def masked(out, positive):
        g = out.grad
        np.multiply(g, positive, out=g)
        x._add_grad(g, owned=True)

    def spend(v):
        positive = v > 0.0
        return lambda out: masked(out, positive)

    return _release(x, _make(values, (x,),
                             lambda out: masked(out, out.values > 0.0),
                             screened=True, spend=spend))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def max_reduce(x, axis: int) -> Tensor:
    """Max along one axis; gradient flows to the first (lowest index) argmax.

    x is given up: the backward reads only x's shape, so an affine map
    pooled over k keeps no (.., k, f) output alive until backward. Nor does
    it read the output's values, so an op that gives the output up (a
    `concat` of pooled blocks, a max over another axis) may release them.
    """
    x = as_tensor(x)
    axis = axis if axis >= 0 else x.values.ndim + axis
    if x.values.shape[axis] < 1:
        raise ValueError("cannot max-reduce an empty axis")
    if not x.needs_grad:
        # Nothing to route a gradient to, so skip the argmax. The plain max
        # is the same number; only a zero maximum reached by both -0.0 and
        # +0.0 may come out with the other sign.
        return Tensor(x.values.max(axis=axis), needs_grad=False, _screened=True)
    am = _first_argmax(x.values, axis)
    out_vals = np.take_along_axis(x.values, np.expand_dims(am, axis), axis)

    def bwd(out):
        g = np.zeros(x.shape)
        np.put_along_axis(
            g, np.expand_dims(am, axis), np.expand_dims(out.grad, axis), axis
        )
        x._add_grad(g, owned=True)

    return _release(x, _make(np.squeeze(out_vals, axis=axis), (x,), bwd,
                             screened=True, spend=_reads_no_values))


def _first_argmax(v: np.ndarray, axis: int) -> np.ndarray:
    """`v.argmax(axis)`, from the max and one equality pass per slice.

    Scans the slices along axis from the last to the first, marking each
    place that equals the max, so the first maximum is written last. Every
    tensor is screened when it is made or only selects screened values, so
    v holds no NaN.
    """
    m = v.max(axis=axis)
    idx = np.zeros(m.shape, dtype=np.intp)
    hit = np.empty(m.shape, dtype=bool)
    sl = [slice(None)] * v.ndim
    for j in range(v.shape[axis] - 1, -1, -1):
        sl[axis] = j
        np.equal(v[tuple(sl)], m, out=hit)
        np.putmask(idx, hit, j)
    return idx


def weighted_sum(x, w: np.ndarray) -> Tensor:
    """(x * w[..., None]).sum(axis=-2) for a constant weight array w.

    x: (..., k, f); w: (..., k). Values and gradient equal
    sum_reduce(mul(x, constant(w[..., None])), axis=-2), but no product is
    kept and the gradient g[..., None, :] * w[..., None] is written once. w
    is screened as `constant` screens it. x is given up: the backward reads
    only w.
    """
    x = as_tensor(x)
    w = np.asarray(w, dtype=np.float64)
    if x.values.shape[:-1] != w.shape:
        raise ValueError(
            f"weighted_sum: weights {w.shape} do not match x {x.values.shape}"
        )
    _screen(w, "the weighted_sum weights")
    wc = w[..., None]
    values = (x.values * wc).sum(axis=-2)

    def bwd(out):
        x._add_grad(out.grad[..., None, :] * wc, owned=True)

    return _release(x, _make(values, (x,), bwd, spend=_reads_no_values))


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)
    old = x.values.shape

    def bwd(out):
        x._add_grad(out.grad.reshape(old), owned=True)

    return _make(x.values.reshape(shape), (x,), bwd, screened=True)


def concat(tensors: Sequence, axis: int = -1,
           out: Optional[np.ndarray] = None) -> Tensor:
    """Concatenate along `axis` (default: the feature axis), into `out` if
    given (a float64 array of the result's shape).

    Every input is given up: the backward reads none of the inputs' values,
    so their buffers need not outlive the forward pass.
    """
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of nothing")
    vals = [t.values for t in ts]
    out_vals = np.concatenate(vals, axis=axis, out=out)
    ax = axis if axis >= 0 else out_vals.ndim + axis
    sizes = [v.shape[ax] for v in vals]
    offsets = np.cumsum([0] + sizes).tolist()

    def bwd(out):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.needs_grad:
                sl = [slice(None)] * out.grad.ndim
                sl[ax] = slice(lo, hi)
                t._add_grad(out.grad[tuple(sl)])

    out_t = _make(out_vals, ts, bwd, screened=True)
    for t in ts:
        _release(t, out_t)
    return out_t


def expand_add(y: Tensor, x) -> Tensor:
    """y + x[..., None, :], written over y's values, which y gives up.

    y: (..., k, f), the fresh output of an affine map that nothing else
    reads, as for `relu_inplace`; x: (..., f), one row per set, added to each
    of its k rows. So a per-reference term is computed once and broadcast
    over the reference's edges without an edge-sized copy. x's gradient is
    the output gradient summed over k; y takes the output gradient itself.
    """
    y, x = as_tensor(y), as_tensor(x)
    if y.values.shape[:-2] + y.values.shape[-1:] != x.values.shape:
        raise ValueError(
            f"expand_add: x {x.values.shape} does not match y {y.values.shape}"
        )

    values = np.add(y.values, x.values[..., None, :], out=y.values)

    def bwd(out):
        g = out.grad
        if x.needs_grad:
            x._add_grad(g.sum(axis=-2), owned=True)
        y._add_grad(g, owned=True)

    return _release(y, _make(values, (y, x), bwd, spend=_reads_no_values))


# Rows per block that _scatter_add_rows copies into its column buffer, and
# the float64 values that buffer holds (2 MB) unless one segment needs more.
SCATTER_BLOCK_ROWS = 256
SCATTER_CHUNK_ELEMS = 262_144


def _scatter_add_rows(n_rows: int, flat_idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Deterministic segmented scatter-add of 2d rows into an (n_rows, f) array.

    Sort + np.add.reduceat instead of np.add.at: same result, an order of
    magnitude faster, and the within-segment summation order is fixed by the
    stable sort. The sorted rows go one chunk of whole segments at a time,
    SCATTER_BLOCK_ROWS at a time, into the columns of an (f, chunk) buffer,
    so reduceat walks contiguous memory instead of striding down each column
    and the buffer stays far smaller than the rows. A chunk holds about
    SCATTER_CHUNK_ELEMS values and at least the longest segment. For each
    column reduceat sums a segment as the first element plus numpy's
    pairwise sum of the rest, whatever the stride, so the result has the
    bits of reduceat over axis 0 of rows[order]. `rows` may be a strided
    view.
    """
    f = rows.shape[1]
    out = np.zeros((n_rows, f), dtype=np.float64)
    if flat_idx.size == 0:
        return out
    order = np.argsort(flat_idx, kind="stable")
    si = flat_idx[order]
    starts = np.flatnonzero(np.concatenate(([True], si[1:] != si[:-1])))
    bounds = np.append(starts, order.size)
    chunk = max(SCATTER_CHUNK_ELEMS // f, int(np.diff(bounds).max()))
    cols = np.empty((f, min(chunk, order.size)))
    first = 0
    while first < starts.size:
        last = np.searchsorted(bounds, bounds[first] + chunk, side="right") - 1
        lo, hi = bounds[first], bounds[last]
        for s in range(lo, hi, SCATTER_BLOCK_ROWS):
            block = order[s:min(s + SCATTER_BLOCK_ROWS, hi)]
            cols[:, s - lo:s - lo + block.size] = rows[block].T
        out[si[starts[first:last]]] = np.add.reduceat(
            cols[:, :hi - lo], starts[first:last] - lo, axis=1).T
        first = last
    return out


def _row_lookup(x: Tensor, idx: np.ndarray):
    """Validate a batched row lookup of x (b, n, f) by indices (b, ...) and
    return the batch index broadcast to the indices' shape."""
    if x.values.ndim != 3:
        raise ValueError(f"row lookup expects (b, n, f) input, got {x.values.shape}")
    b, n, _ = x.values.shape
    if idx.shape[0] != b:
        raise ValueError(f"indices lead with {idx.shape[0]}, batch is {b}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("gather index out of range")
    return np.broadcast_to(np.arange(b).reshape((b,) + (1,) * (idx.ndim - 1)),
                           idx.shape)


def _scatter_rows_grad(x: Tensor, bfull: np.ndarray, idx: np.ndarray,
                       g: np.ndarray):
    """Hand x (b, n, f) the gradient g (idx.shape + (f,)) of its rows idx."""
    b, n, f = x.values.shape
    flat = (bfull * n + idx).ravel()
    x._add_grad(_scatter_add_rows(b * n, flat, g.reshape(-1, f)).reshape(b, n, f),
                owned=True)


def gather_rows(x, indices: np.ndarray) -> Tensor:
    """Batched row lookup: x (b, n, f) indexed by integer indices (b, ...).

    Output shape is indices.shape + (f,). The backward pass scatter-adds into
    the source rows, so repeated indices accumulate.
    """
    x = as_tensor(x)
    idx = np.asarray(indices)
    bfull = _row_lookup(x, idx)

    def bwd(out):
        _scatter_rows_grad(x, bfull, idx, out.grad)

    return _make(x.values[bfull, idx], (x,), bwd, screened=True,
                 spend=_reads_no_values)


def gather_add(y: Tensor, x, indices: np.ndarray) -> Tensor:
    """y + gather_rows(x, indices), written over y's values, which y gives up.

    y: (b, ..., f), the fresh output of an affine map that nothing else
    reads, as for `relu_inplace`; x: (b, n, f); indices: y's leading shape.
    So a term computed once per source row is added to every edge that
    reads that row, one cloud at a time, without an edge-sized copy of the
    gathered rows. x's gradient is scattered from the output gradient as
    `gather_rows` scatters it; y takes the output gradient itself.
    """
    y, x = as_tensor(y), as_tensor(x)
    idx = np.asarray(indices)
    bfull = _row_lookup(x, idx)
    if y.values.shape != idx.shape + x.values.shape[-1:]:
        raise ValueError(
            f"gather_add: y {y.values.shape} does not match indices {idx.shape} "
            f"into rows of width {x.values.shape[-1]}"
        )
    out_vals = y.values
    for bi in range(idx.shape[0]):
        out_vals[bi] += x.values[bi][idx[bi]]

    def bwd(out):
        if x.needs_grad:
            _scatter_rows_grad(x, bfull, idx, out.grad)
        y._add_grad(out.grad, owned=True)

    return _release(y, _make(out_vals, (y, x), bwd, spend=_reads_no_values))


def row_block(w, start: int, stop: int) -> Tensor:
    """Rows start:stop of a 2-d weight w, as a weight of the block's shape.

    A layer whose input is a concatenation applies each block of its weight
    to its own part of the input, so a part that repeats across edges can
    be multiplied once. The values are a view of w's; the gradient lands in
    those rows of a zero (fin, fout) array.
    """
    w = as_tensor(w)
    if w.values.ndim != 2 or not 0 <= start < stop <= w.values.shape[0]:
        raise ValueError(
            f"row_block: rows {start}:{stop} of a weight of shape {w.values.shape}"
        )

    def bwd(out):
        g = np.zeros_like(w.values)
        g[start:stop] = out.grad
        w._add_grad(g, owned=True)

    return _make(w.values[start:stop], (w,), bwd, screened=True)


# ---------------------------------------------------------------------------
# loss and fused edge kernels
# ---------------------------------------------------------------------------

def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log likelihood with a stable log-softmax.

    logits: (..., c); labels: integer array of the leading shape (or a bare
    int for a single example). The mean is over all label positions.
    """
    logits = as_tensor(logits)
    lab = np.asarray(labels, dtype=np.int64)
    c = logits.values.shape[-1]
    if lab.shape != logits.values.shape[:-1]:
        raise ValueError(
            f"labels shape {lab.shape} does not match logits {logits.values.shape}"
        )
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise ValueError("label out of range")
    z = logits.values - logits.values.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(s)
    n = max(1, lab.size)
    picked = np.take_along_axis(logp, lab[..., None], axis=-1)[..., 0]
    loss = -picked.sum() / n

    def bwd(out):
        p = e / s
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, lab[..., None], 1.0, axis=-1)
        logits._add_grad((p - onehot) * (out.grad / n), owned=True)

    return _make(loss, (logits,), bwd)


def edge_matvec(m, x) -> Tensor:
    """Per-edge matrix-vector product: m (..., f, f) applied to x (..., f)."""
    m, x = as_tensor(m), as_tensor(x)
    out_vals = np.einsum("...ij,...j->...i", m.values, x.values)

    def bwd(out):
        if m.needs_grad:
            m._add_grad(np.einsum("...i,...j->...ij", out.grad, x.values),
                        owned=True)
        if x.needs_grad:
            x._add_grad(np.einsum("...ij,...i->...j", m.values, out.grad),
                        owned=True)

    return _make(out_vals, (m, x), bwd, spend=_reads_no_values)


def orthogonality_penalty(m) -> Tensor:
    """Mean squared Frobenius distance of m @ m^T from the identity.

    m: (..., f, f) stacked per-edge matrices; the mean runs over the stack.
    Gradient is (4 / count) * (m m^T - I) m per matrix.
    """
    m = as_tensor(m)
    f = m.values.shape[-1]
    if m.values.shape[-2] != f:
        raise ValueError(f"expected square trailing dims, got {m.values.shape}")
    count = max(1, int(np.prod(m.values.shape[:-2])))
    gram = np.einsum("...ik,...jk->...ij", m.values, m.values)
    dev = gram - np.eye(f)
    penalty = float((dev * dev).sum()) / count

    def bwd(out):
        m._add_grad(np.einsum(
            "...ij,...jk->...ik", dev, m.values
        ) * (4.0 * out.grad / count), owned=True)

    return _make(penalty, (m,), bwd)
