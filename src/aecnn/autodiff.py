"""Minimal reverse-mode autodiff over float64 numpy arrays.

Tensors wrap ndarrays and remember how they were produced; `backward` walks
the graph once in reverse topological order. The network uses affine maps,
in-place relu, set max pooling, last-axis concatenation, batched row
gathers (optionally behind a constant prefix), inverse-distance weighted
sums, per-set standardization, stable softmax cross entropy, and three
fused edge kernels (the DGCNN edge feature [x_i, xhat - x_i, t],
matrix-vector alignment and the orthogonality penalty) whose gradients are
hand derived. `sub`, `mul`, `square`, `sum_reduce`, `mean_reduce`,
`expand_set` and `relu` have no caller in the package: the tests use them
as references for the fused and in-place ops and as gradient-check helpers.

Four ops save a buffer and keep the bits of the op chain they replace.
`relu_inplace` overwrites its input's values, so it may only take a tensor
nobody else reads: `Mlp` applies it to the output of its own hidden
`linear` or `standardize`, whose backward reads its inputs, never its
output. `edge_features` writes the edge feature into one buffer and
lists its parents as (xhat, x_i), the order in which the backward sweep
reached them through expand_set, sub and concat; another order sums the
contributions to a shared source tensor in another order and moves bits.
`gather_rows(x, idx, prefix=p)` writes a constant prefix and the gathered
rows into one buffer, equal to concat([constant(p), gather_rows(x, idx)]),
and scatters its gradient straight from the rows' slice of the output
gradient. `weighted_sum(x, w)` is sum_reduce(mul(x, constant(w[..., None])),
axis=-2) without keeping the product or broadcasting the gradient first.
The signed zeros these skip (the chains store 0.0 + g before passing a
gradient on) can only move the sign of a zero partial sum, and every
gradient is stored as 0.0 + g in the end, so no stored bit moves.

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

_finite_checks = True


def set_finite_checks(enabled: bool) -> bool:
    """Toggle NaN/Inf screening on tensor creation; returns the old value.

    With screening off nothing hides a NaN: `relu` passes it through (it is
    np.maximum, not a mask) and `max_reduce` pools it into the output.

    Leaves, `Tensor(...)` and arithmetic ops, `weighted_sum` among them,
    screen their output. `relu`, `relu_inplace`, `max_reduce`, `gather_rows`,
    `concat`, `reshape` and `expand_set` do not: they only select or copy
    values of their inputs (or zeros), which were screened when they were
    made, so the scan could not fail. A tensor made while screening was off
    is therefore not re-screened by those ops after it is turned back on;
    the next arithmetic op raises. The constant arrays that ops take as
    plain arrays, `gather_rows`'s prefix and `weighted_sum`'s weights, are
    screened as `constant` screens its values.
    """
    global _finite_checks
    old = _finite_checks
    _finite_checks = bool(enabled)
    return old


def _screen(v: np.ndarray, what: str):
    """Raise FloatingPointError if screening is on and v holds a NaN or Inf."""
    if _finite_checks and not np.isfinite(v).all():
        raise FloatingPointError(f"non-finite values entering {what}")


class Tensor:
    """A float64 array plus the plumbing to backpropagate through it."""

    __slots__ = ("values", "grad", "needs_grad", "name", "_parents", "_backward")

    def __init__(self, values, parents: tuple = (), needs_grad: bool = True,
                 name: Optional[str] = None, *, _screened: bool = False):
        v = np.asarray(values, dtype=np.float64)
        if not _screened:
            _screen(v, f"tensor {name or '<anon>'}")
        self.values = v
        self.grad: Optional[np.ndarray] = None
        self.needs_grad = needs_grad
        self.name = name
        self._parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def _add_grad(self, g: np.ndarray, owned: bool = False):
        """Accumulate one gradient contribution of this tensor's shape.

        `owned=True` means the caller gives `g` up: no one else reads or
        writes it afterwards. The first contribution then adopts it in place,
        otherwise it is copied once, so `.grad` always belongs to this tensor
        alone. Either way the first write stores 0.0 + g. A buffer is adopted
        only when it and the values are C-contiguous, so `.grad` keeps the
        layout of `zeros_like(values)` and reductions over it sum in the same
        order.
        """
        if not self.needs_grad:
            return
        if g.shape != self.values.shape:
            raise ValueError(
                f"gradient of shape {g.shape} for tensor {self.name or '<anon>'} "
                f"of shape {self.values.shape}"
            )
        if self.grad is not None:
            self.grad += g
        elif (owned and isinstance(g, np.ndarray) and g.flags.c_contiguous
              and self.values.flags.c_contiguous):
            g += 0.0
            self.grad = g
        else:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.values))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.values.shape})"


def parameter(values, name: Optional[str] = None) -> Tensor:
    """Trainable leaf."""
    return Tensor(np.array(values, dtype=np.float64), needs_grad=True, name=name)


def constant(values, name: Optional[str] = None) -> Tensor:
    """Leaf that never accumulates gradient (inputs, geometry, labels)."""
    return Tensor(values, needs_grad=False, name=name)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _make(values, parents: Sequence[Tensor], backward_fn,
          screened: bool = False) -> Tensor:
    """Wire an op output; skips the closure entirely on constant subgraphs.

    `screened=True` skips the finiteness scan, for ops whose values are only
    selected or copied from their (already screened) inputs.
    """
    parents = tuple(parents)
    if not any(p.needs_grad for p in parents):
        return Tensor(values, needs_grad=False, _screened=screened)
    out = Tensor(values, parents=parents, needs_grad=True, _screened=screened)
    out._backward = backward_fn(out)
    return out


def backward(loss: Tensor):
    """Populate .grad on every reachable leaf tensor that needs one.

    The loss must be scalar. Visit order is a deterministic iterative
    post-order, so repeated runs accumulate in the same sequence bit for bit.
    Each node's `.grad` is its own buffer (see `Tensor._add_grad`), so a
    node's closure may modify it in place or hand it on to one parent.
    Interior nodes are consumed as the sweep passes them: their grad buffer
    and closure are dropped once propagated, so peak memory tracks the
    gradient frontier rather than the whole graph. A graph can therefore be
    swept only once.
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
            node._backward()
        node.grad = None
        node._backward = None
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
        def run():
            if a.needs_grad:
                a._add_grad(_unbroadcast(out.grad, a.values.shape))
            if b.needs_grad:
                b._add_grad(_unbroadcast(out.grad, b.values.shape))
        return run

    return _make(a.values + b.values, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(out):
        def run():
            # b gets a fresh negation, so a may own out.grad itself.
            if a.needs_grad:
                a._add_grad(_unbroadcast(out.grad, a.values.shape), owned=True)
            if b.needs_grad:
                b._add_grad(-_unbroadcast(out.grad, b.values.shape), owned=True)
        return run

    return _make(a.values - b.values, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(out):
        def run():
            g = out.grad
            if b.needs_grad:
                b._add_grad(_unbroadcast(g * a.values, b.values.shape), owned=True)
            if a.needs_grad:
                # out.grad has the broadcast shape, so a's product fits in it.
                np.multiply(g, b.values, out=g)
                a._add_grad(_unbroadcast(g, a.values.shape), owned=True)
        return run

    return _make(a.values * b.values, (a, b), bwd)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bwd(out):
        def run():
            a._add_grad(out.grad * c, owned=True)
        return run

    return _make(a.values * c, (a,), bwd)


def square(a) -> Tensor:
    a = as_tensor(a)

    def bwd(out):
        def run():
            a._add_grad(out.grad * (2.0 * a.values), owned=True)
        return run

    return _make(a.values * a.values, (a,), bwd)


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
        def run():
            g2 = out.grad.reshape(-1, fout)
            if x.needs_grad:
                x._add_grad((g2 @ w.values.T).reshape(*lead, fin), owned=True)
            if w.needs_grad:
                w._add_grad(x2.T @ g2, owned=True)
            if b is not None and b.needs_grad:
                b._add_grad(g2.sum(axis=0), owned=True)
        return run

    return _make(y2.reshape(*lead, fout), parents, bwd)


def relu(x) -> Tensor:
    """max(x, 0); negative zeros come out as +0.0, as np.where(x > 0, x, 0) gives.

    The mask that routes the gradient is built only when backward runs and
    is applied in place to the output's own gradient, which is handed down.
    """
    x = as_tensor(x)

    def bwd(out):
        def run():
            g = out.grad
            np.multiply(g, x.values > 0.0, out=g)
            x._add_grad(g, owned=True)
        return run

    return _make(np.maximum(x.values, 0.0), (x,), bwd, screened=True)


def relu_inplace(x: Tensor) -> Tensor:
    """`relu` written over x's own values, which x gives up.

    Only for an x that nothing else reads: the output of an affine map or a
    standardization whose backward does not read its output's values, held
    by the caller alone (`Mlp` hidden layers). The values and gradients are
    relu's bit for bit, without a second buffer of x's size. The gradient
    mask is built from the output: out > 0 exactly where x > 0.
    """

    def bwd(out):
        def run():
            g = out.grad
            np.multiply(g, out.values > 0.0, out=g)
            x._add_grad(g, owned=True)
        return run

    return _make(np.maximum(x.values, 0.0, out=x.values), (x,), bwd,
                 screened=True)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def max_reduce(x, axis: int) -> Tensor:
    """Max along one axis; gradient flows to the first (lowest index) argmax."""
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
        def run():
            g = np.zeros_like(x.values)
            np.put_along_axis(
                g, np.expand_dims(am, axis), np.expand_dims(out.grad, axis), axis
            )
            x._add_grad(g, owned=True)
        return run

    return _make(np.squeeze(out_vals, axis=axis), (x,), bwd, screened=True)


def _first_argmax(v: np.ndarray, axis: int) -> np.ndarray:
    """`v.argmax(axis)`, from the max and one equality pass per slice.

    Scans the slices along axis from the last to the first, marking each
    place that equals the max, so the first maximum is written last. A NaN
    equals nothing, so a max holding a NaN (finite checks off) takes argmax,
    which returns the first NaN.
    """
    m = v.max(axis=axis)
    if np.isnan(m).any():
        return v.argmax(axis=axis)
    idx = np.zeros(m.shape, dtype=np.intp)
    hit = np.empty(m.shape, dtype=bool)
    sl = [slice(None)] * v.ndim
    for j in range(v.shape[axis] - 1, -1, -1):
        sl[axis] = j
        np.equal(v[tuple(sl)], m, out=hit)
        np.putmask(idx, hit, j)
    return idx


def max_pool_set(x) -> Tensor:
    """Permutation-invariant max over the set axis (second to last)."""
    return max_reduce(x, axis=-2)


def sum_reduce(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_vals = x.values.sum(axis=axis, keepdims=keepdims)

    def bwd(out):
        def run():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            x._add_grad(np.broadcast_to(g, x.values.shape).copy(), owned=True)
        return run

    return _make(out_vals, (x,), bwd)


def weighted_sum(x, w: np.ndarray) -> Tensor:
    """(x * w[..., None]).sum(axis=-2) for a constant weight array w.

    x: (..., k, f); w: (..., k). Values and gradient equal
    sum_reduce(mul(x, constant(w[..., None])), axis=-2), but no product is
    kept and the gradient g[..., None, :] * w[..., None] is written once. w
    is screened as `constant` screens it.
    """
    x = as_tensor(x)
    w = np.asarray(w, dtype=np.float64)
    if x.values.shape[:-1] != w.shape:
        raise ValueError(
            f"weighted_sum: weights {w.shape} do not match x {x.values.shape}"
        )
    _screen(w, "the weighted_sum weights")
    wc = w[..., None]

    def bwd(out):
        def run():
            x._add_grad(out.grad[..., None, :] * wc, owned=True)
        return run

    return _make((x.values * wc).sum(axis=-2), (x,), bwd)


def mean_reduce(x) -> Tensor:
    x = as_tensor(x)
    return scale(sum_reduce(x), 1.0 / x.values.size)


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)
    old = x.values.shape

    def bwd(out):
        def run():
            x._add_grad(out.grad.reshape(old), owned=True)
        return run

    return _make(x.values.reshape(shape), (x,), bwd, screened=True)


def expand_set(x, size: int, axis: int = -2) -> Tensor:
    """Insert an axis of length `size` by repetition (backward sums over it).

    Used to pair each reference feature with every one of its k neighbors.
    """
    x = as_tensor(x)
    ax = axis if axis >= 0 else x.values.ndim + 1 + axis
    out_vals = np.repeat(np.expand_dims(x.values, ax), size, axis=ax)

    def bwd(out):
        def run():
            x._add_grad(out.grad.sum(axis=ax), owned=True)
        return run

    return _make(out_vals, (x,), bwd, screened=True)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    """Concatenate along `axis` (default: the feature axis)."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of nothing")
    vals = [t.values for t in ts]
    out_vals = np.concatenate(vals, axis=axis)
    ax = axis if axis >= 0 else out_vals.ndim + axis
    sizes = [v.shape[ax] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def bwd(out):
        def run():
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                if t.needs_grad:
                    sl = [slice(None)] * out.grad.ndim
                    sl[ax] = slice(lo, hi)
                    t._add_grad(out.grad[tuple(sl)])
        return run

    return _make(out_vals, ts, bwd, screened=True)


def edge_features(x_i, xhat, t: Optional[np.ndarray] = None) -> Tensor:
    """The DGCNN edge feature [x_i, xhat - x_i, t] in one buffer.

    x_i: (..., f) reference features; xhat: (..., k, f) their (aligned)
    neighbor features; t: optional constant (..., k, c) edge geometry.
    Output (..., k, 2f [+ c]): x_i repeated over k, then xhat - x_i, then t.
    The values equal concat([expand_set(x_i, k), sub(xhat, expand_set(x_i,
    k)), t]) and so do the gradients: xhat gets its slice of the output
    gradient g once, and x_i gets (g_a - g_b).sum over k, where g_a and g_b
    are its own and xhat's slices, with the same bits as that op chain.
    The parents are (xhat, x_i), in that order; the backward sweep then
    visits the graph as it did for the chain, so contributions to a tensor
    both come from are summed in the same order.
    """
    x_i, xhat = as_tensor(x_i), as_tensor(xhat)
    f = x_i.values.shape[-1]
    if xhat.values.shape[:-2] + xhat.values.shape[-1:] != x_i.values.shape:
        raise ValueError(
            f"edge_features: x_i {x_i.values.shape} does not match xhat "
            f"{xhat.values.shape}"
        )
    width = 2 * f + (0 if t is None else t.shape[-1])
    out_vals = np.empty(xhat.values.shape[:-1] + (width,))
    xi_rep = x_i.values[..., None, :]
    out_vals[..., :f] = xi_rep
    np.subtract(xhat.values, xi_rep, out=out_vals[..., f:2 * f])
    if t is not None:
        out_vals[..., 2 * f:] = t

    def bwd(out):
        def run():
            g = out.grad
            if xhat.needs_grad:
                xhat._add_grad(g[..., f:2 * f])
            if x_i.needs_grad:
                x_i._add_grad(np.subtract(g[..., :f], g[..., f:2 * f]).sum(axis=-2),
                              owned=True)
        return run

    return _make(out_vals, (xhat, x_i), bwd)


# Rows per block that _scatter_add_rows copies into its column buffer.
SCATTER_BLOCK_ROWS = 256


def _scatter_add_rows(n_rows: int, flat_idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Deterministic segmented scatter-add of 2d rows into an (n_rows, f) array.

    Sort + np.add.reduceat instead of np.add.at: same result, an order of
    magnitude faster, and the within-segment summation order is fixed by the
    stable sort. The sorted rows are copied, SCATTER_BLOCK_ROWS at a time, into
    the columns of an (f, N) buffer, so reduceat walks contiguous memory
    instead of striding down each column. For each column it sums a segment
    as the first element plus numpy's pairwise sum of the rest, whatever the
    stride, so the result has the bits of reduceat over axis 0 of
    rows[order]. `rows` may be a strided view.
    """
    f = rows.shape[1]
    out = np.zeros((n_rows, f), dtype=np.float64)
    if flat_idx.size == 0:
        return out
    order = np.argsort(flat_idx, kind="stable")
    si = flat_idx[order]
    starts = np.flatnonzero(np.concatenate(([True], si[1:] != si[:-1])))
    cols = np.empty((f, order.size))
    for s in range(0, order.size, SCATTER_BLOCK_ROWS):
        block = order[s:s + SCATTER_BLOCK_ROWS]
        cols[:, s:s + block.size] = rows[block].T
    out[si[starts]] = np.add.reduceat(cols, starts, axis=1).T
    return out


def gather_rows(x, indices: np.ndarray, prefix: Optional[np.ndarray] = None) -> Tensor:
    """Batched row lookup: x (b, n, f) indexed by integer indices (b, ...).

    Output shape is indices.shape + (f,). The backward pass scatter-adds into
    the source rows, so repeated indices accumulate.

    A constant `prefix` of shape indices.shape + (c,) goes ahead of the rows
    in the same buffer: the output (..., c + f) equals
    concat([constant(prefix), gather_rows(x, indices)]) in values and
    gradient, without a second edge-sized buffer. The prefix is screened as
    `constant` screens it, and the backward scatters straight from the
    gradient's row slice.
    """
    x = as_tensor(x)
    if x.values.ndim != 3:
        raise ValueError(f"gather_rows expects (b, n, f) input, got {x.values.shape}")
    b, n, f = x.values.shape
    idx = np.asarray(indices)
    if idx.shape[0] != b:
        raise ValueError(f"indices lead with {idx.shape[0]}, batch is {b}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("gather index out of range")
    bidx = np.arange(b).reshape((b,) + (1,) * (idx.ndim - 1))
    bfull = np.broadcast_to(bidx, idx.shape)
    if prefix is None:
        c = 0
        out_vals = x.values[bfull, idx]
    else:
        prefix = np.asarray(prefix, dtype=np.float64)
        if prefix.shape[:-1] != idx.shape:
            raise ValueError(
                f"gather_rows prefix {prefix.shape} does not match indices {idx.shape}"
            )
        _screen(prefix, "the gather_rows prefix")
        c = prefix.shape[-1]
        out_vals = np.empty(idx.shape + (c + f,))
        out_vals[..., :c] = prefix
        out_vals[..., c:] = x.values[bfull, idx]

    def bwd(out):
        def run():
            flat = (bfull * n + idx).ravel()
            rows = out.grad[..., c:].reshape(-1, f)
            x._add_grad(_scatter_add_rows(b * n, flat, rows).reshape(b, n, f),
                        owned=True)
        return run

    return _make(out_vals, (x,), bwd, screened=True)


# ---------------------------------------------------------------------------
# normalization, loss, and fused edge kernels
# ---------------------------------------------------------------------------

STANDARDIZE_EPS = 1e-6


def standardize(x, gamma, beta, axes: tuple) -> Tensor:
    """Zero-mean unit-variance over the given set axes, then scale and shift.

    gamma and beta are (f,) and broadcast over the last axis. Statistics are
    per sample and per feature; `axes` names the set axes to pool over (for
    (b, n, f) activations that is (1,), for (b, r, k, f) it is (1, 2) or (2,)
    depending on what counts as one set).
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    axes = tuple(a if a >= 0 else x.values.ndim + a for a in axes)
    if x.values.ndim - 1 in axes:
        raise ValueError("cannot standardize over the feature axis")
    m = 1
    for a in axes:
        m *= x.values.shape[a]
    mu = x.values.mean(axis=axes, keepdims=True)
    diff = x.values - mu
    var = (diff * diff).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + STANDARDIZE_EPS)
    xhat = diff * inv
    out_vals = xhat * gamma.values + beta.values

    def bwd(out):
        def run():
            g = out.grad
            sum_axes = tuple(range(g.ndim - 1))
            if gamma.needs_grad:
                gamma._add_grad((g * xhat).sum(axis=sum_axes), owned=True)
            if beta.needs_grad:
                beta._add_grad(g.sum(axis=sum_axes), owned=True)
            if x.needs_grad:
                dxhat = g * gamma.values
                t1 = dxhat.sum(axis=axes, keepdims=True)
                t2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
                x._add_grad((inv / m) * (m * dxhat - t1 - xhat * t2), owned=True)
        return run

    return _make(out_vals, (x, gamma, beta), bwd)


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
        def run():
            p = e / s
            onehot = np.zeros_like(p)
            np.put_along_axis(onehot, lab[..., None], 1.0, axis=-1)
            logits._add_grad((p - onehot) * (out.grad / n), owned=True)
        return run

    return _make(loss, (logits,), bwd)


def edge_matvec(m, x) -> Tensor:
    """Per-edge matrix-vector product: m (..., f, f) applied to x (..., f)."""
    m, x = as_tensor(m), as_tensor(x)
    out_vals = np.einsum("...ij,...j->...i", m.values, x.values)

    def bwd(out):
        def run():
            if m.needs_grad:
                m._add_grad(np.einsum("...i,...j->...ij", out.grad, x.values),
                            owned=True)
            if x.needs_grad:
                x._add_grad(np.einsum("...ij,...i->...j", m.values, out.grad),
                            owned=True)
        return run

    return _make(out_vals, (m, x), bwd)


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
        def run():
            m._add_grad(np.einsum(
                "...ij,...jk->...ik", dev, m.values
            ) * (4.0 * out.grad / count), owned=True)
        return run

    return _make(penalty, (m,), bwd)
