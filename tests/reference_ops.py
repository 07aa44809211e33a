"""Unfused autodiff ops that the network does not run.

The tests use them as references for the package's fused and in-place ops
(`expand_add` against add and expand_set; `weighted_sum` against mul and
sum_reduce; `relu_inplace` against relu; `max_reduce` and `concat`, which
release the values of the input they are given, against the same ops
keeping them), to build the unfactored edge feature [x_i, xhat - x_i, t]
in `oracles.unfactored_model`, and as gradient probes.
They are built on the engine's `_make` and `Tensor._add_grad` exactly as the
package's ops are, so their values and gradients are the bits the fused ops
must reproduce. None of them gives an input up, so every input keeps its
values until the graph is dropped.
"""
import numpy as np

from aecnn.autodiff import (Tensor, _first_argmax, _make, _unbroadcast,
                            as_tensor, scale)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(out):
        # b gets a fresh negation, so a may own out.grad itself.
        if a.needs_grad:
            a._add_grad(_unbroadcast(out.grad, a.values.shape), owned=True)
        if b.needs_grad:
            b._add_grad(-_unbroadcast(out.grad, b.values.shape), owned=True)

    return _make(a.values - b.values, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(out):
        g = out.grad
        if b.needs_grad:
            b._add_grad(_unbroadcast(g * a.values, b.values.shape), owned=True)
        if a.needs_grad:
            # out.grad has the broadcast shape, so a's product fits in it.
            np.multiply(g, b.values, out=g)
            a._add_grad(_unbroadcast(g, a.values.shape), owned=True)

    return _make(a.values * b.values, (a, b), bwd)


def square(a) -> Tensor:
    a = as_tensor(a)

    def bwd(out):
        a._add_grad(out.grad * (2.0 * a.values), owned=True)

    return _make(a.values * a.values, (a,), bwd)


def relu(x) -> Tensor:
    """max(x, 0); negative zeros come out as +0.0, as np.where(x > 0, x, 0) gives.

    The mask that routes the gradient is built only when backward runs and
    is applied in place to the output's own gradient, which is handed down.
    """
    x = as_tensor(x)

    def bwd(out):
        g = out.grad
        np.multiply(g, x.values > 0.0, out=g)
        x._add_grad(g, owned=True)

    return _make(np.maximum(x.values, 0.0), (x,), bwd, screened=True)


def sum_reduce(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_vals = x.values.sum(axis=axis, keepdims=keepdims)

    def bwd(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._add_grad(np.broadcast_to(g, x.values.shape).copy(), owned=True)

    return _make(out_vals, (x,), bwd)


def mean_reduce(x) -> Tensor:
    x = as_tensor(x)
    return scale(sum_reduce(x), 1.0 / x.values.size)


def expand_set(x, size: int, axis: int = -2) -> Tensor:
    """Insert an axis of length `size` by repetition (backward sums over it).

    Pairs each reference feature with every one of its k neighbors.
    """
    x = as_tensor(x)
    ax = axis if axis >= 0 else x.values.ndim + 1 + axis
    out_vals = np.repeat(np.expand_dims(x.values, ax), size, axis=ax)

    def bwd(out):
        x._add_grad(out.grad.sum(axis=ax), owned=True)

    return _make(out_vals, (x,), bwd, screened=True)


def max_reduce(x, axis: int) -> Tensor:
    """Max along one axis, the gradient to the first argmax, wired to x:
    the backward keeps x and builds its zero gradient from x's values."""
    x = as_tensor(x)
    axis = axis if axis >= 0 else x.values.ndim + axis
    am = _first_argmax(x.values, axis)
    out_vals = np.take_along_axis(x.values, np.expand_dims(am, axis), axis)

    def bwd(out):
        g = np.zeros_like(x.values)
        np.put_along_axis(
            g, np.expand_dims(am, axis), np.expand_dims(out.grad, axis), axis
        )
        x._add_grad(g, owned=True)

    return _make(np.squeeze(out_vals, axis=axis), (x,), bwd, screened=True)


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenation wired to every input; each takes its slice of the
    output gradient as a shared view."""
    ts = [as_tensor(t) for t in tensors]
    out_vals = np.concatenate([t.values for t in ts], axis=axis)
    ax = axis if axis >= 0 else out_vals.ndim + axis
    offsets = np.cumsum([0] + [t.values.shape[ax] for t in ts])

    def bwd(out):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.needs_grad:
                sl = [slice(None)] * out.grad.ndim
                sl[ax] = slice(lo, hi)
                t._add_grad(out.grad[tuple(sl)])

    return _make(out_vals, ts, bwd, screened=True)
