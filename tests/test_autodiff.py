"""Gradient machinery against central finite differences."""
import ast
import gc
import inspect
import pathlib
import weakref

import numpy as np
import pytest

from aecnn import autodiff as ad
from aecnn import cli, config, data, nn, training
from aecnn import geometry as geo
from aecnn import lrf
from aecnn import neighbors as nb
from aecnn import network as net
from aecnn.config import desk_segmentation_config
from aecnn.network import Model

import reference_ops as ref
from oracles import central_difference, relative_error

TOL = 1e-4
H = 1e-6


def rng(seed=0):
    return np.random.default_rng(seed)


def check_grads(build, arrays, tol=TOL, h=H):
    """build(*tensors) -> scalar Tensor; FD-checks the grad of every input."""
    tensors = [ad.parameter(a.copy()) for a in arrays]
    loss = build(*tensors)
    ad.backward(loss)
    for i in range(len(arrays)):
        def f(x, i=i):
            ts = [
                ad.constant(arrays[j]) if j != i else ad.constant(x)
                for j in range(len(arrays))
            ]
            ts[i].needs_grad = False  # value only; gradient not needed here
            return float(build(*ts).values)

        num = central_difference(f, arrays[i].copy(), h=h)
        err = relative_error(tensors[i].grad, num)
        assert err < tol, f"input {i}: relative error {err}"


def project(t, seed=99):
    """Deterministic scalarization: sum(t * w) for a weight array that is a
    pure function of the shape, so rebuilding the graph sees the same w."""
    w = np.random.default_rng(seed).normal(size=t.shape)
    return ref.sum_reduce(ref.mul(t, ad.constant(w)))


def gapped(g, shape, axis):
    """Random values whose per-slice gaps exceed the FD step comfortably."""
    vals = g.normal(size=shape)
    # Spread by rank along the axis so no two entries are within 1e-3.
    order = np.argsort(vals, axis=axis)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(shape[axis]).reshape(
        [-1 if a == (axis % len(shape)) else 1 for a in range(len(shape))]), axis)
    return vals + 0.01 * ranks


class TestElementwise:
    def test_add_broadcast(self):
        g = rng(60)
        check_grads(
            lambda a, b: project(ad.add(a, b)),
            [g.normal(size=(4, 5)), g.normal(size=(5,))],
        )

    def test_sub(self):
        g = rng(61)
        check_grads(
            lambda a, b: project(ref.sub(a, b)),
            [g.normal(size=(3, 4)), g.normal(size=(3, 4))],
        )

    def test_mul_broadcast(self):
        g = rng(62)
        check_grads(
            lambda a, b: project(ref.mul(a, b)),
            [g.normal(size=(2, 3, 4)), g.normal(size=(3, 4))],
        )
        check_grads(
            lambda a, b: project(ref.mul(a, b)),
            [g.normal(size=(3, 1)), g.normal(size=(2, 3, 4))],
        )

    def test_scale_square(self):
        g = rng(63)
        check_grads(
            lambda a: project(ref.square(ad.scale(a, -1.7))),
            [g.normal(size=(6,))],
        )


class TestLinearRelu:
    def test_linear_all_inputs(self):
        g = rng(64)
        check_grads(
            lambda x, w, b: project(ad.linear(x, w, b)),
            [g.normal(size=(5, 7)), g.normal(size=(7, 3)), g.normal(size=(3,))],
        )

    def test_linear_leading_axes(self):
        g = rng(65)
        check_grads(
            lambda x, w: project(ad.linear(x, w)),
            [g.normal(size=(2, 3, 4, 5)), g.normal(size=(5, 2))],
        )

    def test_linear_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.linear(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 5))))

    def test_relu(self):
        g = rng(66)
        x = g.normal(size=(4, 6))
        x += np.sign(x) * 0.05  # keep away from the kink
        check_grads(lambda a: project(ref.relu(a)), [x])

    def test_relu_zero_gets_zero_grad(self):
        x = ad.parameter(np.array([0.0, -1.0, 2.0]))
        ad.backward(ref.sum_reduce(ref.relu(x)))
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_relu_values_bitwise_including_signed_zero(self):
        # Odd lengths and a strided view exercise both vector and tail loops.
        g = rng(70)
        x = g.normal(size=(7, 13))
        x[::2, ::3] = -0.0
        x[1::3, 1::2] = 0.0
        for view in (x, x.T, x[:, ::2]):
            want = np.where(view > 0, view, 0.0)
            got = ref.relu(ad.constant(view)).values
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestReductions:
    def test_max_pool_set(self):
        g = rng(67)
        x = gapped(g, (3, 5, 4), axis=1)
        check_grads(lambda a: project(ad.max_reduce(a, axis=-2)), [x])

    def test_max_reduce_middle_axis(self):
        g = rng(68)
        x = gapped(g, (2, 6, 3), axis=1)
        check_grads(
            lambda a: project(ad.max_reduce(a, axis=1)), [x]
        )

    def test_max_tie_goes_to_first(self):
        x = ad.parameter(np.array([[1.0], [3.0], [3.0]]))  # set of 3 scalars
        ad.backward(ref.sum_reduce(ad.max_reduce(x, axis=-2)))
        assert np.array_equal(x.grad, [[0.0], [1.0], [0.0]])

    def test_forward_only_max_matches_tracked(self):
        g = rng(71)
        x = g.integers(-3, 4, size=(2, 9, 5)).astype(np.float64)  # many ties
        tracked = ad.max_reduce(ad.parameter(x), axis=1)
        plain = ad.max_reduce(ad.constant(x), axis=1)
        assert tracked.needs_grad and not plain.needs_grad
        assert np.array_equal(plain.values, tracked.values)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_tracked_max_matches_argmax_bitwise(self, axis):
        # Ties, and ties between -0.0 and +0.0: the tracked max picks
        # argmax's index and returns the value stored there.
        g = rng(72)
        x = g.integers(-2, 3, size=(5, 6, 7)).astype(np.float64)
        x[x == 0] = -0.0
        x[g.random(x.shape) < 0.3] = 0.0
        x[3, :, :] = -0.0
        p = ad.parameter(x)
        out = ad.max_reduce(p, axis=axis)
        am = np.expand_dims(x.argmax(axis=axis), axis)
        want = np.squeeze(np.take_along_axis(x, am, axis), axis=axis)
        assert np.array_equal(out.values, want)
        assert np.array_equal(np.signbit(out.values), np.signbit(want))
        ad.backward(ref.sum_reduce(out))
        routed = np.zeros_like(x)
        np.put_along_axis(routed, am, 1.0, axis)
        assert np.array_equal(p.grad, routed)

    @pytest.mark.parametrize("n", [256, 257, 65_537])
    def test_tracked_max_over_long_axis(self, n):
        # The winning rows are kept in the smallest unsigned dtype that
        # holds n - 1: uint8, uint16 and uint32 here.
        x = rng(73).normal(size=(n, 3))
        p = ad.parameter(x)
        out = ad.max_reduce(p, axis=0)
        assert np.array_equal(out.values, x.max(axis=0))
        ad.backward(ref.sum_reduce(out))
        routed = np.zeros_like(x)
        np.put_along_axis(routed, x.argmax(axis=0)[None], 1.0, 0)
        assert np.array_equal(p.grad, routed)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ad.max_reduce(ad.constant(np.zeros((2, 0, 3))), axis=-2)

    def test_sum_and_mean(self):
        g = rng(69)
        check_grads(lambda a: ref.sum_reduce(a), [g.normal(size=(3, 4))])
        check_grads(lambda a: ref.mean_reduce(a), [g.normal(size=(3, 4))])
        check_grads(
            lambda a: project(ref.sum_reduce(a, axis=1)),
            [g.normal(size=(3, 2, 5))],
        )


class TestConcatGather:
    def test_concat_last_axis(self):
        g = rng(70)
        check_grads(
            lambda a, b, c: project(ad.concat([a, b, c])),
            [g.normal(size=(3, 2)), g.normal(size=(3, 3)), g.normal(size=(3, 4))],
        )

    def test_concat_shapes(self):
        out = ad.concat([ad.constant(np.zeros((2, 3))), ad.constant(np.ones((2, 5)))])
        assert out.shape == (2, 8)

    def test_reshape(self):
        g = rng(96)
        check_grads(
            lambda x: project(ad.reshape(x, (2, 3, 2, 2))),
            [g.normal(size=(2, 3, 4))],
        )

    def test_expand_set(self):
        g = rng(97)
        check_grads(
            lambda x: project(ref.expand_set(x, 5)),
            [g.normal(size=(2, 3, 4))],
        )
        out = ref.expand_set(ad.constant(np.ones((2, 3))), 4, axis=1)
        assert out.shape == (2, 4, 3)

    def test_gather_rows_with_repeats(self):
        g = rng(71)
        idx = np.array([[0, 2, 2, 1], [3, 3, 3, 0]])
        check_grads(
            lambda x: project(ad.gather_rows(x, idx)),
            [g.normal(size=(2, 5, 3))],
        )

    def test_gather_rows_nested_indices(self):
        g = rng(72)
        idx = g.integers(0, 6, size=(2, 3, 4))
        x = g.normal(size=(2, 6, 5))
        out = ad.gather_rows(ad.constant(x), idx)
        assert out.shape == (2, 3, 4, 5)
        for b in range(2):
            assert np.array_equal(out.values[b], x[b][idx[b]])

    def test_gather_rows_bounds(self):
        with pytest.raises(IndexError):
            ad.gather_rows(ad.constant(np.zeros((1, 3, 2))), np.array([[3]]))

    def test_scatter_matches_add_at(self):
        g = rng(73)
        for _ in range(20):
            n = int(g.integers(1, 10))
            m = int(g.integers(0, 30))
            idx = g.integers(0, n, size=m)
            rows = g.normal(size=(m, 4))
            want = np.zeros((n, 4))
            np.add.at(want, idx, rows)
            got = ad._scatter_add_rows(n, idx, rows)
            assert np.allclose(got, want, atol=1e-12)

    @staticmethod
    def reduceat_rows(n, idx, rows):
        """The scatter as np.add.reduceat over axis 0 of the sorted rows."""
        order = np.argsort(idx, kind="stable")
        si = idx[order]
        starts = np.flatnonzero(np.concatenate(([True], si[1:] != si[:-1])))
        out = np.zeros((n, rows.shape[1]))
        out[si[starts]] = np.add.reduceat(rows[order], starts, axis=0)
        return out

    def test_scatter_matches_reduceat_bitwise(self):
        # Segment lengths 1 to 300 cover numpy's 8-way unrolled pairwise sum
        # and its split into 128-element blocks; the values span many orders
        # of magnitude so that any other summation order shows. rows is a
        # strided view, and 40 of the 340 targets receive nothing.
        g = rng(74)
        idx = np.repeat(g.permutation(340)[:300], np.arange(1, 301))
        g.shuffle(idx)
        wide = g.normal(size=(idx.size, 9)) * np.exp(4.0 * g.normal(size=(idx.size, 9)))
        rows = wide[:, 2:7]
        assert not rows.flags.c_contiguous
        got = ad._scatter_add_rows(340, idx, rows)
        want = self.reduceat_rows(340, idx, rows)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("case", ["segment_over_chunk", "many_chunks",
                                      "one_segment"])
    def test_scatter_in_chunks_matches_reduceat_bitwise(self, case, monkeypatch):
        # Chunks hold whole segments: a segment longer than the default
        # chunk gets a chunk of its own length, and a small chunk splits
        # the rows into hundreds of chunks.
        g = rng(75)
        f = 3
        if case == "segment_over_chunk":
            lengths = [1, ad.SCATTER_CHUNK_ELEMS // f + 77, 2, 130]
        elif case == "many_chunks":
            monkeypatch.setattr(ad, "SCATTER_CHUNK_ELEMS", 40 * f)
            lengths = g.integers(1, 41, size=600)
        else:
            lengths = [1000]
        idx = np.repeat(g.permutation(len(lengths) + 5)[:len(lengths)], lengths)
        g.shuffle(idx)
        rows = g.normal(size=(idx.size, f)) * np.exp(4.0 * g.normal(size=(idx.size, f)))
        got = ad._scatter_add_rows(len(lengths) + 5, idx, rows)
        want = self.reduceat_rows(len(lengths) + 5, idx, rows)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_scatter_of_no_rows(self):
        got = ad._scatter_add_rows(4, np.zeros(0, dtype=np.intp), np.zeros((0, 3)))
        assert np.array_equal(got, np.zeros((4, 3)))


def weighted_sum_chain(x, w):
    return ref.sum_reduce(ref.mul(x, ad.constant(w[..., None])), axis=2)


class TestPrefixGatherWeightedSum:
    """The fused ops that feed the align MLP and the interpolation against
    the op chains they replace, bit for bit: the gather into the first
    layer (a constant prefix ahead of the rows until the per-source-row
    factoring; `gather_add` since) and `weighted_sum`."""

    def test_weighted_sum_equals_mul_sum_chain_bitwise(self):
        # Zero and negative weights, and relus on both sides, so signed
        # zeros reach the backward and come out of it.
        g = rng(95)
        src0 = g.normal(size=(2, 6, 4))
        nn3 = g.integers(0, 6, size=(2, 5, 3))
        w = g.normal(size=(2, 5, 3))
        w[0, 0, 1] = 0.0
        got = []
        for build in (ad.weighted_sum, weighted_sum_chain):
            src = ad.parameter(src0)
            x = ref.relu(ad.gather_rows(src, nn3))
            out = build(x, w)
            ad.backward(project(ref.relu(out)))
            got.append((out.values, src.grad))
        for a, b in zip(*got):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_weighted_sum_matches_finite_differences(self):
        g = rng(96)
        w = g.normal(size=(2, 3, 4))
        check_grads(lambda x: project(ad.weighted_sum(x, w)),
                    [g.normal(size=(2, 3, 4, 5))])

    def test_shape_mismatch_rejected(self):
        x = ad.constant(np.zeros((1, 4, 2)))
        with pytest.raises(ValueError, match="gather_add"):
            ad.gather_add(ad.constant(np.zeros((1, 2, 2))), x,
                          np.zeros((1, 3), dtype=int))
        with pytest.raises(ValueError, match="weighted_sum"):
            ad.weighted_sum(x, np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_constants_raise(self, bad):
        x = ad.parameter(np.zeros((1, 4, 2)))
        w = np.ones((1, 4))
        w[0, 2] = bad
        with pytest.raises(FloatingPointError):
            ad.weighted_sum(x, w)


class TestFactoredFirstLayer:
    """The ops that let a first layer multiply a repeated block once:
    `row_block`, `gather_add` and `expand_add`, each against finite
    differences and, bit for bit, against the unfused ops it replaces."""

    def test_row_block_matches_finite_differences(self):
        g = rng(100)
        x = g.normal(size=(2, 3, 2))
        check_grads(lambda w: project(ad.linear(x, ad.row_block(w, 1, 3))),
                    [g.normal(size=(5, 4))])

    def test_row_block_gradient_fills_its_rows(self):
        # Two blocks of one weight: each hands back x^T g in its own rows,
        # exactly, and the rows no block reads get +0.0.
        g = rng(101)
        w = ad.parameter(g.normal(size=(6, 3)))
        x1, x2 = g.normal(size=(4, 2)), g.normal(size=(4, 3))
        a = ad.linear(x1, ad.row_block(w, 0, 2))
        c = ad.linear(x2, ad.row_block(w, 3, 6))
        assert np.array_equal(a.values, x1 @ w.values[:2])
        ad.backward(project(ad.add(a, c)))
        gp = np.random.default_rng(99).normal(size=(4, 3))
        assert np.array_equal(w.grad[:2], x1.T @ gp)
        assert np.array_equal(w.grad[3:], x2.T @ gp)
        assert np.array_equal(w.grad[2], np.zeros(3))
        assert not np.signbit(w.grad[2]).any()

    def test_row_block_range_checked(self):
        w = ad.parameter(np.zeros((4, 2)))
        for start, stop in ((2, 2), (-1, 2), (0, 5)):
            with pytest.raises(ValueError, match="row_block"):
                ad.row_block(w, start, stop)

    def test_gather_add_matches_finite_differences(self):
        g = rng(102)
        idx = np.array([[[0, 2], [2, 2]], [[3, 1], [0, 3]]])
        w = g.normal(size=(3, 5))
        check_grads(
            lambda y, x: project(ad.gather_add(ad.linear(y, w), x, idx)),
            [g.normal(size=(2, 2, 2, 3)), g.normal(size=(2, 4, 5))])

    def test_gather_add_equals_add_of_gather_bitwise(self):
        # The rows repeat, and a relu after the sum masks entries whose
        # gradient is negative, so -0.0 reaches the scatter.
        g = rng(103)
        src0 = g.normal(size=(2, 9, 4))
        code = g.normal(size=(2, 3, 5, 3))
        w0 = g.normal(size=(3, 4))
        graph = g.integers(0, 9, size=(2, 3, 5))
        assert len(np.unique(graph[0])) < graph[0].size
        got = []
        for fused in (True, False):
            src, w = ad.parameter(src0), ad.parameter(w0)
            y = ad.linear(code, w)
            out = (ad.gather_add(y, src, graph) if fused
                   else ad.add(y, ad.gather_rows(src, graph)))
            ad.backward(project(ref.relu(out)))
            got.append((out.values, src.grad, w.grad))
        for a, b in zip(*got):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_expand_add_matches_finite_differences(self):
        g = rng(104)
        w = g.normal(size=(3, 4))
        check_grads(
            lambda y, x: project(ad.expand_add(ad.linear(y, w), x)),
            [g.normal(size=(2, 3, 5, 3)), g.normal(size=(2, 3, 4))])

    def test_expand_add_equals_add_of_expand_set_bitwise(self):
        g = rng(105)
        e0 = g.normal(size=(2, 3, 5, 3))
        x0 = g.normal(size=(2, 3, 4))
        w0 = g.normal(size=(3, 4))
        got = []
        for fused in (True, False):
            x, w = ad.parameter(x0), ad.parameter(w0)
            y = ad.linear(e0, w)
            out = (ad.expand_add(y, x) if fused
                   else ad.add(y, ref.expand_set(x, 5)))
            ad.backward(project(ref.relu(out)))
            got.append((out.values, x.grad, w.grad))
        for a, b in zip(*got):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_shapes_checked(self):
        y = ad.constant(np.zeros((2, 3, 5, 4)))
        with pytest.raises(ValueError, match="expand_add"):
            ad.expand_add(y, ad.constant(np.zeros((2, 3, 3))))
        with pytest.raises(IndexError):
            ad.gather_add(y, ad.constant(np.zeros((2, 4, 4))),
                          np.full((2, 3, 5), 4))


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = ad.cross_entropy(ad.constant(np.zeros(4)), 2)
        assert float(loss.values) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matches_finite_differences(self):
        g = rng(77)
        labels = g.integers(0, 5, size=6)
        check_grads(
            lambda z: ad.cross_entropy(z, labels), [g.normal(size=(6, 5))]
        )

    def test_gradient_is_softmax_minus_onehot(self):
        g = rng(78)
        z = ad.parameter(g.normal(size=(3, 4)))
        labels = np.array([1, 0, 3])
        ad.backward(ad.cross_entropy(z, labels))
        e = np.exp(z.values - z.values.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(p)
        onehot[np.arange(3), labels] = 1.0
        assert np.allclose(z.grad, (p - onehot) / 3.0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        z = ad.parameter(np.array([[1000.0, -1000.0, 0.0]]))
        loss = ad.cross_entropy(z, np.array([1]))
        ad.backward(loss)
        assert np.isfinite(float(loss.values))
        assert np.isfinite(z.grad).all()

    def test_per_point_labels(self):
        g = rng(79)
        labels = g.integers(0, 3, size=(2, 5))
        check_grads(
            lambda z: ad.cross_entropy(z, labels), [g.normal(size=(2, 5, 3))]
        )

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(ad.constant(np.zeros(3)), 3)


class TestEdgeKernels:
    def test_edge_matvec(self):
        g = rng(80)
        check_grads(
            lambda m, x: project(ad.edge_matvec(m, x)),
            [g.normal(size=(2, 5, 4, 4)), g.normal(size=(2, 5, 4))],
        )

    def test_orthogonality_penalty_zero_for_rotations(self):
        theta = 0.7
        r = np.array([
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ])
        pen = ad.orthogonality_penalty(ad.constant(np.stack([r, np.eye(2)])))
        assert float(pen.values) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonality_penalty_gradient(self):
        g = rng(81)
        check_grads(
            lambda m: ad.orthogonality_penalty(m), [g.normal(size=(3, 4, 4))]
        )


class TestGraphMechanics:
    def test_forward_bitwise_deterministic(self):
        g = rng(82)
        x = g.normal(size=(4, 6))
        w = g.normal(size=(6, 3))

        def run():
            return ref.relu(ad.linear(ad.constant(x), ad.constant(w))).values

        assert np.array_equal(run(), run())

    def test_constant_subgraph_allocates_no_grads(self):
        out = ad.linear(ad.constant(np.zeros((2, 3))), ad.constant(np.ones((3, 2))))
        assert not out.needs_grad
        assert out._backward is None

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(ref.relu(x))

    def test_grads_accumulate_across_uses(self):
        x = ad.parameter(np.array([2.0]))
        y = ad.add(ref.square(x), ad.scale(x, 3.0))  # x^2 + 3x
        ad.backward(ref.sum_reduce(y))
        assert np.allclose(x.grad, [2.0 * 2.0 + 3.0])

    def test_finite_check_raises(self):
        with pytest.raises(FloatingPointError):
            ad.Tensor(np.array([np.nan]))


def tracked_ops(g):
    """One tracked call of every op the package runs: (name, build)."""
    x = ad.parameter(g.normal(size=(2, 5, 3)))
    m = ad.parameter(g.normal(size=(2, 5, 3, 3)))
    w = g.normal(size=(3, 4))
    idx = g.integers(0, 5, size=(2, 4))
    return [
        ("add", lambda: ad.add(x, x)),
        ("scale", lambda: ad.scale(x, 2.0)),
        ("linear", lambda: ad.linear(x, ad.parameter(w))),
        ("relu_inplace", lambda: ad.relu_inplace(ad.linear(x, w))),
        ("max_reduce", lambda: ad.max_reduce(x, axis=1)),
        ("mlp_max", lambda: ad.mlp_max(x.values, nn.Mlp((3, 4, 2), g, {}, "m"),
                                       axis=1)),
        ("weighted_sum", lambda: ad.weighted_sum(x, np.ones((2, 5)))),
        ("reshape", lambda: ad.reshape(x, (10, 3))),
        ("concat", lambda: ad.concat([x, x])),
        ("expand_add", lambda: ad.expand_add(ad.linear(x, np.eye(3)),
                                             ad.max_reduce(x, axis=1))),
        ("gather_rows", lambda: ad.gather_rows(x, idx)),
        ("gather_add", lambda: ad.gather_add(ad.linear(np.ones((2, 4, 3)), np.eye(3)),
                                             x, idx)),
        ("row_block", lambda: ad.row_block(ad.parameter(w), 1, 3)),
        ("cross_entropy", lambda: ad.cross_entropy(x, np.zeros((2, 5), dtype=int))),
        ("edge_matvec", lambda: ad.edge_matvec(m, x)),
        ("orthogonality_penalty", lambda: ad.orthogonality_penalty(m)),
    ]


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestGraphLifetime:
    """No op output refers to itself, so reference counting alone frees a
    graph that is dropped without a backward sweep."""

    @pytest.mark.parametrize("name", [n for n, _ in tracked_ops(rng(85))])
    def test_dropped_op_output_freed_at_once(self, name, no_cyclic_gc):
        out = dict(tracked_ops(rng(85)))[name]()
        assert out.needs_grad
        probe = weakref.ref(out.values)
        del out
        assert probe() is None

    def test_dropped_segmentation_forward_freed_at_once(self, no_cyclic_gc):
        model = Model(desk_segmentation_config(), seed=0)
        pts = rng(86).normal(size=(2, model.config.n_points, 3))
        onehot = np.eye(model.config.n_classes)[[0, 1]]
        logits, penalties = model.segment_batch(pts, onehot)
        assert logits.needs_grad
        probe = weakref.ref(logits.values)
        del logits, penalties
        assert probe() is None


ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(ad.__file__).parent


def uncalled_public_functions(module, roots, entry_points=()) -> list:
    """Public functions of `module` that no file under `roots` uses.

    A use is an import of the name, an attribute read through an alias of
    the module or of the package, or the bare name read inside the module
    itself (a helper its own functions call). The module's own definitions
    and the package's re-exports in its __init__.py do not count.
    """
    package, short = module.__name__.rsplit(".", 1)
    used = set()
    for root in roots:
        for path in root.rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            if path == pathlib.Path(module.__file__):
                used.update(node.id for node in ast.walk(tree)
                            if isinstance(node, ast.Name))
            aliases = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    source = "." * node.level + (node.module or "")
                    if source in (f".{short}", module.__name__, ".", package):
                        used.update(a.name for a in node.names)
                    if source in (".", package):
                        aliases.update(a.asname or a.name for a in node.names
                                       if a.name == short)
                elif isinstance(node, ast.Import):
                    aliases.update(a.asname or a.name for a in node.names
                                   if a.name in (module.__name__, package))
            used.update(node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in aliases)
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == module.__name__}
    return sorted(public - set(entry_points) - used)


def test_every_public_op_has_a_package_caller():
    """An op only the tests call belongs in tests/reference_ops.py."""
    entry_points = {"parameter", "constant", "as_tensor", "backward"}
    assert uncalled_public_functions(ad, [PACKAGE], entry_points) == []


def test_network_has_no_test_only_code():
    """Model is the one way to run the network, and the batched kernels the
    one way to search and build frames: every public function of the
    package's modules but autodiff (checked above) has a caller in the
    package, bench/ or demos/. The one exemption is the AEDS1 writer
    `save_dataset_bin`, public API that the package itself never calls."""
    roots = [PACKAGE, ROOT / "bench", ROOT / "demos"]
    exempt = {"save_dataset_bin"}
    uncalled = {m.__name__: uncalled_public_functions(m, roots, exempt)
                for m in (net, nb, lrf, geo, data, nn, training, config, cli)}
    assert {name: found for name, found in uncalled.items() if found} == {}


class TestGradientOwnership:
    """Each tensor's .grad is its own buffer, written once per contribution."""

    def test_add_same_tensor_twice(self):
        x = ad.parameter(np.array([1.5, -2.0, 0.25]))
        ad.backward(project(ad.add(x, x)))
        w = np.random.default_rng(99).normal(size=3)
        assert np.array_equal(x.grad, w + w)

    def test_add_operands_do_not_share_a_buffer(self):
        # Both operands receive add's upstream gradient, then more of their
        # own; neither may see the other's later contributions.
        x = ad.parameter(np.array([1.0, 2.0]))
        y = ad.parameter(np.array([3.0, 4.0]))
        s = ref.sum_reduce
        ad.backward(ad.add(ad.add(s(ad.add(x, y)), s(ad.scale(x, 3.0))),
                           s(ad.scale(y, 5.0))))
        assert np.array_equal(x.grad, [4.0, 4.0])
        assert np.array_equal(y.grad, [6.0, 6.0])

    def test_sub_same_tensor_gives_zero(self):
        x = ad.parameter(np.array([1.5, -2.0, 0.25]))
        ad.backward(project(ref.sub(x, x)))
        assert np.array_equal(x.grad, np.zeros(3))
        assert not np.signbit(x.grad).any()

    def test_concat_same_tensor_twice(self):
        g = rng(84)
        x = ad.parameter(g.normal(size=(2, 3)))
        ad.backward(project(ad.concat([x, x])))
        w = np.random.default_rng(99).normal(size=(2, 6))
        assert np.array_equal(x.grad, w[:, :3] + w[:, 3:])

    def test_relu_feeding_two_consumers(self):
        # relu masks its output's grad in place and hands it down; the two
        # consumers must each see the whole upstream gradient.
        x = ad.parameter(np.array([[1.0, -1.0, 2.0]]))
        h = ref.relu(x)
        w = ad.parameter(np.array([[2.0], [3.0], [5.0]]))
        y = ad.add(ref.sum_reduce(ad.linear(h, w)), ref.sum_reduce(ad.scale(h, 7.0)))
        ad.backward(y)
        assert np.array_equal(x.grad, [[9.0, 0.0, 12.0]])
        assert np.array_equal(w.grad, [[1.0], [0.0], [2.0]])

    def test_negative_zero_contribution_stored_as_positive_zero(self):
        x = ad.parameter(np.array([3.0, -4.0]))
        ad.backward(ref.sum_reduce(ad.scale(x, -0.0)))
        assert np.array_equal(x.grad, [0.0, 0.0])
        assert not np.signbit(x.grad).any()

    def test_constant_operands_get_no_grad(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        c = ad.constant(np.array([3.0, 4.0]))
        d = ad.constant(np.array([5.0, 6.0]))
        ad.backward(ref.sum_reduce(ad.add(ref.mul(x, c), ref.sub(x, d))))
        assert np.array_equal(x.grad, [4.0, 5.0])
        assert c.grad is None and d.grad is None

    def test_wrong_gradient_shape_rejected(self):
        x = ad.parameter(np.zeros((2, 3)), name="x")
        with pytest.raises(ValueError, match=r"\(3,\).*\(2, 3\)"):
            x._add_grad(np.ones(3))

    def test_scalar_gradient_accepted(self):
        x = ad.parameter(np.array(1.0))
        x._add_grad(np.float64(2.0))
        x._add_grad(np.float64(0.5))
        assert x.grad.shape == () and float(x.grad) == 2.5


class TestCompositeProbe:
    def test_set_network_gradient(self):
        """A miniature of the real thing: shared MLP over neighbors, set max
        pool, affine head, cross entropy. Every parameter within 1e-3."""
        g = rng(83)
        x = g.normal(size=(2, 4, 6, 3))  # batch, refs, neighbors, coords
        labels = np.array([1, 0])
        arrays = [
            g.normal(size=(3, 8)) * 0.5, g.normal(size=(8,)) * 0.1,
            g.normal(size=(8, 5)) * 0.5, g.normal(size=(5,)) * 0.1,
            g.normal(size=(5, 3)) * 0.5, g.normal(size=(3,)) * 0.1,
        ]

        def build(w1, b1, w2, b2, w3, b3):
            h = ref.relu(ad.linear(ad.constant(x), w1, b1))
            h = ad.max_reduce(h, axis=-2)  # pool neighbors
            h = ref.relu(ad.linear(h, w2, b2))
            h = ad.max_reduce(h, axis=-2)  # pool refs
            return ad.cross_entropy(ad.linear(h, w3, b3), labels)

        check_grads(build, arrays, tol=1e-3, h=1e-5)


def wired_results(build, arrays):
    """Values and every input gradient of project(build(*params))."""
    params = [ad.parameter(a.copy()) for a in arrays]
    out = build(*params)
    ad.backward(project(out))
    return [out.values] + [p.grad for p in params]


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a is not None and b is not None
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def mlp_pool(k, seed):
    """A set MLP's input (2, 3, k, 4) with repeated edges, so the max over k
    ties, and its weights."""
    g = rng(seed)
    c = g.normal(size=(2, 3, k, 4))
    c[:, :, 1] = c[:, :, 0]
    c[0, 1, k // 2:] = c[0, 1, :k - k // 2]
    return c, [g.normal(size=(4, 6)), g.normal(size=(6,)),
               g.normal(size=(6, 5)), g.normal(size=(5,))]


def signed_zero_pool(k, seed):
    """Source rows (2, 6, 3) and neighbor indices (2, 3, k): every row but
    -0.0 and +0.0 is negative, and each set gathers both zeros, twice."""
    g = rng(seed)
    src = -np.abs(g.normal(size=(2, 6, 3))) - 0.5
    src[:, 0], src[:, 1] = -0.0, 0.0
    idx = g.integers(2, 6, size=(2, 3, k))
    idx[..., [1, 4]] = 0
    idx[..., [3, k - 1]] = 1
    idx[1, 2, [1, 4]] = 1
    return src, idx


class TestTakeOver:
    """Ops that release the values of the input they are given against the
    same chains keeping them (reference_ops), bit for bit in values, signed
    zeros and every gradient; what happens when the input's values cannot be
    released; and the refusal of a released input."""

    @pytest.mark.parametrize("k", [12, 16])
    def test_max_over_set_mlp_equals_wired_chain(self, k):
        c, weights = mlp_pool(k, 110 + k)
        got = []
        for pool, relu in ((ad.max_reduce, ad.relu_inplace),
                           (ref.max_reduce, ref.relu)):
            def build(w1, b1, w2, b2):
                h = relu(ad.linear(c, w1, b1))
                return pool(ad.linear(h, w2, b2), axis=2)
            got.append(wired_results(build, weights))
        assert_same_bits(*got)

    @pytest.mark.parametrize("k", [12, 16])
    def test_max_over_signed_zeros_and_ties(self, k):
        # The max of each set is a zero that both -0.0 and +0.0 reach; the
        # first of them takes the gradient, with its sign in the value.
        src, idx = signed_zero_pool(k, 115 + k)
        got = [wired_results(lambda s: pool(ad.gather_rows(s, idx), axis=2), [src])
               for pool in (ad.max_reduce, ref.max_reduce)]
        assert_same_bits(*got)
        pooled = got[0][0]
        assert (pooled == 0.0).all()
        assert np.signbit(pooled[0]).all() and not np.signbit(pooled[1, 2]).any()

    @pytest.mark.parametrize("k", [12, 16])
    def test_edge_mlp_equals_wired_chain(self, k):
        # The edge MLP of an edge convolution: per-edge rows, per-reference
        # rows added over k, relu, output layer, max over k.
        g = rng(120 + k)
        e = g.normal(size=(2, 3, k, 4))
        e[:, :, 3] = e[:, :, 7]
        arrays = [g.normal(size=(2, 3, 5)), g.normal(size=(4, 6)),
                  g.normal(size=(5, 6)), g.normal(size=(6,)),
                  g.normal(size=(6, 5)), g.normal(size=(5,))]
        got = []
        for fused in (True, False):
            def build(xi, wb, wa, b0, w1, b1):
                y, per_ref = ad.linear(e, wb), ad.linear(xi, wa, b0)
                if fused:
                    h = ad.relu_inplace(ad.expand_add(y, per_ref))
                    return ad.max_reduce(ad.linear(h, w1, b1), axis=2)
                h = ref.relu(ad.add(y, ref.expand_set(per_ref, k)))
                return ref.max_reduce(ad.linear(h, w1, b1), axis=2)
            got.append(wired_results(build, arrays))
        assert_same_bits(*got)

    @pytest.mark.parametrize("k", [3, 12])
    def test_propagation_relu_and_gather_add_equal_wired_chain(self, k):
        # The align MLP of feature propagation: per-edge code rows, per-row
        # source rows gathered onto the edges, relu, weighted sum over k,
        # output layer. Zero weights and a relu after, so signed zeros reach
        # the backward.
        g = rng(130 + k)
        code = g.normal(size=(2, 5, k, 3))
        idx = g.integers(0, 4, size=(2, 5, k))
        w = g.normal(size=(2, 5, k))
        w[0, 0, 1] = 0.0
        arrays = [g.normal(size=(2, 4, 3)), g.normal(size=(3, 6)),
                  g.normal(size=(3, 6)), g.normal(size=(6,)),
                  g.normal(size=(6, 4)), g.normal(size=(4,))]
        got = []
        for fused in (True, False):
            def build(src, wc, ws, b0, w1, b1):
                y, per_row = ad.linear(code, wc), ad.linear(src, ws, b0)
                if fused:
                    mixed = ad.weighted_sum(
                        ad.relu_inplace(ad.gather_add(y, per_row, idx)), w)
                else:
                    mixed = weighted_sum_chain(
                        ref.relu(ad.add(y, ad.gather_rows(per_row, idx))), w)
                return ref.relu(ad.linear(mixed, w1, b1))
            got.append(wired_results(build, arrays))
        assert_same_bits(*got)

    def test_concat_first_input_equals_wired_chain(self):
        # The align output ahead of [xhat, t], and interpolated features
        # ahead of a skip connection.
        g = rng(140)
        t = g.normal(size=(2, 3, 4, 3))
        arrays = [g.normal(size=(2, 3, 4, 5)), g.normal(size=(5, 5)),
                  g.normal(size=(2, 3, 4, 2)), g.normal(size=(20, 3))]
        got = []
        for cat in (ad.concat, ref.concat):
            def build(x, w, skip, w2):
                xhat = cat([ad.linear(x, w), ad.constant(t)])
                mixed = cat([ad.weighted_sum(xhat, np.full((2, 3, 4), 0.25)),
                             ad.max_reduce(skip, axis=2)])
                return ad.linear(ref.relu(cat([mixed, mixed])), w2)
            got.append(wired_results(build, arrays))
        assert_same_bits(*got)

    def test_taken_node_reads_its_gradient_as_a_wired_node_does(self):
        # relu hands down -0.0 where it masks a negative gradient; the node
        # whose values it released reads 0.0 + g, as Tensor._add_grad
        # stores it.
        seen = []

        def copied(x):
            def bwd(out):
                seen.append(out.grad.copy())
                x._add_grad(out.grad, owned=True)
            return ad._make(x.values.copy(), (x,), bwd, spend=ad._reads_no_values)

        for relu in (ad.relu_inplace, ref.relu):
            x = ad.parameter(np.array([[-1.0, 2.0, -3.0, 4.0]]))
            ad.backward(ref.sum_reduce(ad.scale(relu(copied(x)), -1.0)))
        assert_same_bits(*seen)
        assert np.array_equal(seen[0], [[0.0, -1.0, 0.0, -1.0]])
        assert not np.signbit(seen[0][0, [0, 2]]).any()

    @pytest.mark.parametrize("consumer", ["max_reduce", "concat", "weighted_sum"])
    def test_given_up_buffer_freed_when_consumer_returns(self, consumer,
                                                         no_cyclic_gc):
        g = rng(150)
        x = ad.parameter(g.normal(size=(2, 3, 4, 5)))
        src = ad.parameter(g.normal(size=(2, 6, 5)))
        idx = g.integers(0, 6, size=(2, 3, 4))
        y = ad.linear(x, g.normal(size=(5, 5)))
        probe = weakref.ref(y.values)
        if consumer == "max_reduce":
            out = ad.max_reduce(y, axis=2)
        elif consumer == "concat":
            out = ad.concat([y, x])
        else:
            # The buffer passes through gather_add and relu_inplace in place.
            out = ad.weighted_sum(ad.relu_inplace(ad.gather_add(y, src, idx)),
                                  np.full((2, 3, 4), 0.25))
        assert y.values is None and y.shape == (2, 3, 4, 5)
        assert probe() is None
        ad.backward(project(out))
        assert x.grad is not None

    def test_input_with_an_earlier_consumer_keeps_its_node(self):
        g = rng(160)
        arrays = [g.normal(size=(2, 5, 3)), g.normal(size=(3, 4))]
        got = []
        for pool in (ad.max_reduce, ref.max_reduce):
            def build(x, w):
                y = ad.linear(x, w)
                doubled = ad.scale(y, 2.0)
                return ad.add(pool(y, axis=1), ad.max_reduce(doubled, axis=1))
            got.append(wired_results(build, arrays))
        assert_same_bits(*got)
        x = ad.parameter(arrays[0])
        y = ad.linear(x, arrays[1])
        ad.scale(y, 2.0)
        ad.max_reduce(y, axis=1)
        assert y.values is not None

    def test_later_consumer_of_a_given_up_input_refused(self):
        x = ad.parameter(rng(161).normal(size=(2, 5, 3)))
        y = ad.linear(x, np.eye(3))
        ad.max_reduce(y, axis=1)
        with pytest.raises(ValueError, match="given up"):
            ad.scale(y, 2.0)

    @pytest.mark.parametrize("op", ["relu_inplace", "gather_add", "expand_add",
                                    "max_reduce", "weighted_sum", "concat",
                                    "scale"])
    def test_released_input_refused_before_any_write(self, op):
        # y's buffer lives on as the relu output's, which no refused op may
        # write to.
        g = rng(165)
        y = ad.linear(ad.parameter(g.normal(size=(2, 3, 4, 5))),
                      g.normal(size=(5, 5)))
        relued = ad.relu_inplace(y)
        before = relued.values.copy()
        z = ad.parameter(g.normal(size=(2, 3, 5)))
        calls = {
            "relu_inplace": lambda: ad.relu_inplace(y),
            "gather_add": lambda: ad.gather_add(
                y, ad.parameter(np.ones((2, 6, 5))), g.integers(0, 6, (2, 3, 4))),
            "expand_add": lambda: ad.expand_add(y, z),
            "max_reduce": lambda: ad.max_reduce(y, axis=2),
            "weighted_sum": lambda: ad.weighted_sum(y, np.full((2, 3, 4), 0.25)),
            "concat": lambda: ad.concat([y, relued]),
            "scale": lambda: ad.scale(y, 2.0),
        }
        with pytest.raises(ValueError, match="given up"):
            calls[op]()
        assert_same_bits([relued.values], [before])
        assert z._uses == 0

    def test_input_passed_twice_keeps_its_node(self):
        g = rng(162)
        arrays = [g.normal(size=(2, 3)), g.normal(size=(3, 3))]
        got = []
        for cat in (ad.concat, ref.concat):
            got.append(wired_results(lambda x, w: cat([ad.linear(x, w)] * 2),
                                     arrays))
        assert_same_bits(*got)
        w = np.random.default_rng(99).normal(size=(2, 6))
        assert np.array_equal(got[0][1], (w[:, :3] + w[:, 3:]) @ arrays[1].T)
        y = ad.linear(ad.parameter(arrays[0]), arrays[1])
        ad.concat([y, y])
        assert y.values is not None

    def test_leaf_and_constant_inputs_stay_usable(self):
        g = rng(163)
        x = ad.parameter(g.normal(size=(2, 4, 3)))
        c = ad.constant(g.normal(size=(2, 4, 3)))
        pooled = ad.max_reduce(x, axis=1)
        mixed = ad.concat([c, x])
        summed = ad.weighted_sum(x, np.full((2, 4), 0.5))
        loss = ad.add(ad.add(project(pooled), project(mixed)), project(summed))
        loss = ad.add(loss, project(ad.scale(x, 3.0)))
        ad.backward(loss)
        want = ad.parameter(x.values)
        ref_loss = ad.add(ad.add(project(ref.max_reduce(want, axis=1)),
                                 project(ref.concat([c, want]))),
                          project(ref.sum_reduce(ref.mul(
                              want, ad.constant(np.full((2, 4, 1), 0.5))), axis=1)))
        ad.backward(ad.add(ref_loss, project(ad.scale(want, 3.0))))
        assert np.array_equal(x.grad, want.grad)
        assert c.grad is None

    def test_node_reading_its_own_values_keeps_its_node(self):
        # exp's backward multiplies by its output, so its values cannot be
        # released.
        def exp(x):
            def bwd(out):
                x._add_grad(out.grad * out.values, owned=True)
            return ad._make(np.exp(x.values), (x,), bwd)

        arrays = [rng(164).normal(size=(2, 5, 3))]
        got = [wired_results(lambda x: pool(exp(x), axis=1), arrays)
               for pool in (ad.max_reduce, ref.max_reduce)]
        assert_same_bits(*got)
        x = ad.parameter(arrays[0])
        e = exp(x)
        ad.max_reduce(e, axis=1)
        assert e.values is not None


class TestTakeOverFiniteDifferences:
    """The chains that release given-up values, against central differences.
    Kept apart from the acceptance gradient checks, whose shared draw stream
    a new probe would shift."""

    def test_max_over_set_mlp(self):
        g = rng(170)
        c = gapped(g, (2, 3, 12, 4), axis=2)
        check_grads(
            lambda w1, b1, w2: project(ad.max_reduce(
                ad.linear(ad.relu_inplace(ad.linear(c, w1, b1)), w2), axis=2)),
            [g.normal(size=(4, 6)), g.normal(size=(6,)), g.normal(size=(6, 5))])

    def test_edge_mlp(self):
        g = rng(171)
        e = g.normal(size=(2, 3, 6, 4))
        check_grads(
            lambda xi, wb, wa: project(ad.max_reduce(ad.relu_inplace(
                ad.expand_add(ad.linear(e, wb), ad.linear(xi, wa))), axis=2)),
            [g.normal(size=(2, 3, 5)), g.normal(size=(4, 5)),
             g.normal(size=(5, 5))])

    def test_propagation_align(self):
        g = rng(172)
        code = g.normal(size=(2, 5, 3, 3))
        idx = g.integers(0, 4, size=(2, 5, 3))
        w = g.normal(size=(2, 5, 3))
        check_grads(
            lambda src, wc, ws: project(ad.weighted_sum(ad.relu_inplace(
                ad.gather_add(ad.linear(code, wc), ad.linear(src, ws), idx)), w)),
            [g.normal(size=(2, 4, 3)), g.normal(size=(3, 6)),
             g.normal(size=(3, 6))])

    def test_concat_first_input(self):
        g = rng(173)
        check_grads(
            lambda x, w, skip: project(ad.concat([ad.linear(x, w), skip])),
            [g.normal(size=(2, 3, 4)), g.normal(size=(4, 5)),
             g.normal(size=(2, 3, 2))])


def mlp_of(layers):
    """An `nn.Mlp` that runs the given (w, b) layers."""
    widths = [layers[0][0].values.shape[0]] + [w.values.shape[1] for w, _ in layers]
    mlp = nn.Mlp(widths, rng(0), {}, "mlp")
    mlp.layers = list(layers)
    return mlp


def mlp_max_chain(c, mlp, axis):
    """The chain `ad.mlp_max` stands for, each op a graph node of its own."""
    return ad.max_reduce(mlp(ad.constant(c)), axis)


class TestMlpMax:
    """`ad.mlp_max`, which recomputes the hidden layers in backward, against
    the chain that keeps them: bit for bit in values, signed zeros and every
    gradient, and against central differences."""

    @staticmethod
    def results(op, c, arrays, frozen=(), upstream=None):
        """Values and every parameter gradient of sum(op(...) * upstream);
        the layers listed in `frozen` are constants."""
        params = [ad.parameter(a.copy()) for a in arrays]
        layers = [tuple(ad.constant(t.values) if i in frozen else t
                        for t in params[2 * i:2 * i + 2])
                  for i in range(len(arrays) // 2)]
        out = op(c, mlp_of(layers), 2)
        if upstream is None:
            ad.backward(project(out))
        else:
            ad.backward(ref.sum_reduce(ref.mul(out, ad.constant(upstream))))
        return [out.values] + [p.grad for i, p in enumerate(params)
                               if i // 2 not in frozen]

    @pytest.mark.parametrize("k", [12, 16])
    def test_equals_wired_chain_with_ties(self, k):
        c, weights = mlp_pool(k, 180 + k)
        got = [self.results(op, c, weights) for op in (ad.mlp_max, mlp_max_chain)]
        assert_same_bits(*got)

    def test_signed_zeros(self):
        # Sets of -0.0 and +0.0 rows, a hidden unit that never fires, an
        # output column that is zero on every edge (a tie over all of k)
        # and an upstream gradient holding zeros of both signs.
        c, weights = mlp_pool(12, 185)
        c[1, 0] = -0.0
        c[1, 1, ::2] = 0.0
        c[1, 1, 1::2] = -0.0
        weights[1][2] = -50.0
        weights[2][:, 0] = 0.0
        weights[3][0] = -0.0
        upstream = rng(186).normal(size=(2, 3, 5))
        upstream[0, :, 1] = -0.0
        upstream[1, :, 2] = 0.0
        got = [self.results(op, c, weights, upstream=upstream)
               for op in (ad.mlp_max, mlp_max_chain)]
        assert_same_bits(*got)
        assert (got[0][0][..., 0] == 0.0).all()

    @pytest.mark.parametrize("frozen", [(), (0,), (0, 1)])
    def test_three_layers_and_frozen_lower_layers(self, frozen):
        c, weights = mlp_pool(12, 187)
        g = rng(188)
        weights += [g.normal(size=(5, 3)), g.normal(size=(3,))]
        got = [self.results(op, c, weights, frozen=frozen)
               for op in (ad.mlp_max, mlp_max_chain)]
        assert_same_bits(*got)

    def test_untracked_runs_the_chain(self):
        c, weights = mlp_pool(12, 189)
        mlp = mlp_of([(ad.constant(weights[0]), ad.constant(weights[1])),
                      (ad.constant(weights[2]), ad.constant(weights[3]))])
        out = ad.mlp_max(c, mlp, 2)
        assert not out.needs_grad
        assert out.values.tobytes() == mlp_max_chain(c, mlp, 2).values.tobytes()

    def test_matches_finite_differences(self):
        g = rng(190)
        c = gapped(g, (2, 3, 8, 4), axis=2)
        check_grads(
            lambda w0, b0, w1, b1: project(ad.mlp_max(c, mlp_of([(w0, b0), (w1, b1)]), 2)),
            [g.normal(size=(4, 6)), g.normal(size=(6,)), g.normal(size=(6, 5)),
             g.normal(size=(5,))])
