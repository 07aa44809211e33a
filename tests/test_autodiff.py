"""Gradient machinery against central finite differences."""
import numpy as np
import pytest

from aecnn import autodiff as ad

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
    return ad.sum_reduce(ad.mul(t, ad.constant(w)))


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
            lambda a, b: project(ad.sub(a, b)),
            [g.normal(size=(3, 4)), g.normal(size=(3, 4))],
        )

    def test_mul_broadcast(self):
        g = rng(62)
        check_grads(
            lambda a, b: project(ad.mul(a, b)),
            [g.normal(size=(2, 3, 4)), g.normal(size=(3, 4))],
        )
        check_grads(
            lambda a, b: project(ad.mul(a, b)),
            [g.normal(size=(3, 1)), g.normal(size=(2, 3, 4))],
        )

    def test_scale_square(self):
        g = rng(63)
        check_grads(
            lambda a: project(ad.square(ad.scale(a, -1.7))),
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
        check_grads(lambda a: project(ad.relu(a)), [x])

    def test_relu_zero_gets_zero_grad(self):
        x = ad.parameter(np.array([0.0, -1.0, 2.0]))
        ad.backward(ad.sum_reduce(ad.relu(x)))
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_relu_values_bitwise_including_signed_zero(self):
        # Odd lengths and a strided view exercise both vector and tail loops.
        g = rng(70)
        x = g.normal(size=(7, 13))
        x[::2, ::3] = -0.0
        x[1::3, 1::2] = 0.0
        for view in (x, x.T, x[:, ::2]):
            want = np.where(view > 0, view, 0.0)
            got = ad.relu(ad.constant(view)).values
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestReductions:
    def test_max_pool_set(self):
        g = rng(67)
        x = gapped(g, (3, 5, 4), axis=1)
        check_grads(lambda a: project(ad.max_pool_set(a)), [x])

    def test_max_reduce_middle_axis(self):
        g = rng(68)
        x = gapped(g, (2, 6, 3), axis=1)
        check_grads(
            lambda a: project(ad.max_reduce(a, axis=1)), [x]
        )

    def test_max_tie_goes_to_first(self):
        x = ad.parameter(np.array([[1.0], [3.0], [3.0]]))  # set of 3 scalars
        ad.backward(ad.sum_reduce(ad.max_pool_set(x)))
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
        # Ties, ties between -0.0 and +0.0, and (checks off) NaN: the tracked
        # max picks argmax's index and returns the value stored there.
        g = rng(72)
        x = g.integers(-2, 3, size=(5, 6, 7)).astype(np.float64)
        x[x == 0] = -0.0
        x[g.random(x.shape) < 0.3] = 0.0
        x[1, 2, 3] = np.nan
        x[3, :, :] = -0.0
        old = ad.set_finite_checks(False)
        try:
            for v in (x, np.nan_to_num(x, nan=-1.0)):
                p = ad.parameter(v)
                out = ad.max_reduce(p, axis=axis)
                am = np.expand_dims(v.argmax(axis=axis), axis)
                want = np.squeeze(np.take_along_axis(v, am, axis), axis=axis)
                assert np.array_equal(out.values, want, equal_nan=True)
                assert np.array_equal(np.signbit(out.values), np.signbit(want))
                ad.backward(ad.sum_reduce(out))
                routed = np.zeros_like(v)
                np.put_along_axis(routed, am, 1.0, axis)
                assert np.array_equal(p.grad, routed)
        finally:
            ad.set_finite_checks(old)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ad.max_pool_set(ad.constant(np.zeros((2, 0, 3))))

    def test_sum_and_mean(self):
        g = rng(69)
        check_grads(lambda a: ad.sum_reduce(a), [g.normal(size=(3, 4))])
        check_grads(lambda a: ad.mean_reduce(a), [g.normal(size=(3, 4))])
        check_grads(
            lambda a: project(ad.sum_reduce(a, axis=1)),
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
            lambda x: project(ad.expand_set(x, 5)),
            [g.normal(size=(2, 3, 4))],
        )
        out = ad.expand_set(ad.constant(np.ones((2, 3))), 4, axis=1)
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
        # strided view, as the prefix gather hands it over, and 40 of the
        # 340 targets receive nothing.
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

    def test_scatter_of_no_rows(self):
        got = ad._scatter_add_rows(4, np.zeros(0, dtype=np.intp), np.zeros((0, 3)))
        assert np.array_equal(got, np.zeros((4, 3)))


def edge_chain(x_i, xhat, t):
    """The edge feature built from expand_set, sub and concat."""
    rep = ad.expand_set(x_i, xhat.values.shape[-2])
    parts = [rep, ad.sub(xhat, rep)]
    if t is not None:
        parts.append(ad.constant(t))
    return ad.concat(parts)


class TestEdgeFeatures:
    def test_matches_finite_differences(self):
        g = rng(90)
        t = g.normal(size=(2, 3, 5, 3))
        check_grads(lambda a, b: project(ad.edge_features(a, b, t)),
                    [g.normal(size=(2, 3, 4)), g.normal(size=(2, 3, 5, 4))])

    @pytest.mark.parametrize("with_t", [False, True])
    def test_equals_concat_chain_bitwise(self, with_t):
        # x_i and xhat are both gathered from one source, as in the network,
        # and xhat also passes through an affine map.
        g = rng(91)
        src0 = g.normal(size=(2, 9, 4))
        w0 = g.normal(size=(4, 4))
        sub = g.integers(0, 9, size=(2, 3))
        graph = g.integers(0, 9, size=(2, 3, 5))
        t = g.normal(size=(2, 3, 5, 3)) if with_t else None
        got = []
        for build in (ad.edge_features, edge_chain):
            src, w = ad.parameter(src0), ad.parameter(w0)
            x_i = ad.gather_rows(src, sub)
            xhat = ad.linear(ad.gather_rows(src, graph), w)
            out = build(x_i, xhat, t)
            ad.backward(project(ad.relu(out)))
            got.append((out.values, src.grad, w.grad))
        for a, b in zip(*got):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_x_i_and_xhat_of_one_tensor(self):
        # xhat repeats x_i itself: both contributions reach one tensor, and
        # neither may alias a buffer the other writes.
        g = rng(92)
        x0 = g.normal(size=(2, 3, 4))
        grads = []
        for build in (ad.edge_features, edge_chain):
            x = ad.parameter(x0)
            ad.backward(project(build(x, ad.expand_set(x, 5), None)))
            grads.append(x.grad)
        assert np.array_equal(grads[0], grads[1])
        w = np.random.default_rng(99).normal(size=(2, 3, 5, 8))
        assert np.allclose(grads[0], w[..., :4].sum(axis=2), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="edge_features"):
            ad.edge_features(ad.constant(np.zeros((2, 3, 4))),
                             ad.constant(np.zeros((2, 3, 5, 6))))


def prefix_chain(src, idx, prefix):
    """The prefix gather built from constant, gather_rows and concat."""
    return ad.concat([ad.constant(prefix), ad.gather_rows(src, idx)])


def weighted_sum_chain(x, w):
    return ad.sum_reduce(ad.mul(x, ad.constant(w[..., None])), axis=2)


class TestPrefixGatherWeightedSum:
    """The fused ops against the op chains they replace, bit for bit."""

    def test_prefix_gather_equals_concat_chain_bitwise(self):
        # x_i and the prefixed rows come from one source, the neighbor
        # indices repeat, and a relu right after the gather masks entries
        # whose incoming gradient is negative, so -0.0 reaches its backward.
        g = rng(93)
        src0 = g.normal(size=(2, 9, 4))
        w0 = g.normal(size=(7, 4))
        sub = g.integers(0, 9, size=(2, 3))
        graph = g.integers(0, 9, size=(2, 3, 5))
        prefix = g.normal(size=(2, 3, 5, 3))
        assert len(np.unique(graph[0])) < graph[0].size
        got = []
        for build in (lambda s, i, p: ad.gather_rows(s, i, prefix=p), prefix_chain):
            src, w = ad.parameter(src0), ad.parameter(w0)
            x_i = ad.gather_rows(src, sub)
            a = build(src, graph, prefix)
            out = ad.edge_features(x_i, ad.linear(ad.relu(a), w))
            ad.backward(project(out))
            got.append((a.values, out.values, src.grad, w.grad))
        a0 = got[0][0]
        wp = np.random.default_rng(99).normal(size=(2, 3, 5, 8))
        g_in = (wp[..., 4:] @ w0.T) * (a0 > 0.0)
        assert (np.signbit(g_in) & (g_in == 0.0))[..., 3:].any()
        assert np.array_equal(a0[..., :3], prefix)
        for a, b in zip(*got):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_prefix_gather_matches_finite_differences(self):
        g = rng(94)
        idx = np.array([[[0, 2], [2, 2]], [[3, 1], [0, 3]]])
        prefix = g.normal(size=(2, 2, 2, 3))
        check_grads(lambda x: project(ad.gather_rows(x, idx, prefix=prefix)),
                    [g.normal(size=(2, 4, 5))])

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
            x = ad.relu(ad.gather_rows(src, nn3))
            out = build(x, w)
            ad.backward(project(ad.relu(out)))
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
        with pytest.raises(ValueError, match="prefix"):
            ad.gather_rows(x, np.zeros((1, 3), dtype=int), prefix=np.zeros((1, 2, 1)))
        with pytest.raises(ValueError, match="weighted_sum"):
            ad.weighted_sum(x, np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_constants_raise(self, bad):
        x = ad.parameter(np.zeros((1, 4, 2)))
        prefix = np.zeros((1, 3, 2))
        prefix[0, 1, 0] = bad
        with pytest.raises(FloatingPointError):
            ad.gather_rows(x, np.zeros((1, 3), dtype=int), prefix=prefix)
        w = np.ones((1, 4))
        w[0, 2] = bad
        with pytest.raises(FloatingPointError):
            ad.weighted_sum(x, w)


class TestStandardize:
    def test_forward_statistics(self):
        g = rng(74)
        x = g.normal(size=(2, 7, 5)) * 3 + 1
        out = ad.standardize(
            ad.constant(x), ad.constant(np.ones(5)), ad.constant(np.zeros(5)),
            axes=(1,),
        )
        assert np.allclose(out.values.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(out.values.std(axis=1), 1.0, atol=1e-3)

    def test_gradients(self):
        g = rng(75)
        check_grads(
            lambda x, ga, be: project(ad.standardize(x, ga, be, axes=(1,))),
            [g.normal(size=(2, 6, 3)), g.uniform(0.5, 2.0, size=3), g.normal(size=3)],
            tol=5e-4,
        )

    def test_two_set_axes(self):
        g = rng(76)
        check_grads(
            lambda x, ga, be: project(ad.standardize(x, ga, be, axes=(1, 2))),
            [g.normal(size=(2, 3, 4, 2)), g.uniform(0.5, 2.0, size=2), g.normal(size=2)],
            tol=5e-4,
        )

    def test_feature_axis_rejected(self):
        with pytest.raises(ValueError):
            ad.standardize(ad.constant(np.zeros((2, 3, 4))), ad.constant(np.ones(4)),
                           ad.constant(np.zeros(4)), axes=(-1,))


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
            return ad.relu(ad.linear(ad.constant(x), ad.constant(w))).values

        assert np.array_equal(run(), run())

    def test_constant_subgraph_allocates_no_grads(self):
        out = ad.linear(ad.constant(np.zeros((2, 3))), ad.constant(np.ones((3, 2))))
        assert not out.needs_grad
        assert out._backward is None

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(ad.relu(x))

    def test_grads_accumulate_across_uses(self):
        x = ad.parameter(np.array([2.0]))
        y = ad.add(ad.square(x), ad.scale(x, 3.0))  # x^2 + 3x
        ad.backward(ad.sum_reduce(y))
        assert np.allclose(x.grad, [2.0 * 2.0 + 3.0])

    def test_finite_check_raises(self):
        old = ad.set_finite_checks(True)
        try:
            with pytest.raises(FloatingPointError):
                ad.Tensor(np.array([np.nan]))
        finally:
            ad.set_finite_checks(old)

    def test_finite_check_can_be_disabled(self):
        old = ad.set_finite_checks(False)
        try:
            t = ad.Tensor(np.array([np.inf]))
            assert np.isinf(t.values).all()
        finally:
            ad.set_finite_checks(old)

    def test_nan_propagates_when_checks_are_off(self):
        # relu keeps a NaN (np.maximum), and both max_reduce paths, the
        # forward-only max and the tracked argmax, pool it into the output.
        old = ad.set_finite_checks(False)
        try:
            x = np.array([[np.nan, -1.0, 2.0], [0.5, -3.0, 1.0]])
            assert np.array_equal(ad.relu(ad.constant(x)).values,
                                  [[np.nan, 0.0, 2.0], [0.5, 0.0, 1.0]],
                                  equal_nan=True)
            for leaf in (ad.constant(x), ad.parameter(x)):
                pooled = ad.max_reduce(ad.relu(leaf), axis=1).values
                assert np.array_equal(pooled, [np.nan, 1.0], equal_nan=True)
        finally:
            ad.set_finite_checks(old)


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
        s = ad.sum_reduce
        ad.backward(ad.add(ad.add(s(ad.add(x, y)), s(ad.scale(x, 3.0))),
                           s(ad.scale(y, 5.0))))
        assert np.array_equal(x.grad, [4.0, 4.0])
        assert np.array_equal(y.grad, [6.0, 6.0])

    def test_sub_same_tensor_gives_zero(self):
        x = ad.parameter(np.array([1.5, -2.0, 0.25]))
        ad.backward(project(ad.sub(x, x)))
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
        h = ad.relu(x)
        w = ad.parameter(np.array([[2.0], [3.0], [5.0]]))
        y = ad.add(ad.sum_reduce(ad.linear(h, w)), ad.sum_reduce(ad.scale(h, 7.0)))
        ad.backward(y)
        assert np.array_equal(x.grad, [[9.0, 0.0, 12.0]])
        assert np.array_equal(w.grad, [[1.0], [0.0], [2.0]])

    def test_negative_zero_contribution_stored_as_positive_zero(self):
        x = ad.parameter(np.array([3.0, -4.0]))
        ad.backward(ad.sum_reduce(ad.scale(x, -0.0)))
        assert np.array_equal(x.grad, [0.0, 0.0])
        assert not np.signbit(x.grad).any()

    def test_constant_operands_get_no_grad(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        c = ad.constant(np.array([3.0, 4.0]))
        d = ad.constant(np.array([5.0, 6.0]))
        ad.backward(ad.sum_reduce(ad.add(ad.mul(x, c), ad.sub(x, d))))
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

    def test_selection_ops_do_not_rescreen(self):
        # Values made while screening was off are not screened again by ops
        # that only select or copy them; the next arithmetic op raises.
        old = ad.set_finite_checks(False)
        try:
            x = ad.constant(np.array([[np.nan, 1.0]]))
        finally:
            ad.set_finite_checks(True)
        try:
            assert np.isnan(ad.relu(x).values[0, 0])
            with pytest.raises(FloatingPointError):
                ad.linear(x, ad.constant(np.ones((2, 1))))
        finally:
            ad.set_finite_checks(old)


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
            h = ad.relu(ad.linear(ad.constant(x), w1, b1))
            h = ad.max_pool_set(h)            # pool neighbors
            h = ad.relu(ad.linear(h, w2, b2))
            h = ad.max_pool_set(h)            # pool refs
            return ad.cross_entropy(ad.linear(h, w3, b3), labels)

        check_grads(build, arrays, tol=1e-3, h=1e-5)
