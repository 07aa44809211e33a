"""Network forward passes: shapes, invariances, gradients, accounting."""
import hashlib

import numpy as np
import pytest

import aecnn.autodiff as ad
import aecnn.geometry as geo
import aecnn.neighbors as nb
from aecnn.config import (
    ConfigError,
    NetworkConfig,
    SaFirstConfig,
    SaNextConfig,
    desk_classification_config,
    desk_segmentation_config,
    paper_scale_config,
)
from aecnn.network import (
    SA_FIRST_BLOCK_ELEMS,
    Model,
    _Level,
    count_operations,
    count_parameters,
)

from oracles import (
    graph_bytes,
    kept_hidden_model,
    one_block_model,
    rotation_from_axis_angle,
    unfactored_model,
)


def tiny_config(**kw) -> NetworkConfig:
    base = dict(
        n_points=32,
        n_classes=3,
        sa_first=SaFirstConfig(n_ref=16, k=8, widths=(8, 16)),
        sa_next=(SaNextConfig(k=4, widths=(16, 24)),),
        head_widths=(16,),
        aeconv1_hidden=8,
        fp_align_hidden=8,
    )
    base.update(kw)
    return NetworkConfig(**base)


def tiny_seg_config(**kw) -> NetworkConfig:
    return tiny_config(n_parts=2, fp_widths=(16, 12), point_head=(8,), **kw)


def random_cloud(rng, n=32):
    pts = rng.normal(size=(n, 3))
    return geo.normalize(geo.PointCloud(pts)).points


def rotations(rng, count):
    for _ in range(count):
        yield geo.sample_arbitrary_rotation(rng)


def first_level(model, cloud):
    """SA-first's level for one cloud, as the forward passes build it."""
    with model._inference():
        pts, _ = model._canonicalize(cloud[None])
        return model._sa_first_batch(pts)


def identity_frames(*shape):
    return np.broadcast_to(np.eye(3), shape + (3, 3))


class TestShapes:
    def test_classify_logits_shape(self):
        rng = np.random.default_rng(0)
        model = Model(tiny_config(), seed=1)
        pts = random_cloud(rng)
        logits = model.predict_logits(pts)
        assert logits.shape == (3,)
        assert np.isfinite(logits).all()

    def test_batch_matches_single(self):
        # Same values up to BLAS rounding; the underlying GEMMs pick
        # different kernels for different batch shapes so bit equality
        # across shapes is not promised (repeat calls at one shape are).
        rng = np.random.default_rng(1)
        model = Model(tiny_config(), seed=1)
        batch = np.stack([random_cloud(rng) for _ in range(3)])
        got = model.predict_logits_batch(batch)
        for i in range(3):
            single = model.predict_logits(batch[i])
            assert np.abs(got[i] - single).max() < 1e-12
        again = model.predict_logits_batch(batch)
        assert np.array_equal(got, again)

    def test_wrong_point_count_rejected(self):
        model = Model(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="32 points"):
            model.predict_logits(np.zeros((16, 3)))

    def test_nonfinite_points_rejected(self):
        # Two NaN points: refused on entry, before FPS or any search runs.
        model = Model(tiny_config(), seed=0)
        pts = random_cloud(np.random.default_rng(3))
        pts[[3, 7]] = np.nan
        with pytest.raises(FloatingPointError):
            model.predict_logits(pts)

    def test_segment_logits_shape(self):
        rng = np.random.default_rng(2)
        model = Model(tiny_seg_config(), seed=1)
        pts = random_cloud(rng)
        out = model.predict_part_logits(pts, class_label=1)
        assert out.shape == (32, 2)
        assert np.isfinite(out).all()

    def test_segment_needs_part_head(self):
        model = Model(tiny_config(), seed=0)
        with pytest.raises(Exception, match="segmentation"):
            model.segment_batch(np.zeros((1, 32, 3)), np.zeros((1, 3)))

    def test_classify_needs_class_head(self):
        cfg = tiny_seg_config()
        model = Model(cfg, seed=0)
        pts = random_cloud(np.random.default_rng(4))
        for run in [lambda: model.classify_batch(pts[None]),
                    lambda: model.predict_logits(pts)]:
            with pytest.raises(ConfigError, match="classification head"):
                run()

    def test_part_logits_reject_bad_class_labels(self, monkeypatch):
        model = Model(tiny_seg_config(), seed=9)             # 3 object classes
        pts = random_cloud(np.random.default_rng(56))
        with monkeypatch.context() as m:
            # Labels are checked before the forward pass starts.
            m.setattr(model, "segment_batch", None)
            for label in [-1, 3, 1.7, True, "1"]:
                with pytest.raises(ValueError, match="class labels"):
                    model.predict_part_logits(pts, label)
            with pytest.raises(ValueError, match="expected 2 class labels"):
                model.predict_part_logits_batch(np.stack([pts, pts]), [0])
        with model._inference():
            via_onehot, _ = model.segment_batch(pts[None], np.eye(3)[[1]])
        for label in [1, np.int64(1)]:
            assert np.array_equal(model.predict_part_logits(pts, label),
                                  via_onehot.values[0])

    def test_segment_onehot_shape_checked(self):
        model = Model(tiny_seg_config(), seed=0)
        with pytest.raises(ValueError, match="one-hot"):
            model.segment_batch(np.zeros((1, 32, 3)), np.zeros((1, 2)))

    def test_ball_search_mode_runs(self):
        rng = np.random.default_rng(3)
        cfg = tiny_config(sa_first=SaFirstConfig(
            n_ref=16, k=8, search="ball", radius=0.7, widths=(8, 16)))
        model = Model(cfg, seed=1)
        logits = model.predict_logits(random_cloud(rng))
        assert np.isfinite(logits).all()

    def test_max_projection_anchor_runs(self):
        rng = np.random.default_rng(4)
        cfg = tiny_config(sa_first=SaFirstConfig(
            n_ref=16, k=8, anchor="max_projection", widths=(8, 16)))
        model = Model(cfg, seed=1)
        assert np.isfinite(model.predict_logits(random_cloud(rng))).all()


class TestRotationInvariance:
    @pytest.mark.parametrize("variant", ["edgeconv", "aeconv1", "aeconv3"])
    def test_classification_invariant(self, variant):
        rng = np.random.default_rng(10)
        model = Model(tiny_config(variant=variant), seed=2)
        pts = random_cloud(rng)
        base = model.predict_logits(pts)
        for rot in rotations(rng, 5):
            dev = np.abs(model.predict_logits(pts @ rot.T) - base).max()
            assert dev < 1e-6, f"{variant}: deviation {dev}"

    def test_aeconv2_conditions_on_raw_frames(self):
        # aeconv2 feeds the frame matrices themselves (not their relative
        # rotation) into its alignment MLP. Frames co-rotate with the cloud,
        # so this variant is structurally not rotation invariant. Kept as a
        # documented property rather than a goal.
        rng = np.random.default_rng(14)
        model = Model(tiny_config(variant="aeconv2"), seed=2)
        pts = random_cloud(rng)
        base = model.predict_logits(pts)
        devs = [np.abs(model.predict_logits(pts @ r.T) - base).max()
                for r in rotations(rng, 5)]
        assert max(devs) > 1e-4

    def test_segmentation_invariant(self):
        rng = np.random.default_rng(11)
        model = Model(tiny_seg_config(), seed=2)
        pts = random_cloud(rng)
        base = model.predict_part_logits(pts, class_label=0)
        for rot in rotations(rng, 4):
            got = model.predict_part_logits(pts @ rot.T, class_label=0)
            assert np.abs(got - base).max() < 1e-6

    def test_absolute_features_are_not_invariant(self):
        # Negative control: world-coordinate inputs with no alignment must
        # move when the cloud rotates, otherwise the invariance tests above
        # would pass vacuously.
        rng = np.random.default_rng(12)
        model = Model(tiny_config(features="absolute", variant="edgeconv"), seed=2)
        pts = random_cloud(rng)
        base = model.predict_logits(pts)
        devs = [np.abs(model.predict_logits(pts @ r.T) - base).max()
                for r in rotations(rng, 5)]
        assert max(devs) > 1e-2


class TestPermutationInvariance:
    def test_classification_bitwise(self):
        rng = np.random.default_rng(20)
        model = Model(tiny_config(), seed=3)
        pts = random_cloud(rng)
        base = model.predict_logits(pts)
        for _ in range(4):
            perm = rng.permutation(32)
            assert np.array_equal(model.predict_logits(pts[perm]), base)

    def test_segmentation_rows_follow_points(self):
        rng = np.random.default_rng(21)
        model = Model(tiny_seg_config(), seed=3)
        pts = random_cloud(rng)
        base = model.predict_part_logits(pts, class_label=1)
        perm = rng.permutation(32)
        got = model.predict_part_logits(pts[perm], class_label=1)
        assert np.array_equal(got, base[perm])


class TestGradients:
    def test_every_parameter_reachable(self):
        rng = np.random.default_rng(30)
        model = Model(tiny_config(variant="aeconv1"), seed=4)
        batch = np.stack([random_cloud(rng) for _ in range(2)])
        labels = np.array([0, 2])
        logits, pens = model.classify_batch(batch)
        assert pens, "aeconv1 must produce an orthogonality penalty"
        loss = model.loss_terms(logits, labels, pens)
        ad.backward(loss)
        for name, p in model.params.items():
            assert p.grad is not None, f"no gradient reached {name}"
            assert np.isfinite(p.grad).all(), f"non-finite gradient at {name}"

    def test_segmentation_parameters_reachable(self):
        rng = np.random.default_rng(31)
        model = Model(tiny_seg_config(), seed=4)
        batch = np.stack([random_cloud(rng) for _ in range(2)])
        onehot = np.eye(3)[[0, 1]]
        labels = rng.integers(0, 2, size=(2, 32))
        logits, pens = model.segment_batch(batch, onehot)
        loss = model.loss_terms(logits, labels, pens)
        ad.backward(loss)
        for name, p in model.params.items():
            assert p.grad is not None, f"no gradient reached {name}"

    def test_loss_gradient_matches_finite_differences(self):
        # End to end probe on a few coordinates. The feature-space graphs are
        # recomputed inside each evaluation, so this also checks that the
        # chosen step does not flip any neighbor selection.
        rng = np.random.default_rng(32)
        model = Model(tiny_config(), seed=5)
        batch = np.stack([random_cloud(rng) for _ in range(2)])
        labels = np.array([1, 0])

        def run():
            logits, pens = model.classify_batch(batch)
            return model.loss_terms(logits, labels, pens)

        loss = run()
        ad.backward(loss)
        h = 1e-5
        for name in ["sa_first.h.w0", "sa_next1.q.w1", "head.w0"]:
            p = model.params[name]
            flat = p.values.reshape(-1)
            for j in rng.choice(flat.size, size=2, replace=False):
                g = p.grad.reshape(-1)[j]
                keep = flat[j]
                flat[j] = keep + h
                up = run().values.item()
                flat[j] = keep - h
                dn = run().values.item()
                flat[j] = keep
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(g), 1e-8)
                assert abs(fd - g) / denom < 1e-3, f"{name}[{j}]: fd {fd} vs {g}"

    def test_inference_mode_restores_grad_tracking(self):
        model = Model(tiny_config(), seed=0)
        model.predict_logits(np.random.default_rng(0).normal(size=(32, 3)))
        assert all(p.needs_grad for p in model.params.values())


class TestWeightManagement:
    def test_values_load_round_trip(self):
        rng = np.random.default_rng(40)
        m1 = Model(tiny_config(), seed=6)
        m2 = Model(tiny_config(), seed=7)
        pts = random_cloud(rng)
        assert not np.array_equal(m1.predict_logits(pts), m2.predict_logits(pts))
        m2.load_values(m1.values())
        assert np.array_equal(m1.predict_logits(pts), m2.predict_logits(pts))

    def test_load_rejects_name_mismatch(self):
        m = Model(tiny_config(), seed=0)
        vals = m.values()
        vals["rogue"] = np.zeros(3)
        with pytest.raises(ValueError, match="rogue"):
            m.load_values(vals)

    def test_segmenter_holds_no_classification_head(self):
        model = Model(tiny_seg_config(), seed=0)
        assert model.head_mlp is None
        assert not [n for n in model.values() if n.startswith("head.")]

    def test_segmenter_weights_ignore_head_widths(self):
        # A segmenter draws no classification head, so its [head] widths
        # size nothing and every weight it does draw keeps its bits.
        a = Model(tiny_seg_config(head_widths=(16,)), seed=3).values()
        b = Model(tiny_seg_config(head_widths=(99, 7)), seed=3).values()
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_load_names_old_layout_head(self):
        # Segmentation checkpoints once held the classification head too.
        seg = Model(tiny_seg_config(), seed=0)
        old = {**seg.values(), **{n: v for n, v in Model(tiny_config()).values().items()
                                  if n.startswith("head.")}}
        with pytest.raises(ValueError, match="unexpected.*head.w0"):
            seg.load_values(old)

    def test_load_rejects_shape_mismatch(self):
        m = Model(tiny_config(), seed=0)
        vals = m.values()
        vals["head.w0"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="head.w0"):
            m.load_values(vals)

    def test_load_rejects_non_finite_values(self):
        # Weights from outside are screened as every new Tensor is, and a
        # refused load replaces none of them.
        m = Model(tiny_config(), seed=0)
        before = m.values()
        vals = Model(tiny_config(), seed=1).values()
        vals["head.w1"][1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite values in head.w1"):
            m.load_values(vals)
        assert all(np.array_equal(before[k], v) for k, v in m.values().items())


class TestFunctionalOps:
    """The network's stages, run on one cloud through Model's own methods."""

    def test_pointnet_kernel_single_neighbor(self):
        # A one-point neighborhood pools to the MLP of that single row; in
        # identity frames the row is the neighbor's offset from its reference.
        model = Model(tiny_config(), seed=8)
        with model._inference():
            pts, _ = model._canonicalize(random_cloud(np.random.default_rng(50))[None])
            ref_idx = nb.fps_batch(pts, 16)
            nb_idx = np.roll(ref_idx, 1, axis=1)[..., None]
            level = model._first_level(pts, nb_idx, identity_frames(1, 16), ref_idx)
            offsets = pts[0, nb_idx[0, :, 0]] - pts[0, ref_idx[0]]
            via = model.h_mlp(ad.constant(offsets)).values
        assert level.feat.values.shape == (1, 16, 16)
        assert np.array_equal(level.feat.values[0], via)

    def test_sa_first_output(self):
        rng = np.random.default_rng(50)
        model = Model(tiny_config(), seed=9)
        level = first_level(model, random_cloud(rng))
        assert level.pts.shape == (1, 16, 3)
        assert level.feat.values.shape == (1, 16, 16)
        gram = level.bases @ level.bases.swapaxes(-1, -2)
        assert np.allclose(gram, identity_frames(1, 16), atol=1e-9)

    def test_sa_next_quarters_and_widens(self):
        rng = np.random.default_rng(51)
        model = Model(tiny_config(), seed=9)
        first = first_level(model, random_cloud(rng))
        with model._inference():
            out = model._sa_next_batch(first, 0, [])
        assert out.pts.shape == (1, 4, 3)
        assert out.feat.values.shape == (1, 4, 24)

    def test_aligned_edge_conv_on_self_graph(self):
        rng = np.random.default_rng(52)
        model = Model(tiny_config(variant="aeconv3"), seed=9)
        first = first_level(model, random_cloud(rng))
        feat = first.feat.values
        graph = nb.knn_features_batch(feat, feat, 4)
        with model._inference():
            out = model._edge_conv(first, np.arange(16)[None], graph, 0, []).feat.values
        assert out.shape == (1, 16, 24)
        assert np.isfinite(out).all()


def align_one(model, x, basis_i, basis_j, t):
    """Block 0's alignment of one neighbor feature x into frame basis_i."""
    out = model._align_edge_features(
        model.block_mlps[0][0], ad.constant(np.reshape(x, (1, 1, -1))),
        np.zeros((1, 1, 1), dtype=np.intp), basis_i.reshape(1, 1, 3, 3),
        basis_j.reshape(1, 1, 1, 3, 3), np.reshape(t, (1, 1, 1, 3)), [],
    )
    return out.values.reshape(-1)


class TestAlignFeature:
    def test_plain_edgeconv_is_identity(self):
        model = Model(tiny_config(variant="edgeconv"), seed=10)
        x = np.arange(16.0)
        got = align_one(model, x, np.eye(3), np.eye(3), np.zeros(3))
        assert np.array_equal(got, x)

    def test_aeconv3_shape_and_determinism(self):
        model = Model(tiny_config(variant="aeconv3"), seed=10)
        rng = np.random.default_rng(60)
        x = rng.normal(size=16)
        rot = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.4)
        t = rng.normal(size=3)
        a = align_one(model, x, np.eye(3), rot.T, t)
        b = align_one(model, x, np.eye(3), rot.T, t)
        assert a.shape == (16,)
        assert np.array_equal(a, b)

    def test_aeconv1_applies_predicted_matrix(self):
        model = Model(tiny_config(variant="aeconv1"), seed=10)
        rng = np.random.default_rng(61)
        x = rng.normal(size=16)
        got = align_one(model, x, np.eye(3), np.eye(3), np.zeros(3))
        # Doubling x must double the output: the alignment is linear in x.
        got2 = align_one(model, 2 * x, np.eye(3), np.eye(3), np.zeros(3))
        assert np.allclose(got2, 2 * got, atol=1e-12)

    def test_aeconv2_with_frames(self):
        model = Model(tiny_config(variant="aeconv2"), seed=10)
        got = align_one(model, np.ones(16), np.eye(3), np.eye(3)[[1, 2, 0]],
                        np.zeros(3))
        assert got.shape == (16,)


def propagate(model, coarse_pts, coarse_feat, fine_pts, skip):
    """FP stage 1 of coarse rows onto fine points, all frames the identity."""
    align_mlp, mlp = model.fp_stages[0]
    coarse = _Level(pts=coarse_pts[None], bases=identity_frames(1, len(coarse_pts)),
                    feat=ad.constant(coarse_feat[None]))
    with model._inference():
        out = model._propagate(coarse, fine_pts[None], identity_frames(1, len(fine_pts)),
                               ad.constant(skip[None]), align_mlp, mlp, [])
    return out.values[0]


class TestFeaturePropagation:
    def test_interpolates_onto_fine_points(self):
        rng = np.random.default_rng(70)
        model = Model(tiny_seg_config(), seed=11)
        coarse_pts = rng.normal(size=(4, 3))
        coarse_feat = rng.normal(size=(4, 24))
        fine_pts = rng.normal(size=(10, 3))
        skip = rng.normal(size=(10, 16))
        out = propagate(model, coarse_pts, coarse_feat, fine_pts, skip)
        assert out.shape == (10, 16)
        assert np.isfinite(out).all()

    def test_coincident_point_dominates(self):
        # A fine point sitting exactly on a coarse point gets weights that
        # collapse onto that neighbor (inverse distance with a tiny floor).
        rng = np.random.default_rng(71)
        model = Model(tiny_seg_config(), seed=11)
        coarse_pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [0, 5.0, 0], [0, 0, 5.0]])
        out = propagate(model, coarse_pts, rng.normal(size=(4, 24)),
                        np.zeros((1, 3)), np.zeros((1, 16)))
        assert np.isfinite(out).all()


class TestAccounting:
    def test_aeconv1_has_more_parameters_than_aeconv3(self):
        c1 = desk_classification_config()
        c1.variant = "aeconv1"
        c3 = desk_classification_config()
        c3.variant = "aeconv3"
        n1 = count_parameters(c1)
        n3 = count_parameters(c3)
        assert n1 > n3

    def test_parameter_count_matches_arrays(self):
        model = Model(tiny_config(), seed=0)
        total = sum(v.size for v in model.values().values())
        assert model.parameter_count() == total == count_parameters(tiny_config())

    def test_operation_counts_positive_and_ordered(self):
        c1 = tiny_config(variant="aeconv1")
        c3 = tiny_config(variant="aeconv3")
        ce = tiny_config(variant="edgeconv")
        ops1 = count_operations(c1)
        ops3 = count_operations(c3)
        opse = count_operations(ce)
        assert ops1["total_macs"] > ops3["total_macs"] > opse["total_macs"]
        assert ops1["flops"] == 2 * ops1["total_macs"]

    def test_parameter_counts(self):
        # A segmenter counts no classification head: 25,220 fewer at desk
        # scale, 395,012 fewer at paper scale with four parts.
        assert count_parameters(desk_classification_config()) == 145_924
        assert count_parameters(desk_segmentation_config()) == 208_418
        assert count_parameters(paper_scale_config(n_parts=4)) == 905_348

    def test_mac_totals_at_desk_and_paper_scale(self):
        # Per-cloud totals the README, the ROADMAP and ablate's MAC column
        # quote; test_count_matches_executed_linear_macs ties the count to
        # what runs on tiny configs.
        totals = [count_operations(c)["total_macs"] for c in (
            desk_classification_config(), desk_segmentation_config(),
            paper_scale_config(), paper_scale_config(n_parts=4))]
        assert totals == [9_050_624, 18_495_488, 501_744_640, 733_478_912]

    def test_segmentation_sections_counted(self):
        ops = count_operations(tiny_seg_config())
        assert "fp1" in ops and "fp2" in ops and "point_head" in ops
        assert all(v > 0 for v in ops.values())

    @pytest.mark.parametrize("variant", ["edgeconv", "aeconv1", "aeconv2", "aeconv3"])
    @pytest.mark.parametrize("seg", [False, True])
    def test_count_matches_executed_linear_macs(self, monkeypatch, seg, variant):
        # Count what ad.linear and ad.edge_matvec (AEConv1's matrix product)
        # really multiply for one cloud, from their argument shapes; a built
        # but unused head must not be counted.
        cfg = (tiny_seg_config if seg else tiny_config)(variant=variant)
        model = Model(cfg, seed=0)
        executed = []
        real_linear, real_matvec = ad.linear, ad.edge_matvec

        def rows(x):
            return int(np.prod(np.shape(getattr(x, "values", x))[:-1], dtype=np.int64))

        def counting_linear(x, w, b=None):
            fin, fout = w.values.shape
            executed.append(rows(x) * fin * fout)
            return real_linear(x, w, b)

        def counting_matvec(m, x):
            f = np.shape(x.values)[-1]
            executed.append(rows(x) * f * f)
            return real_matvec(m, x)

        monkeypatch.setattr(ad, "linear", counting_linear)
        monkeypatch.setattr(ad, "edge_matvec", counting_matvec)
        pts = random_cloud(np.random.default_rng(90))[None]
        if seg:
            model.predict_part_logits_batch(pts, np.array([1]))
        else:
            model.predict_logits_batch(pts)
        assert sum(executed) == count_operations(cfg)["total_macs"]


class TestForwardOnlyMatchesTracked:
    """The grad-free fast paths of max_reduce and relu give the tracked
    values, and both passes run SA-first in the same reference blocks,
    including a ragged last block."""

    def test_classification(self):
        model = Model(tiny_config(), seed=6)
        rng = np.random.default_rng(91)
        pts = np.stack([random_cloud(rng) for _ in range(3)])
        tracked, _ = model.classify_batch(pts)
        assert tracked.needs_grad
        assert np.array_equal(model.predict_logits_batch(pts), tracked.values)

    def test_desk_segmentation(self):
        cfg = desk_segmentation_config()
        model = Model(cfg, seed=7)
        rng = np.random.default_rng(92)
        pts = np.stack([random_cloud(rng, cfg.n_points) for _ in range(2)])
        labels = np.array([0, 1])
        onehot = np.eye(cfg.n_classes)[labels]
        tracked, _ = model.segment_batch(pts, onehot)
        assert tracked.needs_grad
        assert np.array_equal(model.predict_part_logits_batch(pts, labels),
                              tracked.values)

    @staticmethod
    def assert_splits_ragged(model, pts):
        """SA-first runs in more than two blocks of references with a ragged
        last one, in a tracked pass and forward only, and both give the
        same logits. Returns the block count."""
        cfg = model.config
        step = SA_FIRST_BLOCK_ELEMS // (
            pts.shape[0] * cfg.sa_first.k * max(cfg.sa_first.widths))
        blocks = -(-cfg.sa_first.n_ref // step)
        assert blocks > 2 and cfg.sa_first.n_ref % step
        want = [step] * (blocks - 1) + [cfg.sa_first.n_ref % step]
        seen = []

        def after_first(y, rest=model.h_mlp.after_first):
            seen.append(y.shape[1])
            return rest(y)

        model.h_mlp.after_first = after_first
        tracked, _ = model.classify_batch(pts)
        assert tracked.needs_grad and seen == want
        seen.clear()
        assert np.array_equal(model.predict_logits_batch(pts), tracked.values)
        assert seen == want
        return blocks

    def test_paper_scale_in_reference_blocks(self):
        cfg = paper_scale_config()
        model = Model(cfg, seed=8)
        pts = random_cloud(np.random.default_rng(93), cfg.n_points)[None]
        assert self.assert_splits_ragged(model, pts) == 7

    def test_desk_in_reference_blocks(self):
        cfg = desk_classification_config()
        model = Model(cfg, seed=9)
        rng = np.random.default_rng(94)
        pts = np.stack([random_cloud(rng, cfg.n_points) for _ in range(24)])
        self.assert_splits_ragged(model, pts)


def loss_and_grads(model, seed, batch=3):
    """Tracked logits and every parameter gradient of one loss on `batch`
    clouds, labelled 0, 1, 2, ... in turn."""
    cfg = model.config
    rng = np.random.default_rng(seed + 200)
    pts = np.stack([random_cloud(rng, cfg.n_points) for _ in range(batch)])
    labels = np.arange(batch) % cfg.n_classes
    if cfg.n_parts:
        logits, pens = model.segment_batch(pts, np.eye(cfg.n_classes)[labels])
        targets = rng.integers(0, cfg.n_parts, size=(batch, cfg.n_points))
    else:
        logits, pens = model.classify_batch(pts)
        targets = labels
    ad.backward(model.loss_terms(logits, targets, pens))
    return logits.values, {name: p.grad for name, p in model.params.items()}


class TestFactoredMatchesUnfactored:
    """The first layers factored per source row, per reference and, in
    propagation, per fine point, against every edge multiplying its whole
    concatenated input (oracles.unfactored_model): same logits and
    parameter gradients up to rounding."""

    @pytest.mark.parametrize("variant", ["edgeconv", "aeconv1", "aeconv2", "aeconv3"])
    @pytest.mark.parametrize("seg", [False, True])
    def test_logits_and_gradients_agree(self, seg, variant):
        cfg = (tiny_seg_config if seg else tiny_config)(variant=variant)
        logits, grads = loss_and_grads(Model(cfg, seed=5), 5)
        want, want_grads = loss_and_grads(unfactored_model(cfg, seed=5), 5)
        assert np.abs(logits - want).max() <= 1e-12 * np.abs(want).max()
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            assert g is not None and want_grads[name] is not None, name
            scale = np.abs(want_grads[name]).max()
            assert np.abs(g - want_grads[name]).max() <= 1e-12 * scale, name


class TestBlockedMatchesOneBlock:
    """SA-first in blocks of references against the whole set as one graph
    (oracles.one_block_model). At batch 8 the desk SA-first runs in a block
    of 61 references and one of 3. The logits and every gradient outside
    SA-first's MLP are the same bit for bit; that MLP's weight and bias
    gradients are sums over the blocks, so they agree up to rounding
    (measured: at most 1.9e-15 relative to each gradient's largest entry
    over the four variants, both heads).

    The segmenters keep the desk SA-first and narrow what follows: at the
    desk widths AEConv1's first propagation stage alone predicts a 192 x 192
    matrix per edge, 450 MB at batch 8.
    """

    @pytest.mark.parametrize("variant", ["edgeconv", "aeconv1", "aeconv2", "aeconv3"])
    @pytest.mark.parametrize("seg", [False, True])
    def test_logits_bitwise_and_gradients_agree(self, seg, variant):
        cfg = desk_classification_config(variant=variant)
        if seg:
            cfg = desk_segmentation_config(
                variant=variant, sa_next=(SaNextConfig(12, (24, 32)),),
                fp_widths=(24, 16), point_head=(16,))
        step = SA_FIRST_BLOCK_ELEMS // (8 * cfg.sa_first.k * max(cfg.sa_first.widths))
        assert (step, cfg.sa_first.n_ref - step) == (61, 3)
        logits, grads = loss_and_grads(Model(cfg, seed=11), 11, batch=8)
        want, want_grads = loss_and_grads(one_block_model(cfg, seed=11), 11, batch=8)
        assert np.array_equal(logits, want)
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            if not name.startswith("sa_first.h."):
                assert np.array_equal(g, want_grads[name]), name
            scale = np.abs(want_grads[name]).max()
            assert np.abs(g - want_grads[name]).max() <= 1e-12 * scale, name


class TestRecomputeMatchesKeptHidden:
    """SA-first's blocks through `ad.mlp_max`, which recomputes each block's
    hidden layer in backward, against the chain of graph nodes that keeps it
    (oracles.kept_hidden_model): logits and every parameter gradient,
    sa_first.h.* included, bit for bit. At batch 8 the desk SA-first runs
    in two blocks, of 61 and 3 references; the segmenters are narrowed as
    in TestBlockedMatchesOneBlock."""

    @pytest.mark.parametrize("seg, variant, features", [
        *[(seg, variant, "rir") for seg in (False, True)
          for variant in ("edgeconv", "aeconv1", "aeconv2", "aeconv3")],
        (False, "aeconv3", "absolute"),
    ])
    def test_logits_and_gradients_bitwise(self, seg, variant, features):
        cfg = desk_classification_config(variant=variant, features=features)
        if seg:
            cfg = desk_segmentation_config(
                variant=variant, sa_next=(SaNextConfig(12, (24, 32)),),
                fp_widths=(24, 16), point_head=(16,))
        logits, grads = loss_and_grads(Model(cfg, seed=13), 13, batch=8)
        want, want_grads = loss_and_grads(kept_hidden_model(cfg, seed=13), 13,
                                          batch=8)
        assert logits.tobytes() == want.tobytes()
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            assert g is not None and g.tobytes() == want_grads[name].tobytes(), name


class TestGoldenOutputs:
    """SHA-256 of float64 logits and of one step's gradients at fixed seeds.

    Recorded before the kNN, FPS and SA-first forward paths were rewritten
    for speed, and equal at one and two BLAS threads. A digest that moves
    means some output bit moved: a change that means to move it says which
    and why. The digests belong to the float64 kernels of the numpy and
    OpenBLAS build they were recorded on; another BLAS kernel may round
    differently. The segmentation gradient digest moved once, when
    segmenters stopped holding the classification head: it is the earlier
    digest with the head's zero gradients left out. Both segmentation
    digests moved again when segmenters stopped drawing that head's weights
    from the seed at all: the FP stages and the point head, drawn after it,
    now start from other values. The classification digests did not move.

    All four digests moved once more when the first layers of the edge MLP
    and the align MLP were factored (the x_j rows of the align weight and
    its bias per source row, the x_i rows of the edge weight and its bias
    per reference, and AEConv2/3 propagation interpolating the align MLP's
    hidden layer). Only the summation order of those layers changed. The new
    digests were derived by running this same code on the factored network,
    at one and at two BLAS threads, after TestFactoredMatchesUnfactored had
    shown logits and every gradient within 1e-12 (measured: about 1e-15) of
    the unfactored forward. That forward, oracles.unfactored_model, still
    gives the old digests bit for bit, and
    test_unfactored_oracle_keeps_old_digests pins them there.

    All four moved once more when the edge MLP stopped forming xhat - x_i:
    its x_i rows now multiply x_i by w_a - w_b once per reference, and its
    per-edge rows read [xhat, t] itself. The first layer is the same affine
    map, so only rounding changed. The new digests were derived as before:
    this code at one and at two BLAS threads, after
    TestFactoredMatchesUnfactored had shown logits and every gradient
    within 1e-12 (measured: at most 1.8e-15 over the four variants, both
    heads) of the unchanged unfactored oracle, whose digests did not move.
    """

    OLD = {
        "classification": (
            "cc3d364cd8955ba03bd92ce6859478bc7ce84dcf605ced24cd4a47764238b8fc",
            "67d244e42ae24321f71f000491b9dfd5df350816aee9103078873f4c593546b8",
        ),
        "segmentation": (
            "c0a4d33d1b19927617547a84038cb276232e0efdb65291e540b657ae24e532aa",
            "17a07adb847e5aa5746f492246924e1afb436ff58be54e7798a5f48f3d890266",
        ),
    }

    @staticmethod
    def digest(arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return h.hexdigest()

    def run(self, cfg, seed, build=Model):
        model = build(cfg, seed=seed)
        rng = np.random.default_rng(seed + 100)
        pts = np.stack([random_cloud(rng) for _ in range(3)])
        labels = np.array([0, 1, 2])
        if cfg.n_parts:
            scores = model.predict_part_logits_batch(pts, labels)
            targets = rng.integers(0, cfg.n_parts, size=(3, cfg.n_points))
            logits, pens = model.segment_batch(pts, np.eye(cfg.n_classes)[labels])
        else:
            scores = model.predict_logits_batch(pts)
            targets = labels
            logits, pens = model.classify_batch(pts)
        ad.backward(model.loss_terms(logits, targets, pens))
        grads = [np.zeros_like(p.values) if p.grad is None else p.grad
                 for p in model.params.values()]
        return self.digest([scores]), self.digest(grads)

    def test_classification(self):
        assert self.run(tiny_config(), 3) == (
            "37fbce5485262890ceae36ba76a6896a3e7672b8786f032b3d8cd625a278cacc",
            "18e8ac7481a8741fc208bd973285f808469b60d3fddea44d5cfaf9db23ec3565",
        )

    def test_segmentation(self):
        assert self.run(tiny_seg_config(), 4) == (
            "b54f0b7bc893e55d31e1a7b4554ecf20acb60a0af4a1334d2f0ec9107cea2193",
            "bd55934cbb1176be134db100fde22ae4093646be789189e5343576ca336b87df",
        )

    def test_unfactored_oracle_keeps_old_digests(self):
        assert self.run(tiny_config(), 3, unfactored_model) == self.OLD["classification"]
        assert self.run(tiny_seg_config(), 4, unfactored_model) == self.OLD["segmentation"]


class TestLrfFallbackSurfacing:
    def test_degenerate_neighborhoods_counted_not_fatal(self):
        # A cloud with a tight duplicate cluster forces at least one frame
        # through the fallback path; the forward pass must still finish.
        cfg = tiny_config()
        model = Model(cfg, seed=12)
        rng = np.random.default_rng(80)
        pts = random_cloud(rng)
        pts[1:9] = pts[0]  # 9 coincident points
        logits = model.predict_logits(pts)
        assert np.isfinite(logits).all()
        assert sum(model.lrf_fallbacks.values()) > 0


class TestGraphMemory:
    """Bytes a tracked desk loss at batch 32 holds until backward, summed
    over the distinct buffers its graph reaches (oracles.graph_bytes).

    Each set MLP's output before its max over k, every input of a concat,
    each max's output pooled again by another max and the relu ahead of
    propagation's weighted sum are given up to the op that reads them,
    which releases their values. When every op held its inputs, the same
    graphs held 62,177,880 and 122,739,832 bytes. The totals were
    32,031,320 and 71,490,680 while SA-first ran tracked passes as one
    block, held only the first input of a concat and no max output could be
    released. Running SA-first in blocks holds the same bytes: each block's
    input is its own contiguous array, which `linear` does not copy, and
    the pooled blocks are released by the concat that joins them. The
    classifier's last-level features, pooled by the global max, are now
    released (32 x 4 x 192 float64 values, 196,608 bytes), and concat keeps
    its offsets as Python ints (48 and 96 bytes of index arrays). That
    gave 31,834,664 and 71,490,584 bytes.

    A tracked SA-first block (`ad.mlp_max`) now keeps only its RIR input,
    the winning rows of its max and the weights, and recomputes its hidden
    layer in backward: the (32, 64, 16, 32) hidden layer, 8,388,608 bytes,
    is no longer held. Every tracked max keeps its winning rows as uint8
    rather than intp, 7 bytes less per pooled value: 1,591,296 bytes for
    the classifier and 1,548,288 for the segmenter, which has no global
    max. The totals depend on shapes alone, not on the clouds.
    """

    @pytest.mark.parametrize("seg, want", [(False, 21_854_760),
                                           (True, 61_553_688)])
    def test_desk_loss_graph_bytes(self, seg, want):
        cfg = desk_segmentation_config() if seg else desk_classification_config()
        model = Model(cfg, seed=0)
        rng = np.random.default_rng(20)
        pts = np.stack([random_cloud(rng, cfg.n_points) for _ in range(32)])
        labels = rng.integers(0, cfg.n_classes, size=32)
        if seg:
            logits, pens = model.segment_batch(pts, np.eye(cfg.n_classes)[labels])
            labels = rng.integers(0, cfg.n_parts, size=(32, cfg.n_points))
        else:
            logits, pens = model.classify_batch(pts)
        assert graph_bytes(model.loss_terms(logits, labels, pens)) == want
