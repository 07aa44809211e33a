"""Rotation/normalization primitives against quaternion and closed-form oracles."""
import numpy as np
import pytest

from aecnn import geometry as geo

from oracles import (
    is_rotation_matrix,
    quaternion_from_axis_angle,
    quaternion_rotate,
    rotation_from_axis_angle,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPointCloud:
    def test_shape_and_dtype(self):
        c = geo.PointCloud([[0, 0, 0], [1, 2, 3]])
        assert c.points.dtype == np.float64
        assert len(c) == 2

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            geo.PointCloud(np.zeros((4, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geo.PointCloud(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            geo.PointCloud([[0.0, np.nan, 0.0]])

    def test_part_labels_length_checked(self):
        with pytest.raises(ValueError):
            geo.PointCloud(np.zeros((3, 3)), part_labels=[0, 1])


class TestNormalize:
    def test_centroid_zero_max_radius_one(self):
        pts = rng(1).normal(size=(100, 3)) * 5 + 3
        out = geo.normalize(geo.PointCloud(pts))
        assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
        radii = np.linalg.norm(out.points, axis=1)
        assert radii.max() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        pts = rng(2).normal(size=(50, 3))
        once = geo.normalize(geo.PointCloud(pts))
        twice = geo.normalize(once)
        assert np.allclose(once.points, twice.points, atol=1e-12)

    def test_cancels_scale_and_shift(self):
        # Why training draws no scale or translation augmentation.
        g = rng(14)
        base = geo.normalize(geo.PointCloud(g.normal(size=(40, 3))))
        moved = geo.PointCloud(base.points * g.uniform(2 / 3, 1.5)
                               + g.uniform(-0.2, 0.2, size=3))
        assert np.allclose(geo.normalize(moved).points, base.points, atol=1e-9)

    def test_degenerate_cloud_raises(self):
        with pytest.raises(ValueError):
            geo.normalize(geo.PointCloud(np.ones((5, 3))))

    def test_labels_preserved(self):
        c = geo.PointCloud(rng(3).normal(size=(8, 3)), class_label=2,
                           part_labels=np.arange(8))
        out = geo.normalize(c)
        assert out.class_label == 2
        assert np.array_equal(out.part_labels, np.arange(8))


class TestRodrigues:
    def test_matches_quaternion_oracle(self):
        g = rng(4)
        for _ in range(200):
            axis = g.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = g.uniform(-2 * np.pi, 2 * np.pi)
            ours = geo.rodrigues(axis, angle)
            oracle = rotation_from_axis_angle(axis, angle)
            assert np.allclose(ours, oracle, atol=1e-12)

    def test_known_value_quarter_turn_about_y(self):
        r = geo.rodrigues([0.0, 1.0, 0.0], np.pi / 2)
        assert np.allclose(r @ np.array([1.0, 0.0, 0.0]),
                           [0.0, 0.0, -1.0], atol=1e-12)

    def test_zero_angle_is_identity(self):
        assert np.allclose(geo.rodrigues([1, 0, 0], 0.0), np.eye(3), atol=1e-15)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            geo.rodrigues([1.0, 1.0, 0.0], 0.3)

    def test_composition_matches_angle_sum(self):
        axis = np.array([0.0, 0.0, 1.0])
        a, b = 0.4, 1.1
        assert np.allclose(
            geo.rodrigues(axis, a) @ geo.rodrigues(axis, b),
            geo.rodrigues(axis, a + b), atol=1e-12,
        )


class TestRotationSampling:
    def test_samples_are_rotation_matrices(self):
        g = rng(5)
        for _ in range(100):
            assert is_rotation_matrix(geo.sample_arbitrary_rotation(g))
            assert is_rotation_matrix(geo.sample_y_rotation(g))

    def test_y_rotation_fixes_vertical_axis(self):
        g = rng(6)
        for _ in range(50):
            r = geo.sample_y_rotation(g)
            assert np.allclose(r @ geo.Y_AXIS, geo.Y_AXIS, atol=1e-12)

    def test_axis_directions_isotropic(self):
        # The *axis* distribution is isotropic even though the rotation
        # measure is not Haar; 10^4 unit axes should average out.
        g = rng(7)
        axes = g.normal(size=(10_000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        assert np.linalg.norm(axes.mean(axis=0)) < 0.05

    def test_mean_rotation_is_one_third_identity(self):
        # With a uniform [0, 2pi) angle, E[R] = (1/3) I, so the average of
        # R @ (0,0,1) over many draws converges to (0, 0, 1/3).
        g = rng(8)
        v = np.array([0.0, 0.0, 1.0])
        acc = np.zeros(3)
        n = 10_000
        for _ in range(n):
            acc += geo.sample_arbitrary_rotation(g) @ v
        mean = acc / n
        assert np.linalg.norm(mean - np.array([0.0, 0.0, 1.0 / 3.0])) < 0.05

    def test_bit_reproducible_given_seed(self):
        a = geo.sample_arbitrary_rotation(rng(9))
        b = geo.sample_arbitrary_rotation(rng(9))
        assert np.array_equal(a, b)


class TestApplyRotation:
    """Every caller rotates a cloud as `pts @ R.T`, the row form of R @ p."""

    def test_row_action_matches_column_convention(self):
        g = rng(10)
        pts = g.normal(size=(20, 3))
        axis = g.normal(size=3)
        axis /= np.linalg.norm(axis)
        out = pts @ geo.rodrigues(axis, 0.9).T
        q = quaternion_from_axis_angle(axis, 0.9)
        for i in range(20):
            assert np.allclose(out[i], quaternion_rotate(q, pts[i]), atol=1e-12)

    def test_preserves_pairwise_distances(self):
        g = rng(11)
        pts = g.normal(size=(30, 3))
        out = pts @ geo.sample_arbitrary_rotation(g).T
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(out[:, None] - out[None, :], axis=2)
        assert np.allclose(d0, d1, atol=1e-9)


class TestCanonicalOrder:
    def test_sorts_lexicographically(self):
        pts = np.array([[1, 0, 0], [0, 1, 2], [0, 1, 1], [0, 0, 5]], dtype=float)
        order = geo.canonical_order(pts)
        s = pts[order]
        for i in range(len(s) - 1):
            assert tuple(s[i]) <= tuple(s[i + 1])

    def test_permutation_independent(self):
        g = rng(15)
        pts = g.normal(size=(64, 3))
        perm = g.permutation(64)
        a = pts[geo.canonical_order(pts)]
        b = pts[perm][geo.canonical_order(pts[perm])]
        assert np.array_equal(a, b)
