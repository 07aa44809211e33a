"""Point cloud primitives: normalization, rotation sampling, augmentation.

Conventions used across the package: rotations are right-handed and act on
column vectors (p' = R @ p), the vertical axis is +y, and clouds are
normalized to centroid zero / max radius one before anything downstream
looks at them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Degeneracy threshold in model units (normalized clouds live in the unit ball).
EPS = 1e-8

# Train-time augmentation ranges.
SCALE_RANGE = (2.0 / 3.0, 1.5)
TRANSLATION_LIMIT = 0.2

Y_AXIS = np.array([0.0, 1.0, 0.0])


@dataclass
class PointCloud:
    """Ordered 3D points plus optional class and per-point part labels."""

    points: np.ndarray  # (n, 3) float64
    class_label: Optional[int] = None
    part_labels: Optional[np.ndarray] = None  # (n,) int64, aligned with points

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        self.points = pts
        if self.part_labels is not None:
            labels = np.asarray(self.part_labels, dtype=np.int64)
            if labels.shape != (pts.shape[0],):
                raise ValueError(
                    f"part_labels must have shape ({pts.shape[0]},), got {labels.shape}"
                )
            self.part_labels = labels

    def __len__(self) -> int:
        return self.points.shape[0]

    def copy(self) -> "PointCloud":
        return PointCloud(
            self.points.copy(),
            self.class_label,
            None if self.part_labels is None else self.part_labels.copy(),
        )


def as_points(cloud) -> np.ndarray:
    """Accept a PointCloud or a raw (n, 3) array, return the array view."""
    if isinstance(cloud, PointCloud):
        return cloud.points
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got shape {pts.shape}")
    return pts


def max_radius(points: np.ndarray) -> float:
    return float(np.sqrt((points * points).sum(axis=1).max()))


def normalize(cloud: PointCloud) -> PointCloud:
    """Center on the centroid and scale so the farthest point sits at radius 1.

    Raises ValueError when all points coincide (no scale is recoverable).
    """
    pts = as_points(cloud)
    shifted = pts - pts.mean(axis=0)
    radius = max_radius(shifted)
    if radius <= EPS:
        raise ValueError("degenerate cloud: all points coincide, cannot normalize")
    out = shifted / radius
    if isinstance(cloud, PointCloud):
        return PointCloud(out, cloud.class_label, cloud.part_labels)
    return PointCloud(out)


def cross_product_matrix(axis: np.ndarray) -> np.ndarray:
    """Skew-symmetric K with K @ v == axis x v."""
    x, y, z = np.asarray(axis, dtype=np.float64)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rodrigues(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a unit axis and an angle in radians.

    R = I + sin(angle) K + (1 - cos(angle)) K^2 with K the cross-product
    matrix of the axis. The axis must already be unit length.
    """
    axis = np.asarray(axis, dtype=np.float64)
    if axis.shape != (3,):
        raise ValueError(f"axis must have shape (3,), got {axis.shape}")
    n = float(np.linalg.norm(axis))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"rotation axis must be unit length, got norm {n!r}")
    k = cross_product_matrix(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def sample_arbitrary_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation about a uniformly distributed axis by a uniform [0, 2pi) angle.

    The axis is an isotropic direction (normalized normal draw); the angle is
    uniform, which is deliberately not the Haar measure on SO(3).
    """
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            break
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return rodrigues(v / n, angle)


def rotation_about_y(angle: float) -> np.ndarray:
    return rodrigues(Y_AXIS, angle)


def sample_y_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation about the vertical (+y) axis by a uniform [0, 2pi) angle."""
    return rotation_about_y(rng.uniform(0.0, 2.0 * np.pi))


def apply_scale_translation(cloud, scale: float, translation) -> PointCloud:
    translation = np.asarray(translation, dtype=np.float64)
    if translation.shape != (3,):
        raise ValueError(f"translation must have shape (3,), got {translation.shape}")
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    pts = as_points(cloud) * float(scale) + translation
    if isinstance(cloud, PointCloud):
        return PointCloud(pts, cloud.class_label, cloud.part_labels)
    return PointCloud(pts)


def augment_scale_translate(cloud, rng: np.random.Generator) -> PointCloud:
    """Random uniform scale in [2/3, 1.5] plus per-axis translation in [-0.2, 0.2].

    Applied before normalization in the training pipeline, so the global
    component is mostly undone on purpose; it exists to keep the input
    distribution honest about sensor-style nuisance transforms.
    """
    scale = rng.uniform(SCALE_RANGE[0], SCALE_RANGE[1])
    translation = rng.uniform(-TRANSLATION_LIMIT, TRANSLATION_LIMIT, size=3)
    return apply_scale_translation(cloud, scale, translation)


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Permutation sorting points lexicographically by (x, y, z).

    Used at network entry so every downstream reduction sees a permutation
    independent ordering; exact duplicate rows keep their original relative
    order (the sort is stable), which is what makes the whole pipeline
    bitwise permutation invariant.
    """
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
