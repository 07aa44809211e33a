"""Point cloud primitives: normalization and rotation sampling.

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


def max_radius(points: np.ndarray) -> float:
    return float(np.sqrt((points * points).sum(axis=1).max()))


def normalize(cloud: PointCloud) -> PointCloud:
    """Center on the centroid and scale so the farthest point sits at radius 1.

    Raises ValueError when all points coincide (no scale is recoverable).
    """
    pts = cloud.points
    shifted = pts - pts.mean(axis=0)
    radius = max_radius(shifted)
    if radius <= EPS:
        raise ValueError("degenerate cloud: all points coincide, cannot normalize")
    return PointCloud(shifted / radius, cloud.class_label, cloud.part_labels)


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


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Permutation sorting points lexicographically by (x, y, z).

    Used at network entry so every downstream reduction sees a permutation
    independent ordering; exact duplicate rows keep their original relative
    order (the sort is stable), which is what makes the whole pipeline
    bitwise permutation invariant.
    """
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
