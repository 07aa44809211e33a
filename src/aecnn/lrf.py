"""Local reference frames and rotation-invariant relative coordinates.

A frame at reference point p with cloud origin o has rows (x, y, z):

    z = (p - o) / |p - o|
    x = unit projection of (m - o) onto the plane normal to z,
        with m an anchor point summarizing the neighborhood
    y = z cross x

Rotating the whole cloud by R rotates every frame axis by R, so coordinates
of neighbors expressed in the frame (and relative rotations between frames)
are exactly rotation invariant. That equivariance is the property the rest
of the package is built on and is tested to 1e-7.
"""
from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

log = logging.getLogger(__name__)

# Degeneracy threshold on intermediate vector norms, in model units.
EPS = 1e-8

ORIGIN = np.zeros(3)


class DegenerateReferenceError(ValueError):
    """Reference point coincides with the origin: no z axis exists."""


class DegenerateAnchorError(ValueError):
    """Anchor projects onto the z axis: no x axis exists."""


class AnchorStrategy(enum.Enum):
    """How the in-plane anchor point is chosen from the neighborhood."""

    MEAN = "mean"
    MAX_PROJECTION = "max_projection"

    @classmethod
    def from_name(cls, name: Union[str, "AnchorStrategy"]) -> "AnchorStrategy":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(
                f"unknown anchor strategy {name!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


@dataclass
class Lrf:
    """Orthonormal right-handed frame rooted at a reference point.

    basis rows are (x, y, z); world -> frame is basis @ (q - origin_point),
    where origin_point is the reference the frame sits at.
    """

    origin: np.ndarray   # (3,) the reference point the frame is rooted at
    basis: np.ndarray    # (3, 3) rows x, y, z

    @property
    def x(self) -> np.ndarray:
        return self.basis[0]

    @property
    def y(self) -> np.ndarray:
        return self.basis[1]

    @property
    def z(self) -> np.ndarray:
        return self.basis[2]


def _neighbor_array(neighbors) -> np.ndarray:
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if neighbors.ndim != 2 or neighbors.shape[1] != 3 or neighbors.shape[0] < 1:
        raise ValueError(f"neighbors must have shape (k, 3), got {neighbors.shape}")
    return neighbors


def anchor_mean(neighbors: np.ndarray) -> np.ndarray:
    """Anchor = barycenter of the neighborhood."""
    return _neighbor_array(neighbors).mean(axis=0)


def anchor_max_projection(neighbors: np.ndarray, reference, origin=ORIGIN) -> np.ndarray:
    """Anchor = neighbor with the largest distance from the z axis.

    The projected distance is measured perpendicular to z = (reference -
    origin); ties resolve to the smallest neighbor index.
    """
    neighbors = _neighbor_array(neighbors)
    origin = np.asarray(origin, dtype=np.float64)
    z, bad_ref = _z_axes(np.asarray(reference, dtype=np.float64), origin)
    _raise_if_degenerate(bad_ref)
    return _farthest_from_axis(neighbors, z, origin)


def compute_lrf(reference, neighbors, origin=ORIGIN,
                strategy: Union[str, AnchorStrategy] = AnchorStrategy.MEAN) -> Lrf:
    """Frame at `reference` for a cloud centered at `origin`.

    Raises DegenerateReferenceError when the reference sits on the origin and
    DegenerateAnchorError when the anchor direction is parallel to z. Callers
    that cannot afford exceptions use compute_lrf_batch, which applies
    deterministic fallback axes instead.
    """
    reference = np.asarray(reference, dtype=np.float64)
    basis, bad_ref, bad_anchor = _frames(reference, _neighbor_array(neighbors),
                                         origin, strategy)
    _raise_if_degenerate(bad_ref, bad_anchor)
    return Lrf(origin=reference.copy(), basis=basis)


def _raise_if_degenerate(bad_ref, bad_anchor=False):
    """Raise for a single frame where compute_lrf_batch would fall back."""
    if bad_ref:
        raise DegenerateReferenceError(
            f"reference within {EPS} of the origin, z axis undefined"
        )
    if bad_anchor:
        raise DegenerateAnchorError(
            f"anchor within {EPS} of the z axis, x axis undefined"
        )


def rir(point, frame: Lrf) -> np.ndarray:
    """Coordinates of `point` in `frame`: basis @ (point - frame.origin)."""
    point = np.asarray(point, dtype=np.float64)
    return frame.basis @ (point - frame.origin)


def relative_rotation(frame_i: Lrf, frame_j: Lrf) -> np.ndarray:
    """Rotation carrying frame_j axes onto frame_i coordinates: E_i @ E_j^T."""
    return frame_i.basis @ frame_j.basis.T


# ---------------------------------------------------------------------------
# batched kernels (network hot path), with deterministic degeneracy fallbacks
# ---------------------------------------------------------------------------

_FALLBACK_Z = np.array([0.0, 0.0, 1.0])
_FALLBACK_X_PRIMARY = np.array([1.0, 0.0, 0.0])
_FALLBACK_X_SECONDARY = np.array([0.0, 1.0, 0.0])


def compute_lrf_batch(references: np.ndarray, neighborhoods: np.ndarray,
                      origin=ORIGIN,
                      strategy: Union[str, AnchorStrategy] = AnchorStrategy.MEAN,
                      counts: Optional[dict] = None) -> np.ndarray:
    """Frames for references (..., 3) with neighborhoods (..., k, 3).

    Returns bases of shape (..., 3, 3), rows (x, y, z). Degenerate rows do
    not raise; they take fixed fallback axes (z -> +z; x -> projected +x,
    then projected +y) and are counted in `counts` and logged, because a
    training batch cannot abort on one bad neighborhood mid-epoch.
    """
    bases, bad_ref, bad_anchor = _frames(references, neighborhoods, origin, strategy)
    n_bad_ref = int(bad_ref.sum())
    n_bad_anchor = int(bad_anchor.sum())
    if counts is not None:
        counts["degenerate_reference"] = counts.get("degenerate_reference", 0) + n_bad_ref
        counts["degenerate_anchor"] = counts.get("degenerate_anchor", 0) + n_bad_anchor
    if n_bad_ref or n_bad_anchor:
        # Anchor fallbacks are routine (self-padded or symmetric neighborhoods);
        # a reference coinciding with the frame origin is worth a warning.
        level = logging.WARNING if n_bad_ref else logging.DEBUG
        log.log(
            level,
            "lrf fallback: %d degenerate references, %d degenerate anchors (of %d)",
            n_bad_ref, n_bad_anchor, bad_ref.size,
        )
    return bases


def _frames(references, neighborhoods, origin, strategy):
    """Bases (..., 3, 3) for references (..., 3) with neighborhoods
    (..., k, 3), plus the degenerate-reference and degenerate-anchor masks
    (...); flagged rows take the fallback axes."""
    references = np.asarray(references, dtype=np.float64)
    neighborhoods = np.asarray(neighborhoods, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    z, bad_ref = _z_axes(references, origin)
    if AnchorStrategy.from_name(strategy) is AnchorStrategy.MEAN:
        m = neighborhoods.mean(axis=-2)
    else:
        m = _farthest_from_axis(neighborhoods, z, origin)
    om = m - origin
    x_dir = om - np.einsum("...d,...d->...", om, z)[..., None] * z
    xn = np.linalg.norm(x_dir, axis=-1, keepdims=True)
    bad_x = xn[..., 0] <= EPS
    x = x_dir / np.where(xn <= EPS, 1.0, xn)
    if bad_x.any():
        x = _fallback_x(x, z, bad_x)
    y = np.cross(z, x)
    return np.stack([x, y, z], axis=-2), bad_ref, bad_x & ~bad_ref


def _z_axes(references: np.ndarray, origin: np.ndarray):
    """Unit axes (..., 3) from origin to references, +z where a reference
    lies within EPS of the origin, and the mask (...) of those references."""
    z_vec = references - origin
    zn = np.linalg.norm(z_vec, axis=-1, keepdims=True)
    bad_ref = zn[..., 0] <= EPS
    z = np.where(bad_ref[..., None], _FALLBACK_Z, z_vec / np.where(zn <= EPS, 1.0, zn))
    return z, bad_ref


def _farthest_from_axis(neighborhoods: np.ndarray, z: np.ndarray,
                        origin: np.ndarray) -> np.ndarray:
    """The first neighbor (..., 3) of each neighborhood farthest from its
    z axis through origin, by perpendicular distance."""
    rel = neighborhoods - origin
    proj = np.einsum("...kd,...d->...k", rel, z)
    perp = rel - proj[..., None] * z[..., None, :]
    dist2 = np.einsum("...kd,...kd->...k", perp, perp)
    pick = dist2.argmax(axis=-1)
    return np.take_along_axis(
        neighborhoods, pick[..., None, None].repeat(3, axis=-1), axis=-2
    )[..., 0, :]


def _fallback_x(x: np.ndarray, z: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Replace flagged x rows by projecting +x (then +y) off the z axis."""
    out = x.copy()
    for axis in (_FALLBACK_X_PRIMARY, _FALLBACK_X_SECONDARY):
        if not bad.any():
            break
        cand = axis - np.einsum("...d,d->...", z, axis)[..., None] * z
        cn = np.linalg.norm(cand, axis=-1, keepdims=True)
        ok = bad & (cn[..., 0] > EPS)
        out = np.where(ok[..., None], cand / np.where(cn <= EPS, 1.0, cn), out)
        bad = bad & ~ok
    return out


def rir_batch(points: np.ndarray, references: np.ndarray,
              bases: np.ndarray) -> np.ndarray:
    """Express points (..., k, 3) in frames (bases (..., 3, 3)) at references."""
    rel = points - references[..., None, :]
    return np.einsum("...ij,...kj->...ki", bases, rel)


def relative_rotation_batch(bases_i: np.ndarray, bases_j: np.ndarray) -> np.ndarray:
    """E_i @ E_j^T for stacked bases; bases_j may carry an extra neighbor axis."""
    if bases_j.ndim == bases_i.ndim + 1:
        return np.einsum("...ij,...kmj->...kim", bases_i, bases_j)
    return np.einsum("...ij,...mj->...im", bases_i, bases_j)
