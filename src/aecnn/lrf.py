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
from typing import Optional, Union

import numpy as np

# Degeneracy threshold on intermediate vector norms, in model units.
EPS = 1e-8

ORIGIN = np.zeros(3)


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


# ---------------------------------------------------------------------------
# frame kernels (network hot path), with deterministic degeneracy fallbacks
# ---------------------------------------------------------------------------

_FALLBACK_Z = np.array([0.0, 0.0, 1.0])
_FALLBACK_X_PRIMARY = np.array([1.0, 0.0, 0.0])
_FALLBACK_X_SECONDARY = np.array([0.0, 1.0, 0.0])


def _check_frame_shapes(points, references, bases=None):
    """Refuse points (..., k, 3) with k >= 1, references (..., 3) and bases
    (..., 3, 3) that do not share one leading shape."""
    if not (references.shape[-1:] == (3,) and points.shape[-2:-1] >= (1,)
            and points.shape[:-2] + points.shape[-1:] == references.shape
            and (bases is None or bases.shape == references.shape + (3,))):
        got = [a.shape for a in (points, references, bases) if a is not None]
        raise ValueError(f"expected points (..., k, 3) with k >= 1, references (..., 3) "
                         f"and bases (..., 3, 3) of one leading shape, got {got}")


def compute_lrf_batch(references: np.ndarray, neighborhoods: np.ndarray,
                      origin=ORIGIN,
                      strategy: Union[str, AnchorStrategy] = AnchorStrategy.MEAN,
                      counts: Optional[dict] = None) -> np.ndarray:
    """Frames for references (..., 3) with neighborhoods (..., k, 3).

    Returns bases of shape (..., 3, 3), rows (x, y, z). Degenerate rows do
    not raise; they take fixed fallback axes (z -> +z; x -> projected +x,
    then projected +y) and are counted in `counts`, because a training
    batch cannot abort on one bad neighborhood mid-epoch.
    """
    references = np.asarray(references, dtype=np.float64)
    neighborhoods = np.asarray(neighborhoods, dtype=np.float64)
    _check_frame_shapes(neighborhoods, references)
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
    if counts is not None:
        for key, bad in (("degenerate_reference", bad_ref),
                         ("degenerate_anchor", bad_x & ~bad_ref)):
            counts[key] = counts.get(key, 0) + int(bad.sum())
    return np.stack([x, np.cross(z, x), z], axis=-2)


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
    _check_frame_shapes(points, references, bases)
    rel = points - references[..., None, :]
    return np.einsum("...ij,...kj->...ki", bases, rel)


def relative_rotation_batch(bases_i: np.ndarray, bases_j: np.ndarray) -> np.ndarray:
    """E_i @ E_j^T for stacked bases; bases_j may carry an extra neighbor axis."""
    if bases_j.ndim == bases_i.ndim + 1:
        return np.einsum("...ij,...kmj->...kim", bases_i, bases_j)
    return np.einsum("...ij,...mj->...im", bases_i, bases_j)
