"""Local reference frames and rotation-invariant relative coordinates.

A frame at reference point p of a cloud centred at the origin has rows
(x, y, z):

    z = p / |p|
    x = unit projection of m onto the plane normal to z,
        with m an anchor point summarizing the neighborhood
    y = z cross x

Rotating the whole cloud by R rotates every frame axis by R, so coordinates
of neighbors expressed in the frame (and relative rotations between frames)
are exactly rotation invariant. That equivariance is the property the rest
of the package is built on and is tested to 1e-7.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .config import ANCHOR_MODES

# Degeneracy threshold on intermediate vector norms, in model units.
EPS = 1e-8


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
                      strategy: str = "mean",
                      counts: Optional[dict] = None) -> np.ndarray:
    """Frames for references (..., 3) with neighborhoods (..., k, 3).

    The anchor `strategy` is one of `ANCHOR_MODES`: the neighborhood mean,
    or the first neighbor farthest from the z axis. Returns bases of shape
    (..., 3, 3), rows (x, y, z). Degenerate rows do not raise; they take
    fixed fallback axes (z -> +z; x -> projected +x, then projected +y) and
    are counted in `counts`, because a training batch cannot abort on one
    bad neighborhood mid-epoch.
    """
    references = np.asarray(references, dtype=np.float64)
    neighborhoods = np.asarray(neighborhoods, dtype=np.float64)
    _check_frame_shapes(neighborhoods, references)
    if strategy not in ANCHOR_MODES:
        raise ValueError(f"unknown anchor strategy {strategy!r}; expected one of "
                         f"{ANCHOR_MODES}")
    z, bad_ref = _z_axes(references)
    if strategy == "mean":
        m = neighborhoods.mean(axis=-2)
    else:
        m = _farthest_from_axis(neighborhoods, z)
    x_dir = m - np.einsum("...d,...d->...", m, z)[..., None] * z
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


def _z_axes(references: np.ndarray):
    """Unit axes (..., 3) from the origin to references, +z where a
    reference lies within EPS of the origin, and the mask (...) of those
    references."""
    zn = np.linalg.norm(references, axis=-1, keepdims=True)
    bad_ref = zn[..., 0] <= EPS
    z = np.where(bad_ref[..., None], _FALLBACK_Z,
                 references / np.where(zn <= EPS, 1.0, zn))
    return z, bad_ref


def _farthest_from_axis(neighborhoods: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The first neighbor (..., 3) of each neighborhood farthest from its
    z axis through the origin, by perpendicular distance."""
    proj = np.einsum("...kd,...d->...k", neighborhoods, z)
    perp = neighborhoods - proj[..., None] * z[..., None, :]
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
    """E_i @ E_j^T of each frame (..., 3, 3) against each of its neighbor
    frames (..., k, 3, 3): shape (..., k, 3, 3)."""
    return np.einsum("...ij,...kmj->...kim", bases_i, bases_j)
