"""Local reference frames make neighbor coordinates rotation-proof.

Build a frame at one point of a small cloud, express its neighbors in that
frame, then spin the whole cloud by a random rotation and do it again.
The frame axes co-rotate with the cloud; the neighbor coordinates do not
move at all.
"""
import numpy as np

import aecnn.geometry as geo
from aecnn import compute_lrf_batch, rir_batch
from aecnn.neighbors import knn_points_batch

rng = np.random.default_rng(7)


def frame_and_coords(cloud, index, k=8):
    """The frame at cloud[index] and its k nearest neighbors in it."""
    reference = cloud[index]
    neighbors = cloud[knn_points_batch(cloud[None], reference[None, None], k)[0, 0]]
    basis = compute_lrf_batch(reference, neighbors)
    return basis, rir_batch(neighbors, reference, basis)


cloud = rng.normal(size=(40, 3))
basis, coords = frame_and_coords(cloud, 12)

print("frame basis (rows are x, y, z):")
print(np.round(basis, 4))
print("\nfirst three neighbors in frame coordinates:")
print(np.round(coords[:3], 4))

# Now rotate everything and repeat the construction from scratch.
rotation = geo.sample_arbitrary_rotation(rng)
basis_r, coords_r = frame_and_coords(cloud @ rotation.T, 12)

print("\nafter a random rotation of the whole cloud:")
print("basis drift (should be large):",
      f"{np.abs(basis - basis_r).max():.3f}")
print("coordinate drift (should be ~1e-16):",
      f"{np.abs(coords - coords_r).max():.2e}")

# The two bases differ by exactly the applied rotation.
print("basis_rotated vs basis @ R^T:",
      f"{np.abs(basis_r - basis @ rotation.T).max():.2e}")
