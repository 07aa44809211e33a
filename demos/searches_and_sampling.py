"""The three searches and the sampler that feed the network.

Every grouping decision in the model reduces to one of: k nearest points,
points within a ball, k nearest feature rows, or farthest point sampling.
Each takes a batch of clouds; this script runs each on one random cloud,
cross-checks the kNN search against direct sorting, and shows how FPS
spreads its picks out.
"""
import numpy as np

from aecnn.neighbors import (
    ball_points_batch,
    fps_batch,
    knn_features_batch,
    knn_points_batch,
)

rng = np.random.default_rng(11)
cloud = rng.normal(size=(500, 3))
query = np.zeros(3)

# kNN vs a plain stable argsort over all distances.
hits = knn_points_batch(cloud[None], query[None, None], 10)[0, 0]
sorted_hits = np.argsort(np.linalg.norm(cloud - query, axis=1), kind="stable")[:10]
print("knn == argsort of all distances:", np.array_equal(hits, sorted_hits))
print("  nearest distances:",
      np.round(np.linalg.norm(cloud[hits[:4]], axis=1), 3))

# Ball query: everything within a radius, nearest first.
hits = ball_points_batch(cloud[None], query[None, None], radius=0.5, max_k=32)[0, 0]
dists = np.linalg.norm(cloud[hits] - query, axis=1)
print(f"\nball r=0.5: {len(set(hits.tolist()))} distinct hits, "
      f"max distance {dists.max():.3f}")

# Feature-space kNN includes each row itself at distance zero.
features = rng.normal(size=(500, 16))
lists = knn_features_batch(features[None], features[None], 5)[0]
self_first = (lists[:, 0] == np.arange(500)).all()
print(f"\nfeature knn: every row lists itself first: {self_first}")

# FPS picks are spread out: compare min pairwise distance of an FPS subset
# against random subsets of the same size.
fps_idx = fps_batch(cloud[None], 24)[0]


def min_pairwise(pts):
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    return d[np.triu_indices(len(pts), k=1)].min()


fps_spread = min_pairwise(cloud[fps_idx])
random_spread = np.mean([
    min_pairwise(cloud[rng.choice(500, size=24, replace=False)])
    for _ in range(20)
])
print(f"\nfps min pairwise distance:    {fps_spread:.3f}")
print(f"random subset (mean of 20):   {random_spread:.3f}")
