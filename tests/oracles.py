"""Independent reference implementations the test suite checks against.

Everything in here is deliberately written on a different route from the
library: quaternions instead of the axis-angle matrix formula, python sorted()
on (distance, index) pairs instead of vectorized argsorts, O(n^2) greedy loops
instead of incremental minima, per-cloud loops instead of batched
coordinate-major scans, central finite differences instead of
backpropagation, and each edge's whole concatenated input multiplied by the
first-layer weights instead of the package's per-row factoring, and
SA-first as one graph over the whole set instead of blocks of references.
Slow and obvious beats fast and shared-bug.
"""
from __future__ import annotations

import math

import numpy as np

from aecnn import autodiff as ad
from aecnn import lrf
from aecnn.network import Model, _bidx, _Level

import reference_ops as ref


# ---------------------------------------------------------------------------
# rotations via unit quaternions
# ---------------------------------------------------------------------------

def quaternion_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    half = 0.5 * angle
    w = math.cos(half)
    xyz = math.sin(half) * axis
    return np.array([w, xyz[0], xyz[1], xyz[2]])


def quaternion_rotate(q, v):
    """Rotate vector v by unit quaternion q = (w, x, y, z)."""
    w, x, y, z = q
    u = np.array([x, y, z])
    v = np.asarray(v, dtype=np.float64)
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def quaternion_matrix(q):
    """3x3 rotation matrix equivalent to quaternion q, column-vector action."""
    cols = [quaternion_rotate(q, e) for e in np.eye(3)]
    return np.stack(cols, axis=1)


def rotation_from_axis_angle(axis, angle):
    return quaternion_matrix(quaternion_from_axis_angle(axis, angle))


# ---------------------------------------------------------------------------
# neighbor searches, python-sorted on (distance, index)
# ---------------------------------------------------------------------------

def _dist(a, b):
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def brute_knn(points, query, k):
    ranked = sorted((_dist(p, query), i) for i, p in enumerate(points))
    idx = [i for _, i in ranked[:k]]
    while len(idx) < k:
        idx.append(idx[0])
    return np.array(idx, dtype=np.int64)


def brute_ball(points, query, radius, max_k):
    ranked = sorted((_dist(p, query), i) for i, p in enumerate(points))
    hits = [i for d, i in ranked if d <= radius]
    if not hits:
        hits = [ranked[0][1]]
    hits = hits[:max_k]
    while len(hits) < max_k:
        hits.append(hits[0])
    return np.array(hits, dtype=np.int64)


def brute_feature_knn(features, k):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    out = []
    for q in features:
        ranked = sorted(
            (math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q))), i)
            for i, p in enumerate(features)
        )
        idx = [i for _, i in ranked[:k]]
        while len(idx) < k:
            idx.append(idx[0])
        out.append(idx)
    return np.array(out, dtype=np.int64)


def brute_fps(points, n_samples):
    """Greedy max-min selection, quadratic, with explicit tie resolution."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    center = points.mean(axis=0)

    def best(dist_fn):
        ranked = sorted(
            (-dist_fn(i), tuple(points[i]), i) for i in range(n)
        )
        return ranked[0][2]

    first = best(lambda i: _dist(points[i], center))
    chosen = [first]
    for _ in range(n_samples - 1):
        nxt = best(lambda i: min(_dist(points[i], points[c]) for c in chosen))
        chosen.append(nxt)
    return np.array(chosen, dtype=np.int64)


def loop_fps(points, n_samples):
    """Greedy max-min selection, one cloud at a time, with incremental minima.

    Distances come from np.linalg.norm and ties go to Python's min over
    (tuple(point), index), so exact symmetric ties resolve to the smallest
    coordinate triple, then the smallest index. Fast enough for the paper's
    1024-point clouds, where brute_fps is not.
    """
    points = np.asarray(points, dtype=np.float64)

    def farthest(dist):
        tied = np.flatnonzero(dist == dist.max())
        return min((tuple(points[i]), int(i)) for i in tied)[1]

    chosen = [farthest(np.linalg.norm(points - points.mean(axis=0), axis=1))]
    dmin = np.linalg.norm(points - points[chosen[0]], axis=1)
    for _ in range(n_samples - 1):
        chosen.append(farthest(dmin))
        dmin = np.minimum(dmin, np.linalg.norm(points - points[chosen[-1]], axis=1))
    return np.array(chosen, dtype=np.int64)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_difference(f, x, h=1e-6):
    """Gradient of scalar f at array x by central differences, same shape as x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def brute_miou(predictions, truths, class_labels, n_parts_per_class):
    """Mean IoU: per-shape part IoUs averaged within each object class, then
    averaged across classes. A part absent from both prediction and truth
    counts as IoU 1 for that shape.
    """
    per_class: dict = {}
    for pred, true, cls in zip(predictions, truths, class_labels):
        ious = []
        for part in range(n_parts_per_class[cls]):
            p = set(int(i) for i in np.flatnonzero(np.asarray(pred) == part))
            t = set(int(i) for i in np.flatnonzero(np.asarray(true) == part))
            if not p and not t:
                ious.append(1.0)
            else:
                ious.append(len(p & t) / len(p | t))
        per_class.setdefault(int(cls), []).append(sum(ious) / len(ious))
    return sum(
        sum(v) / len(v) for v in per_class.values()
    ) / len(per_class)


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def max_projection_anchor(neighbors, reference):
    """The first neighbor farthest from the z axis, found by a loop."""
    z = reference / np.linalg.norm(reference)
    best, best_dist = None, -1.0
    for q in neighbors:
        dist = np.linalg.norm(q - (q @ z) * z)
        if dist > best_dist:
            best, best_dist = q, dist
    return best


def is_rotation_matrix(r, tol=1e-9):
    """Orthonormal with determinant +1, to within tol."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        return False
    return bool(
        np.allclose(r @ r.T, np.eye(3), atol=tol)
        and abs(np.linalg.det(r) - 1.0) <= tol
    )


def gram_schmidt_frame(reference, anchor):
    """Frame construction routed through np.linalg instead of hand algebra."""
    z = reference / np.linalg.norm(reference)
    x = anchor - (anchor @ z) * z
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


# ---------------------------------------------------------------------------
# the network's edge layers, unfactored
# ---------------------------------------------------------------------------

def unfactored_model(config, seed=0):
    """A Model whose edge convolutions and feature propagation multiply each
    edge's whole concatenated input by each first-layer weight.

    The package applies the x_j rows of the align MLP's first weight once per
    source row, the x_i rows of the edge MLP's, less its xhat rows, once per
    reference (so it never forms xhat - x_i), and AEConv2/3 feature
    propagation interpolates the align MLP's hidden layer before its output
    layer. Here every edge builds [code, x_j] and
    [x_i, xhat - x_i, t] by concatenation, runs the whole MLPs on them, and
    propagation interpolates the aligned features, with the same weights,
    selections and frames. The two agree up to rounding.
    """
    class Unfactored(Model):
        def _edge_conv(self, level, sub, graph, block_index, penalties):
            align_mlp, q_mlp, _ = self.block_mlps[block_index]
            b, _, k = graph.shape
            new_pts = level.pts[_bidx(b, sub), sub]
            new_bases = level.bases[_bidx(b, sub), sub]
            x_i = ad.gather_rows(level.feat, sub)
            t = lrf.rir_batch(level.pts[_bidx(b, graph), graph], new_pts, new_bases)
            xhat = self._align_edge_features(
                align_mlp, level.feat, graph, new_bases,
                level.bases[_bidx(b, graph), graph], t, penalties)
            rep = ref.expand_set(x_i, k)
            parts = [rep, ref.sub(xhat, rep)]
            if self.variant != "edgeconv":
                parts.append(ad.constant(t))
            feat = ad.max_reduce(q_mlp(ad.concat(parts)), axis=2)
            return _Level(pts=new_pts, bases=new_bases, feat=feat)

        def _align_edge_features(self, align_mlp, src, idx, bases_i, bases_j,
                                 t, penalties, weights=None):
            rows = ad.gather_rows(src, idx)
            if self.variant == "edgeconv":
                xhat = rows
            else:
                if self.variant == "aeconv2":
                    ei = np.broadcast_to(bases_i[..., None, :, :], bases_j.shape)
                    frames = [ei.reshape(ei.shape[:-2] + (9,)),
                              bases_j.reshape(bases_j.shape[:-2] + (9,))]
                else:
                    rel = lrf.relative_rotation_batch(bases_i, bases_j)
                    frames = [rel.reshape(rel.shape[:-2] + (9,))]
                code = ad.constant(np.concatenate(frames + [t], axis=-1))
                if self.variant == "aeconv1":
                    f = src.values.shape[-1]
                    m = ad.reshape(align_mlp(code), code.values.shape[:-1] + (f, f))
                    penalties.append(ad.orthogonality_penalty(m))
                    xhat = ad.edge_matvec(m, rows)
                else:
                    xhat = align_mlp(ad.concat([code, rows]))
            return xhat if weights is None else ad.weighted_sum(xhat, weights)

    return Unfactored(config, seed=seed)


def one_block_model(config, seed=0):
    """A Model whose SA-first runs the MLP and the max over k on every
    reference of the batch as one graph.

    The package runs them on blocks of references and joins the pooled
    blocks. Rows never mix, so the logits are the same bit for bit; the
    sa_first weight and bias gradients are one GEMM and one column sum here,
    a sum of per-block ones there, so they agree up to rounding.
    """
    class OneBlock(Model):
        def _first_level(self, pts, nb_idx, bases, ref_idx):
            b = nb_idx.shape[0]
            ref_pts = pts[_bidx(b, ref_idx), ref_idx]
            nb_pts = pts[_bidx(b, nb_idx), nb_idx]
            if self.config.features == "rir":
                h_in = lrf.rir_batch(nb_pts, ref_pts, bases)
            else:
                refs = np.repeat(ref_pts[:, :, None, :], nb_pts.shape[2], axis=2)
                h_in = np.concatenate([refs, nb_pts - refs], axis=-1)
            feat = ad.max_reduce(self.h_mlp(ad.constant(h_in)), axis=2)
            return _Level(pts=ref_pts, bases=bases, feat=feat)

    return OneBlock(config, seed=seed)


# ---------------------------------------------------------------------------
# graph memory
# ---------------------------------------------------------------------------

def graph_bytes(loss) -> int:
    """Bytes of the distinct base buffers that loss's graph keeps alive.

    Walks every object reachable from loss through tensors' values, grads,
    parents and backward functions and through the cells of backward
    closures, into tuples, lists and dicts, and sums the nbytes of each
    distinct array that owns its memory: a view counts as its base, once.
    Parameters and constants count like any other buffer the graph holds.
    """
    seen, owners, stack = set(), {}, [loss]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            owners[id(base)] = base.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__)
        elif hasattr(obj, "_backward"):
            stack.extend(getattr(obj, a, None) for a in
                         ("values", "grad", "_parents", "_backward"))
    return sum(owners.values())
