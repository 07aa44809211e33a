"""Neighborhood machinery: kNN / ball queries, FPS, feature-space kNN.

All selection rules are exact and deterministic. Candidates are ordered by
(distance, index) lexicographically, so equal distances always resolve to the
smaller point index; farthest point sampling breaks max-distance ties by
lexicographically smallest coordinate triple, then smallest index. These
tie-breaks are part of the contract (tests compare against brute-force
oracles for equality, not closeness).

Every search is a flat vectorized scan over a batch of clouds, and FPS and
every search check their input through one gate: corpus and queries both of
rank 3, the same batch size and width, at least one corpus point, and no
NaN or infinity, which no selection rule can order.

Distances come from one of two scans. Points in 3-D go through
`_point_sq_distances`, which works on coordinate-major (3, B, n) copies with
in-place ufuncs and sums each pair as (dx^2 + dz^2) + dy^2. That is the
order numpy's `einsum` uses for a contiguous length-3 reduction, so the
result equals `feature_sq_distances` bit for bit at about four times the
speed. `feature_sq_distances` is the exact formula for features of any
width: squared distances from explicit differences, one cloud at a time, in
query blocks whose difference tensor fits in about 4 MB.

Feature kNN (`knn_features_batch`) does not scan every difference. It
screens with |q|^2 + |c|^2 - 2 q.c from one batched matmul over all
clouds, keeps every candidate whose screen value is within a proven
rounding bound of the row's k-th smallest, and re-scores only those
survivors from explicit differences with the same einsum, so the
neighbours are exactly the full scan's (the proof is in
`_screened_nearest_k`). When k >= n, or a norm is too large for the bound,
it scans in full.

`_nearest_k` then selects without sorting whole rows: `np.partition` finds
each row's k-th smallest distance and every candidate up to it is kept. A
row that keeps exactly k candidates (no tie at the k-th distance) lists them
in ascending index order already, so a stable sort of their k distances
orders them; rows with ties at the k-th distance lexsort every kept
candidate by (distance, index). Either way the result equals the first k
columns of a stable argsort, bit for bit.
"""
from __future__ import annotations

from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# brute-force flat scans (exact, vectorized; the network hot path)
# ---------------------------------------------------------------------------

def _nearest_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of d2 (..., n).

    Equal to `np.argsort(d2, axis=-1, kind="stable")[..., :k]`: ordered by
    (distance, index). When n < k the tail repeats the nearest column. Only
    the entries up to a row's k-th smallest value can make the cut, so only
    those are sorted: a stable sort of the k distances when a row keeps
    exactly k, a (distance, index) lexsort when a tie at the k-th distance
    makes it keep more.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = d2.shape[-1]
    if k >= n:
        order = np.argsort(d2, axis=-1, kind="stable")
        if k == n:
            return order
        return np.concatenate([order, np.repeat(order[..., :1], k - n, axis=-1)],
                              axis=-1)
    flat = d2.reshape(-1, n)
    kth = np.partition(flat, k - 1, axis=1)[:, k - 1:k]
    return _first_k_kept(flat, flat <= kth, k).reshape(*d2.shape[:-1], k)


def _first_k_kept(flat: np.ndarray, keep: np.ndarray, k: int) -> np.ndarray:
    """First k by (distance, index) among each row's kept columns.

    Every row keeps at least k columns, and only kept entries of flat are
    read. Rows that keep exactly k take a stable sort of their k distances,
    the rest a (distance, index) lexsort.
    """
    exact = np.count_nonzero(keep, axis=1) == k
    if exact.all():
        return _sort_exact_rows(flat, keep, k)
    out = np.empty((flat.shape[0], k), dtype=np.intp)
    out[exact] = _sort_exact_rows(flat[exact], keep[exact], k)
    out[~exact] = _lexsort_kept(flat[~exact], keep[~exact], k)
    return out


def _sort_exact_rows(flat: np.ndarray, keep: np.ndarray, k: int) -> np.ndarray:
    """First k by (distance, index) of rows that keep exactly k columns."""
    cols = np.nonzero(keep)[1].reshape(-1, k)   # ascending within each row
    order = np.take_along_axis(flat, cols, axis=1).argsort(axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _lexsort_kept(flat: np.ndarray, keep: np.ndarray, k: int) -> np.ndarray:
    """First k by (distance, index) of rows that keep k or more columns."""
    rows, cols = np.nonzero(keep)
    order = np.lexsort((cols, flat[rows, cols], rows))
    counts = np.bincount(rows, minlength=flat.shape[0])
    starts = np.cumsum(counts) - counts
    return cols[order[starts[:, None] + np.arange(k)]]


# ---------------------------------------------------------------------------
# farthest point sampling
# ---------------------------------------------------------------------------

def _argmax_tied(values: np.ndarray, points: np.ndarray) -> int:
    """Argmax with ties resolved by smallest (x, y, z) triple, then index."""
    m = values.max()
    cand = np.flatnonzero(values == m)
    if cand.size == 1:
        return int(cand[0])
    sub = points[cand]
    order = np.lexsort((cand, sub[:, 2], sub[:, 1], sub[:, 0]))
    return int(cand[order[0]])


def fps_batch(points: np.ndarray, n_samples: int) -> np.ndarray:
    """Greedy max-min point indices of each (B, n, 3) cloud, shape (B, n_samples).

    Each cloud is seeded at its point farthest from the centroid; each step
    adds the point maximizing distance to the already selected set. Ties
    resolve to the lexicographically smallest coordinate triple, then the
    smallest index, so symmetric inputs select deterministically. The
    generic step uses a first-occurrence argmax and falls back to the full
    tie-break only for rows that actually contain a tie. Distances are
    taken from a coordinate-major (3, B, n) copy of the points into reused
    buffers.
    """
    points = np.asarray(points, dtype=np.float64)
    _check_search_inputs(points, points, width=3)
    b, n, _ = points.shape
    if not 1 <= n_samples <= n:
        raise ValueError(f"n_samples must be in [1, {n}], got {n_samples}")
    rows = np.arange(b)
    selected = np.empty((b, n_samples), dtype=np.int64)
    coords = np.ascontiguousarray(points.transpose(2, 0, 1))
    center = points.mean(axis=1).T
    dmin, step, tmp = np.empty((3, b, n))
    _distances_from(coords, center, dmin, tmp)
    cur = _argmax_tied_batch(dmin, points)
    selected[:, 0] = cur
    _distances_from(coords, coords[:, rows, cur], dmin, tmp)
    for i in range(1, n_samples):
        cur = _argmax_tied_batch(dmin, points)
        selected[:, i] = cur
        _distances_from(coords, coords[:, rows, cur], step, tmp)
        np.minimum(dmin, step, out=dmin)
    return selected


def _distances_from(coords: np.ndarray, origins: np.ndarray, out: np.ndarray,
                    tmp: np.ndarray):
    """Euclidean distances from origins (3, B) to coords (3, B, n), into out.

    Summed as (dx^2 + dy^2) + dz^2, the order np.linalg.norm uses over a
    trailing axis of three, so the result equals it bit for bit. tmp is a
    scratch buffer of out's shape.
    """
    np.subtract(coords[0], origins[0][:, None], out=out)
    np.multiply(out, out, out=out)
    for axis in (1, 2):
        np.subtract(coords[axis], origins[axis][:, None], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    np.sqrt(out, out=out)


def _argmax_tied_batch(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    out = values.argmax(axis=1)
    # A row's maximum is tied exactly when its first and last argmax differ.
    last = values.shape[1] - 1 - values[:, ::-1].argmax(axis=1)
    for row in np.flatnonzero(last != out):
        out[row] = _argmax_tied(values[row], points[row])
    return out


# ---------------------------------------------------------------------------
# distance scans and searches
# ---------------------------------------------------------------------------

def feature_sq_distances(corpus: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances from each query row to each corpus row, shape (q, n).

    Computed from explicit differences (not the expanded dot-product trick),
    which keeps exact zeros for coincident rows and exact ties for
    mirror-symmetric configurations. Queries go in blocks whose (block, n, f)
    difference tensor stays near 4 MB of float64, about one L2 cache, and
    every block reuses the same buffer; the blocking does not change a bit
    of the result.
    """
    q, f = queries.shape
    n = corpus.shape[0]
    block = max(1, min(q, 500_000 // max(1, n * f)))
    out = np.empty((q, n), dtype=np.float64)
    buf = np.empty((block, n, f), dtype=np.float64)
    for start in range(0, q, block):
        stop = min(start + block, q)
        diff = buf[:stop - start]
        np.subtract(queries[start:stop, None, :], corpus[None, :, :], out=diff)
        out[start:stop] = np.einsum("qnf,qnf->qn", diff, diff)
    return out


def knn_features_batch(corpus: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Batched feature kNN: corpus (B, n, f), queries (B, q, f) -> (B, q, k).

    Equal, bit for bit, to `_nearest_k` over `feature_sq_distances` of each
    cloud. When k < n, `_screened_nearest_k` finds the same neighbours from a
    GEMM screen; otherwise (k >= n, or an overflowing norm) the explicit
    differences are scanned in full.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    corpus = np.asarray(corpus, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    _check_search_inputs(corpus, queries)
    if k < corpus.shape[1]:
        found = _screened_nearest_k(corpus, queries, k)
        if found is not None:
            return found
    b, n, _ = corpus.shape
    d2 = np.empty((b, queries.shape[1], n), dtype=np.float64)
    for i in range(b):
        d2[i] = feature_sq_distances(corpus[i], queries[i])
    return _nearest_k(d2, k)


# Survivors re-scored at once: two gathered (rows, f) float64 blocks of about
# 256 KB each, which stay in cache between the gather and the einsum.
RESCORE_BLOCK_ELEMS = 32_768


def _screened_nearest_k(corpus: np.ndarray, queries: np.ndarray,
                        k: int) -> Optional[np.ndarray]:
    """`knn_features_batch` for k < n from a GEMM screen, or None.

    Screen. s = |q|^2 + |c|^2 - 2 q.c, from one batched matmul. A rounding
    bound B per query row (below) gives |s_j - d_j| <= B for every
    candidate j, where d_j is what `feature_sq_distances` returns. Let t be
    the row's k-th smallest s. The k candidates with s <= t have d <= t + B,
    so the k-th smallest d is at most t + B, and every candidate with d up
    to it, ties included, has s <= d + B <= t + 2B. Candidates with
    s <= t + 2B are therefore kept; the comparison is made in floating
    point, and rounding is monotone, so it keeps every one of them. The
    survivors (about k per row unless many distances tie) are re-scored
    from explicit differences with the einsum `feature_sq_distances` uses,
    which gives the same bits, and the first k of them by (distance, index)
    are the full scan's first k.

    Bound. Let u = 2^-53, g_m = m u / (1 - m u), f the width and
    P = |q|^2 + |c|^2, so d's exact value D = |q - c|^2 <= 2P.
      - d sums f terms fl(fl(q_i - c_i)^2) >= 0, three roundings each plus
        f - 1 additions in any order: |d - D| <= g_{f+2} D <= 2 g_{f+2} P.
      - The norms carry g_f of their value, the matmul's dot product g_f of
        sum |q_i c_i| <= P / 2 in any summation order, with or without FMA;
        the two sums that form s add one rounding each:
        |s - D| <= 2 g_{f+2} P.
      - So |s - d| <= 4 g_{f+2} P, and P exceeds the computed |q|^2 + |c|^2
        by at most a factor 1 / (1 - g_{f+1}). B = 8 g_{f+3} (|q|^2 +
        max_j |c_j|^2), in computed norms, covers this twice over, which
        absorbs B's own two roundings. (|q| + |c|)^2 lies between P and 2P,
        so this is the same order as g_{f+3} (|q| + |c|)^2.
      - Underflow adds at most 2^-1075 to each rounded product, about 5f of
        them in all; B adds 4 (f + 1) 2^-1074.
      - Overflow: when 8 (|q|^2 + max |c|^2) is not finite (norms near the
        float64 range) the screen returns None and the caller scans in full.
    """
    b, n, f = corpus.shape
    q = queries.shape[1]
    cn = np.einsum("bnf,bnf->bn", corpus, corpus)
    qn = np.einsum("bqf,bqf->bq", queries, queries)
    p_max = qn + cn.max(axis=1)[:, None]                           # (b, q)
    if not np.isfinite(8.0 * p_max).all():
        return None
    u = 2.0 ** -53
    gamma = (f + 3) * u / (1.0 - (f + 3) * u)
    bound = 8.0 * gamma * p_max + 4.0 * (f + 1) * 2.0 ** -1074
    s = np.matmul(queries, corpus.transpose(0, 2, 1))
    s *= -2.0
    s += qn[:, :, None]
    s += cn[:, None, :]
    flat = s.reshape(-1, n)
    kth = np.partition(flat, k - 1, axis=1)[:, k - 1]
    keep = flat <= (kth + 2.0 * bound.reshape(-1))[:, None]
    rows, cols = np.nonzero(keep)
    # Re-score the survivors over their screen values (the selection reads
    # only kept entries), in blocks gathered into two reused buffers.
    qflat = queries.reshape(-1, f)
    cflat = corpus.reshape(-1, f)
    crow = (rows // q) * n + cols
    step = max(1, min(rows.size, RESCORE_BLOCK_ELEMS // max(1, f)))
    qbuf, cbuf = np.empty((2, step, f))
    for lo in range(0, rows.size, step):
        r, c = rows[lo:lo + step], cols[lo:lo + step]
        # mode="clip" (the indices are in range) lets take write into out
        # directly; the default mode buffers it.
        diff = np.take(qflat, r, axis=0, out=qbuf[:r.size], mode="clip")
        np.subtract(diff, np.take(cflat, crow[lo:lo + step], axis=0,
                                  out=cbuf[:r.size], mode="clip"), out=diff)
        flat[r, c] = np.einsum("sf,sf->s", diff, diff)
    return _first_k_kept(flat, keep, k).reshape(b, q, k)


def _check_search_inputs(corpus: np.ndarray, queries: np.ndarray,
                         width: Optional[int] = None):
    """Reject a corpus (B, n, f) and queries (B, q, f) no search can answer:
    another rank, batch size or width, a width other than `width` when one
    is given, an empty corpus, or a NaN or infinity."""
    if not (corpus.ndim == 3 and queries.ndim == 3 and corpus.shape[1] >= 1
            and corpus.shape[0] == queries.shape[0]
            and corpus.shape[2] == queries.shape[2]
            and width in (None, corpus.shape[2])):
        raise ValueError(
            f"expected a (B, n, {width or 'f'}) corpus with n >= 1 and "
            f"(B, q, {width or 'f'}) queries, got {corpus.shape} and "
            f"{queries.shape}"
        )
    if not (np.isfinite(corpus).all() and np.isfinite(queries).all()):
        raise ValueError("points must be finite")


def _point_sq_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances (B, q, n) from queries (B, q, 3) to points (B, n, 3).

    Works on coordinate-major (3, B, .) copies with in-place ufuncs, one cloud
    at a time, into the output and one reused (q, n) buffer. Each pair is
    summed as (dx^2 + dz^2) + dy^2, the order numpy's `einsum` uses for a
    contiguous reduction of length three, so the result equals
    `feature_sq_distances` bit for bit.
    """
    _check_search_inputs(points, queries, width=3)
    b, n, _ = points.shape
    q = queries.shape[1]
    pc = np.ascontiguousarray(points.transpose(2, 0, 1))
    qc = np.ascontiguousarray(queries.transpose(2, 0, 1))
    out = np.empty((b, q, n), dtype=np.float64)
    tmp = np.empty((q, n), dtype=np.float64)
    for i in range(b):
        d2 = out[i]
        np.subtract(qc[0, i][:, None], pc[0, i], out=d2)
        np.multiply(d2, d2, out=d2)
        for axis in (2, 1):
            np.subtract(qc[axis, i][:, None], pc[axis, i], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
    return out


def knn_points_batch(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Batched euclidean kNN: points (B, n, 3), queries (B, q, 3) -> (B, q, k).

    Ordered by (distance, index); when a cloud has fewer than k points, the
    tail repeats the nearest point. Distances come from the coordinate-major
    `_point_sq_distances` scan, the selection from `_nearest_k`; equal to
    `knn_features_batch` bit for bit.
    """
    return _nearest_k(_point_sq_distances(points, queries), k)


def ball_points_batch(points: np.ndarray, queries: np.ndarray, radius: float,
                      max_k: int) -> np.ndarray:
    """Points within `radius` of each query: (B, n, 3), (B, q, 3) -> (B, q, max_k).

    Membership is distance <= radius (tested on squared values). Hits are
    ordered by (distance, index) and truncated to max_k; short rows are
    padded by repeating the first hit, and an empty ball degrades to the
    single nearest point. Implemented as a masked sort: out-of-ball
    distances are pushed to +inf, so the stable argsort leaves the in-ball
    hits in the leading columns.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    d2 = _point_sq_distances(points, queries)
    n = points.shape[1]
    inside = d2 <= radius * radius
    masked = np.where(inside, d2, np.inf)
    order = np.argsort(masked, axis=2, kind="stable")
    kk = min(max_k, n)
    out = order[:, :, :kk].copy()
    counts = inside.sum(axis=2)
    # Empty balls: degrade to the nearest point overall.
    empty = counts == 0
    if empty.any():
        nearest = np.argsort(d2, axis=2, kind="stable")[:, :, 0]
        out[empty, :] = nearest[empty][:, None]
        counts = np.where(empty, 1, counts)
    # Pad short rows by repeating the first hit.
    col = np.arange(kk)
    short = col[None, None, :] >= counts[:, :, None]
    first = np.repeat(out[:, :, :1], kk, axis=2)
    out = np.where(short, first, out)
    if kk < max_k:
        out = np.concatenate([out, np.repeat(out[:, :, :1], max_k - kk, axis=2)], axis=2)
    return out
