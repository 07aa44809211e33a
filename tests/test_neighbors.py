"""Neighbor machinery against brute-force oracles, including exact tie cases."""
import re

import numpy as np
import pytest

from aecnn import neighbors as nb

from oracles import brute_ball, brute_feature_knn, brute_fps, brute_knn, loop_fps


def rng(seed=0):
    return np.random.default_rng(seed)


def random_cloud(g, n, duplicates=False, lattice=False):
    if lattice:
        # Integer lattice points force exact distance ties.
        pts = g.integers(-3, 4, size=(n, 3)).astype(np.float64)
    else:
        pts = g.normal(size=(n, 3))
    if duplicates and n >= 4:
        pts[n // 2] = pts[0]
        pts[n // 2 + 1] = pts[1]
    return pts


def knn(pts, query, k):
    """knn_points_batch for one query against one cloud."""
    return nb.knn_points_batch(pts[None], np.reshape(query, (1, 1, 3)), k)[0, 0]


def ball(pts, query, radius, max_k):
    """ball_points_batch for one query against one cloud."""
    return nb.ball_points_batch(pts[None], np.reshape(query, (1, 1, 3)),
                                radius, max_k)[0, 0]


def fps(pts, n_samples):
    """fps_batch over one cloud."""
    return nb.fps_batch(pts[None], n_samples)[0]


def feature_knn(feats, k, refs=None):
    """knn_features_batch over one cloud, queried at rows refs (default all)."""
    queries = feats if refs is None else feats[refs]
    return nb.knn_features_batch(feats[None], queries[None], k)[0]


class TestKnn:
    @pytest.mark.parametrize("lattice", [False, True])
    def test_matches_oracle(self, lattice):
        g = rng(20 + lattice)
        for _ in range(40):
            n = int(g.integers(2, 60))
            pts = random_cloud(g, n, duplicates=bool(g.integers(2)), lattice=lattice)
            k = int(g.integers(1, n + 2))
            q = pts[int(g.integers(n))] if g.integers(2) else g.normal(size=3)
            assert np.array_equal(knn(pts, q, k), brute_knn(pts, q, k))

    def test_pads_when_short(self):
        pts = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        got = knn(pts, np.array([0.1, 0.0, 0.0]), 5)
        assert np.array_equal(got, [0, 1, 0, 0, 0])

    def test_tie_resolves_to_smaller_index(self):
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float)
        assert np.array_equal(knn(pts, np.zeros(3), 4), [0, 1, 2, 3])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            knn(np.zeros((3, 3)), np.zeros(3), 0)


class TestBall:
    @pytest.mark.parametrize("lattice", [False, True])
    def test_matches_oracle(self, lattice):
        g = rng(24 + lattice)
        for _ in range(40):
            n = int(g.integers(2, 60))
            pts = random_cloud(g, n, duplicates=bool(g.integers(2)), lattice=lattice)
            radius = float(g.uniform(0.1, 3.0)) if not lattice else float(g.integers(1, 4))
            max_k = int(g.integers(1, 12))
            q = pts[int(g.integers(n))] if g.integers(2) else g.normal(size=3)
            assert np.array_equal(
                ball(pts, q, radius, max_k),
                brute_ball(pts, q, radius, max_k),
            )

    def test_empty_ball_degrades_to_nearest(self):
        pts = np.array([[5, 0, 0], [6, 0, 0]], dtype=float)
        got = ball(pts, np.zeros(3), 0.5, 3)
        assert np.array_equal(got, [0, 0, 0])

    def test_padding_repeats_first_hit(self):
        pts = np.array([[0.1, 0, 0], [3, 0, 0]], dtype=float)
        got = ball(pts, np.zeros(3), 1.0, 4)
        assert np.array_equal(got, [0, 0, 0, 0])

    def test_batched_matches_single(self):
        g = rng(27)
        pts = g.normal(size=(2, 40, 3))
        queries = g.normal(size=(2, 7, 3))
        radius, max_k = 0.9, 6
        out = nb.ball_points_batch(pts, queries, radius, max_k)
        for b in range(2):
            for qi in range(7):
                assert np.array_equal(
                    out[b, qi], brute_ball(pts[b], queries[b, qi], radius, max_k)
                )


class TestFps:
    @pytest.mark.parametrize("lattice", [False, True])
    def test_matches_oracle(self, lattice):
        g = rng(28 + lattice)
        for _ in range(25):
            n = int(g.integers(2, 40))
            pts = random_cloud(g, n, duplicates=bool(g.integers(2)), lattice=lattice)
            m = int(g.integers(1, n + 1))
            assert np.array_equal(
                fps(pts, m), brute_fps(pts, m)
            )

    def test_symmetric_tie_break(self):
        # Four corners of a square: every step has ties; the contract picks
        # the lexicographically smallest coordinates first.
        pts = np.array([[1, 1, 0], [-1, -1, 0], [1, -1, 0], [-1, 1, 0]], dtype=float)
        got = fps(pts, 4)
        assert np.array_equal(got, brute_fps(pts, 4))
        assert got[0] == 1  # (-1,-1,0) is lexicographically smallest

    def test_maxmin_radius_nonincreasing(self):
        g = rng(30)
        pts = g.normal(size=(60, 3))
        prev = np.inf
        for m in range(1, 30):
            sel = fps(pts, m)
            d = np.linalg.norm(pts[:, None] - pts[sel][None, :], axis=2).min(axis=1)
            radius = d.max()
            assert radius <= prev + 1e-12
            prev = radius

    def test_batch_matches_single(self):
        g = rng(31)
        pts = np.stack([random_cloud(g, 50, lattice=(i % 2 == 0)) for i in range(6)])
        out = nb.fps_batch(pts, 20)
        for i in range(6):
            assert np.array_equal(out[i], loop_fps(pts[i], 20))

    def test_batch_matches_single_on_mirror_symmetric_cloud(self):
        # Mirrored halves give every distance an exact twin, so nearly every
        # step goes through the tie-break; 1024 points is the paper's size.
        g = rng(36)
        half = g.normal(size=(512, 3))
        mirror = np.concatenate([half, half * [-1.0, 1.0, 1.0]])
        pts = np.stack([mirror, mirror[::-1] * 0.5])
        out = nb.fps_batch(pts, 256)
        for i in range(2):
            assert np.array_equal(out[i], loop_fps(pts[i], 256))

    def test_batch_matches_single_with_maxima_tied_at_both_ends(self):
        # The two farthest points from the centroid sit at index 0 and n-1,
        # so the first and last argmax differ only by the whole row's width;
        # the second cloud has no tie at the first step.
        g = rng(37)
        inner = g.normal(size=(30, 3)) * 0.1
        inner -= inner.mean(axis=0)
        ends = np.concatenate([[[1.0, 0.0, 0.0]], inner, [[-1.0, 0.0, 0.0]]])
        pts = np.stack([ends, g.normal(size=(32, 3))])
        out = nb.fps_batch(pts, 12)
        assert out[0, 0] == 31  # (-1, 0, 0) is lexicographically smaller
        for i in range(2):
            assert np.array_equal(out[i], loop_fps(pts[i], 12))

    def test_batch_matches_single_on_lattice(self):
        axis = np.arange(8.0)
        cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        pts = np.stack([cube, cube[rng(38).permutation(512)]])
        out = nb.fps_batch(pts, 64)
        for i in range(2):
            assert np.array_equal(out[i], loop_fps(pts[i], 64))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            fps(np.zeros((4, 3)), 5)
        with pytest.raises(ValueError):
            fps(np.zeros((4, 3)), 0)

    @pytest.mark.parametrize("shape", [(6, 3), (1, 6, 4), (1, 6, 2)])
    def test_rejects_other_shapes(self, shape):
        # Unchecked, FPS would ignore a fourth coordinate and index past the
        # end of a 2-D one.
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            nb.fps_batch(rng(33).normal(size=shape), 2)


class TestFeatureGraph:
    def test_matches_oracle(self):
        g = rng(33)
        for _ in range(20):
            n = int(g.integers(2, 30))
            f = int(g.integers(1, 10))
            feats = g.normal(size=(n, f))
            if g.integers(2) and n >= 2:
                feats[n // 2] = feats[0]  # exact duplicate rows
            k = int(g.integers(1, n + 2))
            assert np.array_equal(feature_knn(feats, k), brute_feature_knn(feats, k))

    def test_self_is_first_neighbor(self):
        g = rng(34)
        feats = g.normal(size=(20, 8))
        assert np.array_equal(feature_knn(feats, 5)[:, 0], np.arange(20))

    def test_duplicate_rows_resolve_by_index(self):
        feats = np.zeros((4, 3))
        # All rows identical: every list keeps the smallest indices.
        assert np.array_equal(feature_knn(feats, 2),
                              [[0, 1], [0, 1], [0, 1], [0, 1]])

    def test_batched_matches_flat(self):
        g = rng(35)
        corpus = g.normal(size=(3, 25, 6))
        queries = corpus[:, :10, :]
        out = nb.knn_features_batch(corpus, queries, 4)
        for b in range(3):
            assert np.array_equal(out[b], brute_feature_knn(corpus[b], 4)[:10])


def stable_topk(d2, k):
    """Reference selection: the first k columns of a stable argsort, padded."""
    order = np.argsort(d2, axis=-1, kind="stable")
    n = d2.shape[-1]
    if k > n:
        order = np.concatenate([order, np.repeat(order[..., :1], k - n, axis=-1)],
                               axis=-1)
    return order[..., :k]


def exact_sq_distances(corpus, queries):
    """(B, q, n) squared distances from one unblocked einsum."""
    diff = queries[:, :, None, :] - corpus[:, None, :, :]
    return np.einsum("bqnf,bqnf->bqn", diff, diff)


class TestSelectionMatchesStableArgsort:
    """Every flat kNN scan returns exactly what a stable argsort would."""

    def check_all(self, corpus, queries, k):
        want = stable_topk(exact_sq_distances(corpus, queries), k)
        assert np.array_equal(nb.knn_features_batch(corpus, queries, k), want)
        if corpus.shape[2] == 3:
            assert np.array_equal(nb.knn_points_batch(corpus, queries, k), want)
        return want

    def check_graph(self, feats, k, refs):
        d2 = exact_sq_distances(feats[None], feats[None, refs])[0]
        assert np.array_equal(feature_knn(feats, k, refs), stable_topk(d2, k))

    @pytest.mark.parametrize("k", [1, 5, 16, 27, 30])
    def test_integer_lattice(self, k):
        g = rng(40 + k)
        pts = g.integers(-2, 3, size=(2, 27, 3)).astype(np.float64)
        queries = np.concatenate([pts[:, :6], g.integers(-2, 3, size=(2, 4, 3))],
                                 axis=1).astype(np.float64)
        self.check_all(pts, queries, k)
        self.check_graph(pts[0], k, np.arange(27))

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_duplicate_feature_rows(self, k):
        g = rng(50 + k)
        feats = g.normal(size=(2, 20, 7))
        feats[:, 5] = feats[:, 0]
        feats[:, 12:15] = feats[:, 3:4]
        self.check_all(feats, feats[:, ::3], k)
        self.check_graph(feats[0], k, np.arange(0, 20, 2))

    @pytest.mark.parametrize("k", [1, 3, 6, 7, 10, 18, 26])
    def test_many_distances_equal_the_kth(self, k):
        # The 3x3x3 lattice around the origin: 6 points at distance 1, 12 at
        # sqrt 2, 8 at sqrt 3, so most k cut through a block of equal values.
        axis = np.array([-1.0, 0.0, 1.0])
        cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        perm = rng(60).permutation(27)
        pts = np.stack([cube, cube[perm]])
        queries = np.zeros((2, 3, 3))
        queries[:, 1] = [0.0, 0.0, 1.0]
        want = self.check_all(pts, queries, k)
        assert np.array_equal(want[0, 0, :min(k, 7)], [13, 4, 10, 12, 14, 16, 22][:k])
        self.check_graph(cube, k, np.array([13, 0, 26]))

    @pytest.mark.parametrize("extra", [0, 1, 4])
    def test_k_at_and_beyond_n_pads(self, extra):
        g = rng(70 + extra)
        pts = g.integers(-1, 2, size=(2, 9, 3)).astype(np.float64)
        want = self.check_all(pts, pts[:, :4], 9 + extra)
        assert np.array_equal(want[..., 9:], np.repeat(want[..., :1], extra, axis=-1))
        self.check_graph(pts[1], 9 + extra, np.arange(9))

    def test_blocked_distances_equal_one_einsum(self):
        # 300 rows of 64 features allow 26 queries per block: 4 blocks here.
        g = rng(80)
        corpus = g.normal(size=(300, 64))
        queries = np.concatenate([corpus[::7], g.normal(size=(57, 64))])
        got = nb.feature_sq_distances(corpus, queries)
        want = exact_sq_distances(corpus[None], queries[None])[0]
        assert queries.shape[0] > 3 * 500_000 // (300 * 64)
        assert np.array_equal(got, want)

    def test_ties_and_overflow_rows_in_one_batch(self):
        # One call mixes the two selection paths: distinct rows take the
        # stable sort of exactly k kept values, the rest the lexsort. Finite
        # coordinates near the float64 range square to +inf distances.
        g = rng(81)
        d2 = g.random((6, 40))
        d2[1] = np.round(d2[1] * 4)          # many ties at the k-th value
        d2[2, :] = 0.5                       # every entry equal
        d2[3, [2, 9, 30]] = np.inf           # overflowed distances sort last
        d2[4, :37] = np.inf                  # the k-th value overflowed
        for k in (1, 5, 6):
            assert np.array_equal(nb._nearest_k(d2, k), stable_topk(d2, k))
            assert np.array_equal(nb._nearest_k(d2[[0, 5]], k), stable_topk(d2[[0, 5]], k))


class TestScreenedFeatureKnn:
    """The GEMM-screened feature kNN returns the full scan's neighbours."""

    @staticmethod
    def full_scan(corpus, queries, k):
        d2 = np.stack([nb.feature_sq_distances(c, q) for c, q in zip(corpus, queries)])
        return stable_topk(d2, k)

    def check(self, corpus, queries, k, screened=True):
        want = self.full_scan(corpus, queries, k)
        assert np.array_equal(nb.knn_features_batch(corpus, queries, k), want)
        if screened:
            # The screen itself ran and agreed, rather than the fallback.
            got = nb._screened_nearest_k(corpus, queries, k)
            assert got is not None and np.array_equal(got, want)

    @pytest.mark.parametrize("f", [3, 4, 7, 16, 64, 128, 129, 256, 512])
    def test_widths(self, f):
        g = rng(100 + f)
        corpus = np.maximum(g.normal(size=(3, 70, f)), 0.0)
        queries = np.concatenate([corpus[:, ::4], corpus[:, :5] + 1e-9], axis=1)
        for k in (1, 5, 16, 69):
            self.check(corpus, queries, k)

    @pytest.mark.parametrize("exponent", [-160, -150, -100, -20, 0, 20, 100, 150, 160])
    def test_magnitudes(self, exponent):
        # Below 1e-154 squares underflow; above 1e154 the squared norms
        # overflow, and the full scan runs instead of the screen.
        g = rng(110)
        corpus = g.normal(size=(2, 40, 32)) * 10.0 ** exponent
        corpus[:, 20:30] = corpus[:, :10]
        queries = corpus[:, ::3] * (1.0 + 1e-12)
        self.check(corpus, queries, 7, screened=exponent < 160)
        if exponent == 160:
            assert nb._screened_nearest_k(corpus, queries, 7) is None

    @pytest.mark.parametrize("f", [3, 5, 8])
    def test_lattice_with_many_equal_distances(self, f):
        g = rng(120 + f)
        corpus = g.integers(-2, 3, size=(2, 90, f)).astype(np.float64)
        queries = np.concatenate([corpus[:, :10], np.zeros((2, 1, f))], axis=1)
        for k in (1, 4, 10, 33, 89):
            self.check(corpus, queries, k)

    @pytest.mark.parametrize("f", [4, 16, 96])
    def test_distances_small_against_the_norms(self, f):
        # A large common offset: the screen's cancellation error dwarfs the
        # gaps between distances, so only the re-scoring orders them.
        g = rng(125 + f)
        offsets = g.integers(-2, 3, size=(2, 80, f)) * 1e-3
        corpus = 1e3 + g.normal(size=f) + offsets
        queries = corpus[:, ::5] + g.integers(-1, 2, size=(2, 16, f)) * 5e-4
        for k in (1, 3, 8, 40):
            self.check(corpus, queries, k)

    def test_duplicates_and_mirror_symmetric_cloud(self):
        g = rng(130)
        half = g.normal(size=(2, 60, 24))
        mirror = half.copy()
        mirror[..., ::2] *= -1.0
        corpus = np.concatenate([half, mirror, half[:, :15]], axis=1)
        # Queries on the mirror plane are equidistant from each mirrored pair.
        plane = half[:, :12].copy()
        plane[..., ::2] = 0.0
        queries = np.concatenate([corpus[:, ::7], plane], axis=1)
        for k in (2, 6, 31):
            self.check(corpus, queries, k)

    @pytest.mark.parametrize("extra", [0, 3])
    def test_k_at_or_above_n_scans_in_full(self, extra):
        g = rng(140)
        corpus = g.normal(size=(2, 12, 9))
        self.check(corpus, corpus[:, :5], 12 + extra, screened=False)

    def test_no_queries(self):
        corpus = rng(160).normal(size=(2, 10, 4))
        assert nb.knn_features_batch(corpus, corpus[:, :0], 3).shape == (2, 0, 3)


class TestPointScan:
    """The coordinate-major 3-D scan gives the feature scan's bits."""

    @pytest.mark.parametrize("cloud", ["random", "lattice", "mirror", "small", "large"])
    def test_equals_feature_sq_distances(self, cloud):
        g = rng(90)
        if cloud == "lattice":
            pts = g.integers(-4, 5, size=(2, 200, 3)).astype(np.float64)
        elif cloud == "mirror":
            half = g.normal(size=(2, 100, 3))
            pts = np.concatenate([half, half * [1.0, -1.0, 1.0]], axis=1)
        else:
            scale = {"random": 1.0, "small": 1e-3, "large": 1e3}[cloud]
            pts = g.normal(size=(2, 200, 3)) * scale
        queries = np.concatenate([pts[:, ::3], pts[:, :20] + 0.25 * pts[:, 20:40]],
                                 axis=1)
        got = nb._point_sq_distances(pts, queries)
        for b in range(2):
            assert np.array_equal(got[b], nb.feature_sq_distances(pts[b], queries[b]))
        assert np.array_equal(got, exact_sq_distances(pts, queries))

    def test_rejects_other_widths(self):
        with pytest.raises(ValueError, match="3"):
            nb.knn_points_batch(np.zeros((1, 5, 4)), np.zeros((1, 2, 4)), 2)


class TestNonFinitePoints:
    """FPS and every search, feature kNN included, reject NaN/Inf inputs."""

    @staticmethod
    def cloud(bad):
        pts = rng(90).normal(size=(16, 3))
        pts[3, 1] = bad
        return pts

    CALLS = {
        "fps_batch": lambda p: nb.fps_batch(p[None], 4),
        "fps_batch_second_cloud": lambda p: nb.fps_batch(
            np.stack([np.ones_like(p), p]), 4),
        "knn_points_batch": lambda p: nb.knn_points_batch(p[None], p[None, :2], 3),
        "knn_points_batch_query": lambda p: nb.knn_points_batch(
            np.zeros((1, 5, 3)), p[None], 3),
        "knn_points_batch_second_cloud": lambda p: nb.knn_points_batch(
            np.stack([np.ones_like(p), p]), np.zeros((2, 2, 3)), 3),
        "ball_points_batch": lambda p: nb.ball_points_batch(
            p[None], p[None, :2], 0.5, 3),
        "ball_points_batch_query": lambda p: nb.ball_points_batch(
            np.zeros((1, 5, 3)), p[None], 0.5, 3),
        "knn_features_batch": lambda p: nb.knn_features_batch(p[None], p[None, :2], 3),
        "knn_features_batch_query": lambda p: nb.knn_features_batch(
            np.zeros((1, 5, 3)), p[None], 3),
        "knn_features_batch_second_cloud": lambda p: nb.knn_features_batch(
            np.stack([np.ones_like(p), p]), np.zeros((2, 2, 3)), 3),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            self.CALLS[call](self.cloud(bad))


class TestSearchInputContract:
    """Every search refuses a corpus and queries it cannot pair, naming both
    shapes, rather than dropping query clouds or returning empty lists."""

    SEARCHES = {
        "knn_points_batch": lambda c, q: nb.knn_points_batch(c, q, 2),
        "ball_points_batch": lambda c, q: nb.ball_points_batch(c, q, 0.5, 2),
        "knn_features_batch": lambda c, q: nb.knn_features_batch(c, q, 2),
    }
    SHAPES = {
        "batch_size": ((1, 6, 3), (2, 2, 3)),
        "width": ((1, 6, 3), (1, 2, 4)),
        "rank": ((6, 3), (2, 3)),
        "empty_corpus": ((1, 0, 3), (1, 2, 3)),
    }

    @pytest.mark.parametrize("mismatch", sorted(SHAPES))
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_rejected(self, search, mismatch):
        corpus_shape, query_shape = self.SHAPES[mismatch]
        g = rng(96)
        corpus, queries = g.normal(size=corpus_shape), g.normal(size=query_shape)
        with pytest.raises(ValueError,
                           match=re.escape(f"{corpus_shape} and {query_shape}")):
            self.SEARCHES[search](corpus, queries)
