"""Local reference frames: construction, equivariance, degeneracy handling."""
import logging

import numpy as np
import pytest

from aecnn import geometry as geo
from aecnn import lrf
from aecnn import neighbors as nb

from oracles import gram_schmidt_frame, max_projection_anchor


def rng(seed=0):
    return np.random.default_rng(seed)


def make_neighborhood(g, k=12):
    """A reference, its neighbors, and the cloud origin, nothing degenerate."""
    reference = g.normal(size=3)
    while np.linalg.norm(reference) < 0.3:
        reference = g.normal(size=3)
    neighbors = reference + 0.2 * g.normal(size=(k, 3))
    return reference, neighbors


class TestAnchors:
    def test_anchor_mean_is_barycenter(self):
        g = rng(40)
        pts = g.normal(size=(9, 3))
        assert np.allclose(lrf.anchor_mean(pts), pts.mean(axis=0), atol=1e-15)

    def test_anchor_max_projection_picks_offaxis_extreme(self):
        reference = np.array([0.0, 0.0, 1.0])  # z axis is +z, origin 0
        neighbors = np.array([
            [0.1, 0.0, 0.9],
            [0.5, 0.0, 1.2],   # farthest from the z axis
            [0.0, 0.2, 1.0],
            [0.0, 0.0, 2.0],   # on the axis entirely
        ])
        got = lrf.anchor_max_projection(neighbors, reference)
        assert np.allclose(got, neighbors[1])

    def test_anchor_max_projection_tie_takes_first(self):
        reference = np.array([0.0, 0.0, 1.0])
        neighbors = np.array([
            [0.0, 0.0, 1.5],
            [0.3, 0.0, 1.0],
            [-0.3, 0.0, 1.0],  # same axis distance as row 1
        ])
        got = lrf.anchor_max_projection(neighbors, reference)
        assert np.allclose(got, neighbors[1])

    def test_anchor_max_projection_matches_loop(self):
        g = rng(55)
        for _ in range(50):
            reference, neighbors = make_neighborhood(g)
            origin = g.normal(size=3) * 0.1
            got = lrf.anchor_max_projection(neighbors, reference, origin)
            want = max_projection_anchor(neighbors, reference, origin)
            assert np.array_equal(got, want)

    def test_strategy_parse(self):
        assert lrf.AnchorStrategy.from_name("mean") is lrf.AnchorStrategy.MEAN
        assert (lrf.AnchorStrategy.from_name("MAX_PROJECTION")
                is lrf.AnchorStrategy.MAX_PROJECTION)
        with pytest.raises(ValueError):
            lrf.AnchorStrategy.from_name("median")


class TestComputeLrf:
    @pytest.mark.parametrize("strategy", ["mean", "max_projection"])
    def test_orthonormal_right_handed(self, strategy):
        g = rng(41)
        for _ in range(100):
            reference, neighbors = make_neighborhood(g)
            frame = lrf.compute_lrf(reference, neighbors, strategy=strategy)
            b = frame.basis
            assert np.allclose(b @ b.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(np.cross(b[0], b[1]), b[2], atol=1e-12)

    def test_z_points_away_from_origin(self):
        g = rng(42)
        reference, neighbors = make_neighborhood(g)
        frame = lrf.compute_lrf(reference, neighbors)
        expected = reference / np.linalg.norm(reference)
        assert np.allclose(frame.z, expected, atol=1e-12)

    def test_matches_gram_schmidt_oracle(self):
        g = rng(43)
        for _ in range(100):
            reference, neighbors = make_neighborhood(g)
            origin = g.normal(size=3) * 0.1
            frame = lrf.compute_lrf(reference, neighbors, origin=origin)
            oracle = gram_schmidt_frame(reference, lrf.anchor_mean(neighbors), origin)
            assert np.allclose(frame.basis, oracle, atol=1e-12)

    def test_reference_at_origin_raises(self):
        with pytest.raises(lrf.DegenerateReferenceError):
            lrf.compute_lrf(np.zeros(3), np.ones((4, 3)))

    def test_anchor_on_axis_raises(self):
        reference = np.array([0.0, 0.0, 1.0])
        neighbors = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 1.5]])
        with pytest.raises(lrf.DegenerateAnchorError):
            lrf.compute_lrf(reference, neighbors)

    def test_x_orthogonal_to_z(self):
        g = rng(44)
        for _ in range(50):
            reference, neighbors = make_neighborhood(g)
            frame = lrf.compute_lrf(reference, neighbors,
                                    strategy="max_projection")
            assert abs(frame.x @ frame.z) < 1e-12


class TestRirOps:
    def test_rir_is_frame_coordinates(self):
        g = rng(45)
        reference, neighbors = make_neighborhood(g)
        frame = lrf.compute_lrf(reference, neighbors)
        p = g.normal(size=3)
        got = lrf.rir(p, frame)
        # Reconstruct: origin + basis^T @ coords must give p back.
        assert np.allclose(frame.origin + frame.basis.T @ got, p, atol=1e-12)

    def test_relative_rotation_identity_for_same_frame(self):
        g = rng(47)
        reference, neighbors = make_neighborhood(g)
        frame = lrf.compute_lrf(reference, neighbors)
        assert np.allclose(lrf.relative_rotation(frame, frame), np.eye(3), atol=1e-12)

    def test_relative_rotation_is_rotation(self):
        g = rng(48)
        ra, na = make_neighborhood(g)
        rb, nbodies = make_neighborhood(g)
        fa = lrf.compute_lrf(ra, na)
        fb = lrf.compute_lrf(rb, nbodies)
        assert geo.is_rotation_matrix(lrf.relative_rotation(fa, fb), tol=1e-10)


class TestEquivariance:
    """The property the whole method rests on: rotate the cloud, frames
    co-rotate, frame-relative quantities stay fixed."""

    def select(self, pts, n_ref=8, k=6):
        refs = nb.farthest_point_sampling(pts, n_ref)
        lists = nb.knn_points(pts, pts[refs], k)
        return refs, lists

    def test_basis_co_rotates(self):
        g = rng(50)
        for _ in range(20):
            pts = geo.normalize(geo.PointCloud(g.normal(size=(40, 3)))).points
            r = geo.sample_arbitrary_rotation(g)
            rot = pts @ r.T
            refs, lists = self.select(pts)
            for ri, row in zip(refs, lists):
                f0 = lrf.compute_lrf(pts[ri], pts[row])
                f1 = lrf.compute_lrf(rot[ri], rot[row])
                assert np.allclose(f1.basis, f0.basis @ r.T, atol=1e-9)

    @pytest.mark.parametrize("strategy", ["mean", "max_projection"])
    def test_rir_and_relative_rotation_invariant(self, strategy):
        g = rng(51)
        for _ in range(20):
            pts = geo.normalize(geo.PointCloud(g.normal(size=(40, 3)))).points
            r = geo.sample_arbitrary_rotation(g)
            rot = pts @ r.T
            refs, lists = self.select(pts)
            for a in range(len(refs)):
                f0 = lrf.compute_lrf(pts[refs[a]], pts[lists[a]], strategy=strategy)
                f1 = lrf.compute_lrf(rot[refs[a]], rot[lists[a]], strategy=strategy)
                for b in range(len(refs)):
                    g0 = lrf.compute_lrf(pts[refs[b]], pts[lists[b]], strategy=strategy)
                    g1 = lrf.compute_lrf(rot[refs[b]], rot[lists[b]], strategy=strategy)
                    assert np.allclose(
                        lrf.rir(pts[refs[b]], f0), lrf.rir(rot[refs[b]], f1),
                        atol=1e-7,
                    )
                    assert np.allclose(
                        lrf.relative_rotation(f0, g0), lrf.relative_rotation(f1, g1),
                        atol=1e-7,
                    )


class TestBatchKernels:
    def test_batch_matches_gram_schmidt_oracle(self):
        g = rng(52)
        refs = np.stack([make_neighborhood(g)[0] for _ in range(15)])
        hoods = np.stack([g.normal(size=(7, 3)) + refs[i] for i in range(15)])
        origin = g.normal(size=3) * 0.1
        anchors = {
            "mean": [h.mean(axis=0) for h in hoods],
            "max_projection": [max_projection_anchor(h, r, origin)
                               for r, h in zip(refs, hoods)],
        }
        for strategy, picks in anchors.items():
            bases = lrf.compute_lrf_batch(refs, hoods, origin=origin,
                                          strategy=strategy)
            for i in range(15):
                oracle = gram_schmidt_frame(refs[i], picks[i], origin)
                assert np.allclose(bases[i], oracle, atol=1e-14)

    def test_rir_batch_matches_scalar(self):
        g = rng(53)
        refs = np.stack([make_neighborhood(g)[0] for _ in range(6)])
        hoods = np.stack([g.normal(size=(5, 3)) + refs[i] for i in range(6)])
        bases = lrf.compute_lrf_batch(refs, hoods)
        out = lrf.rir_batch(hoods, refs, bases)
        for i in range(6):
            frame = lrf.Lrf(origin=refs[i], basis=bases[i])
            for j in range(5):
                assert np.allclose(out[i, j], lrf.rir(hoods[i, j], frame), atol=1e-14)

    def test_degenerate_reference_falls_back(self, caplog):
        refs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        hoods = np.array([
            [[0.4, 0.1, 0.0], [0.5, -0.2, 0.1]],
            [[0.3, 0.0, 2.1], [0.1, 0.2, 1.9]],
        ])
        counts = {}
        with caplog.at_level(logging.WARNING, logger="aecnn.lrf"):
            bases = lrf.compute_lrf_batch(refs, hoods, counts=counts)
        assert counts["degenerate_reference"] == 1
        assert np.allclose(bases[0, 2], [0.0, 0.0, 1.0], atol=1e-15)  # fallback z
        assert caplog.records  # warning was logged
        # Sane frame for the good row.
        assert np.allclose(bases[1] @ bases[1].T, np.eye(3), atol=1e-12)

    def test_degenerate_anchor_falls_back(self):
        refs = np.array([[0.0, 0.0, 1.0]])
        hoods = np.array([[[0.0, 0.0, 0.5], [0.0, 0.0, 1.5]]])  # mean on the z axis
        counts = {}
        bases = lrf.compute_lrf_batch(refs, hoods, counts=counts)
        assert counts["degenerate_anchor"] == 1
        # Fallback x is the projection of +x off z = +z, which is +x itself.
        assert np.allclose(bases[0, 0], [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(bases[0] @ bases[0].T, np.eye(3), atol=1e-12)

    def test_fallback_x_when_z_parallel_to_x(self):
        # z axis lands on +x and the anchor is also axial: the +x projection
        # vanishes, so the secondary +y projection must kick in.
        refs = np.array([[1.0, 0.0, 0.0]])
        hoods = np.array([[[0.5, 0.0, 0.0], [1.5, 0.0, 0.0]]])
        bases = lrf.compute_lrf_batch(refs, hoods)
        assert np.allclose(bases[0, 2], [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(bases[0, 0], [0.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(bases[0] @ bases[0].T, np.eye(3), atol=1e-12)

    def test_relative_rotation_batch_shapes(self):
        g = rng(54)
        refs = np.stack([make_neighborhood(g)[0] for _ in range(4)])
        hoods = np.stack([g.normal(size=(5, 3)) + refs[i] for i in range(4)])
        bases = lrf.compute_lrf_batch(refs, hoods)
        rel = lrf.relative_rotation_batch(bases[:2], bases[2:])
        for i in range(2):
            assert np.allclose(rel[i], bases[i] @ bases[i + 2].T, atol=1e-14)
