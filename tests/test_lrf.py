"""Local reference frames: construction, equivariance, degeneracy handling."""
import re

import numpy as np
import pytest

from aecnn import geometry as geo
from aecnn import lrf
from aecnn import neighbors as nb
from aecnn.config import ANCHOR_MODES

from oracles import gram_schmidt_frame, is_rotation_matrix, max_projection_anchor


def rng(seed=0):
    return np.random.default_rng(seed)


def make_neighborhood(g, k=12):
    """A reference and its neighbors, nothing degenerate."""
    reference = g.normal(size=3)
    while np.linalg.norm(reference) < 0.3:
        reference = g.normal(size=3)
    neighbors = reference + 0.2 * g.normal(size=(k, 3))
    return reference, neighbors


def frame(reference, neighbors, strategy="mean"):
    """compute_lrf_batch for one reference: the (3, 3) basis."""
    return lrf.compute_lrf_batch(reference[None], neighbors[None],
                                 strategy=strategy)[0]


def frame_at_anchor(reference, anchor):
    """The frame whose anchor is `anchor`: a one-point neighborhood's mean is
    that point exactly, so a strategy that picks `anchor` gives these bits."""
    return frame(reference, anchor[None])


class TestAnchors:
    """Each strategy's anchor, seen through the frame it builds."""

    def test_anchor_mean_is_barycenter(self):
        g = rng(40)
        reference, pts = make_neighborhood(g, k=9)
        assert np.array_equal(frame(reference, pts),
                              frame_at_anchor(reference, pts.mean(axis=0)))

    def test_anchor_max_projection_picks_offaxis_extreme(self):
        reference = np.array([0.0, 0.0, 1.0])  # z axis is +z, origin 0
        neighbors = np.array([
            [0.1, 0.1, 0.9],
            [0.5, 0.0, 1.2],   # farthest from the z axis
            [0.0, 0.2, 1.0],
            [0.0, 0.0, 2.0],   # on the axis entirely
        ])
        got = frame(reference, neighbors, strategy="max_projection")
        assert np.array_equal(got, frame_at_anchor(reference, neighbors[1]))
        assert np.allclose(got[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_anchor_max_projection_tie_takes_first(self):
        reference = np.array([0.0, 0.0, 1.0])
        neighbors = np.array([
            [0.0, 0.0, 1.5],
            [0.3, 0.0, 1.0],
            [-0.3, 0.0, 1.0],  # same axis distance as row 1
        ])
        got = frame(reference, neighbors, strategy="max_projection")
        assert np.array_equal(got, frame_at_anchor(reference, neighbors[1]))

    def test_anchor_max_projection_matches_loop(self):
        g = rng(55)
        for _ in range(50):
            reference, neighbors = make_neighborhood(g)
            shift = g.normal(size=3) * 0.1
            reference, neighbors = reference - shift, neighbors - shift
            got = frame(reference, neighbors, "max_projection")
            want = max_projection_anchor(neighbors, reference)
            assert np.array_equal(got, frame_at_anchor(reference, want))

    def test_unknown_strategy_rejected(self):
        # Only the config strings name a strategy, spelled exactly.
        reference, neighbors = make_neighborhood(rng(56))
        for name in ("median", "MEAN"):
            with pytest.raises(ValueError, match=re.escape(str(ANCHOR_MODES))):
                frame(reference, neighbors, name)


class TestComputeLrf:
    @pytest.mark.parametrize("strategy", ["mean", "max_projection"])
    def test_orthonormal_right_handed(self, strategy):
        g = rng(41)
        refs, hoods = map(np.stack, zip(*(make_neighborhood(g) for _ in range(100))))
        for b in lrf.compute_lrf_batch(refs, hoods, strategy=strategy):
            assert np.allclose(b @ b.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(np.cross(b[0], b[1]), b[2], atol=1e-12)

    def test_z_points_away_from_origin(self):
        g = rng(42)
        reference, neighbors = make_neighborhood(g)
        expected = reference / np.linalg.norm(reference)
        assert np.allclose(frame(reference, neighbors)[2], expected, atol=1e-12)

    def test_matches_gram_schmidt_oracle(self):
        g = rng(43)
        for _ in range(100):
            reference, neighbors = make_neighborhood(g)
            shift = g.normal(size=3) * 0.1
            reference, neighbors = reference - shift, neighbors - shift
            oracle = gram_schmidt_frame(reference, neighbors.mean(axis=0))
            assert np.allclose(frame(reference, neighbors), oracle, atol=1e-12)

    def test_x_orthogonal_to_z(self):
        g = rng(44)
        for _ in range(50):
            reference, neighbors = make_neighborhood(g)
            b = frame(reference, neighbors, strategy="max_projection")
            assert abs(b[0] @ b[2]) < 1e-12


class TestRirOps:
    def test_rir_is_frame_coordinates(self):
        g = rng(45)
        reference, neighbors = make_neighborhood(g)
        basis = frame(reference, neighbors)
        p = g.normal(size=3)
        got = lrf.rir_batch(p[None, None], reference[None], basis[None])[0, 0]
        # Reconstruct: reference + basis^T @ coords must give p back.
        assert np.allclose(reference + basis.T @ got, p, atol=1e-12)

    def test_relative_rotation_identity_for_same_frame(self):
        g = rng(47)
        basis = frame(*make_neighborhood(g))
        assert np.allclose(lrf.relative_rotation_batch(basis, basis[None]), np.eye(3),
                           atol=1e-12)

    def test_relative_rotation_is_rotation(self):
        g = rng(48)
        fa = frame(*make_neighborhood(g))
        fb = frame(*make_neighborhood(g))
        assert is_rotation_matrix(lrf.relative_rotation_batch(fa, fb[None])[0],
                                  tol=1e-10)


class TestEquivariance:
    """The property the whole method rests on: rotate the cloud, frames
    co-rotate, frame-relative quantities stay fixed."""

    def frames(self, pts, strategy="mean", n_ref=8, k=6):
        """Bases (n_ref, 3, 3) at FPS references with kNN neighborhoods, and
        the reference points."""
        refs = nb.fps_batch(pts[None], n_ref)[0]
        lists = nb.knn_points_batch(pts[None], pts[None, refs], k)[0]
        return lrf.compute_lrf_batch(pts[refs], pts[lists], strategy=strategy), pts[refs]

    def test_basis_co_rotates(self):
        g = rng(50)
        for _ in range(20):
            pts = geo.normalize(geo.PointCloud(g.normal(size=(40, 3)))).points
            r = geo.sample_arbitrary_rotation(g)
            f0, _ = self.frames(pts)
            f1, _ = self.frames(pts @ r.T)
            assert np.allclose(f1, f0 @ r.T, atol=1e-9)

    @pytest.mark.parametrize("strategy", ["mean", "max_projection"])
    def test_rir_and_relative_rotation_invariant(self, strategy):
        g = rng(51)
        for _ in range(20):
            pts = geo.normalize(geo.PointCloud(g.normal(size=(40, 3)))).points
            r = geo.sample_arbitrary_rotation(g)
            f0, refs0 = self.frames(pts, strategy)
            f1, refs1 = self.frames(pts @ r.T, strategy)
            # Every reference in every reference's frame, and every pair's
            # relative rotation.
            n = len(refs0)
            rir0 = lrf.rir_batch(np.broadcast_to(refs0, (n, n, 3)), refs0, f0)
            rir1 = lrf.rir_batch(np.broadcast_to(refs1, (n, n, 3)), refs1, f1)
            assert np.allclose(rir0, rir1, atol=1e-7)
            rel0 = lrf.relative_rotation_batch(f0, np.broadcast_to(f0, (n, n, 3, 3)))
            rel1 = lrf.relative_rotation_batch(f1, np.broadcast_to(f1, (n, n, 3, 3)))
            assert np.allclose(rel0, rel1, atol=1e-7)


class TestFrameShapeContract:
    """Frames and RIRs refuse stacks whose leading shapes differ instead of
    broadcasting one neighborhood, reference or frame across the others."""

    @pytest.mark.parametrize("references,neighborhoods", [
        ((5, 3), (1, 4, 3)),     # one neighborhood for five references
        ((1, 3), (5, 4, 3)),
        ((2, 5, 3), (5, 4, 3)),
        ((5, 3), (5, 3)),        # no neighbor axis
        ((5, 3), (5, 0, 3)),     # empty neighborhoods
        ((5, 2), (5, 4, 2)),
    ])
    def test_frames_rejected(self, references, neighborhoods):
        with pytest.raises(ValueError, match="leading shape") as err:
            lrf.compute_lrf_batch(np.ones(references), np.ones(neighborhoods))
        assert str(neighborhoods) in str(err.value)

    @pytest.mark.parametrize("points,references,bases", [
        ((1, 4, 3), (5, 3), (5, 3, 3)),  # one neighborhood for five frames
        ((5, 4, 3), (5, 3), (1, 3, 3)),
        ((5, 4, 3), (1, 3), (5, 3, 3)),
        ((5, 4, 3), (5, 3), (5, 3)),
        ((5, 4, 2), (5, 3), (5, 3, 3)),
        ((5, 0, 3), (5, 3), (5, 3, 3)),
    ])
    def test_rirs_rejected(self, points, references, bases):
        with pytest.raises(ValueError, match="leading shape") as err:
            lrf.rir_batch(np.ones(points), np.ones(references), np.ones(bases))
        assert str(points) in str(err.value)


class TestBatchKernels:
    def test_batch_matches_gram_schmidt_oracle(self):
        g = rng(52)
        refs = np.stack([make_neighborhood(g)[0] for _ in range(15)])
        hoods = np.stack([g.normal(size=(7, 3)) + refs[i] for i in range(15)])
        shift = g.normal(size=3) * 0.1
        refs, hoods = refs - shift, hoods - shift
        anchors = {
            "mean": [h.mean(axis=0) for h in hoods],
            "max_projection": [max_projection_anchor(h, r)
                               for r, h in zip(refs, hoods)],
        }
        for strategy, picks in anchors.items():
            bases = lrf.compute_lrf_batch(refs, hoods, strategy=strategy)
            for i in range(15):
                oracle = gram_schmidt_frame(refs[i], picks[i])
                assert np.allclose(bases[i], oracle, atol=1e-14)

    def test_rir_batch_matches_scalar(self):
        g = rng(53)
        refs = np.stack([make_neighborhood(g)[0] for _ in range(6)])
        hoods = np.stack([g.normal(size=(5, 3)) + refs[i] for i in range(6)])
        bases = lrf.compute_lrf_batch(refs, hoods)
        out = lrf.rir_batch(hoods, refs, bases)
        for i in range(6):
            for j in range(5):
                assert np.allclose(out[i, j], bases[i] @ (hoods[i, j] - refs[i]),
                                   atol=1e-14)

    def test_degenerate_reference_falls_back(self):
        refs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        hoods = np.array([
            [[0.4, 0.1, 0.0], [0.5, -0.2, 0.1]],
            [[0.3, 0.0, 2.1], [0.1, 0.2, 1.9]],
        ])
        counts = {}
        bases = lrf.compute_lrf_batch(refs, hoods, counts=counts)
        assert counts["degenerate_reference"] == 1
        assert np.allclose(bases[0, 2], [0.0, 0.0, 1.0], atol=1e-15)  # fallback z
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
        # Two frames, each against two neighbor frames.
        rel = lrf.relative_rotation_batch(bases[:2], np.stack([bases[2:], bases[:2]], 1))
        assert rel.shape == (2, 2, 3, 3)
        for i in range(2):
            assert np.allclose(rel[i, 0], bases[i] @ bases[i + 2].T, atol=1e-14)
            assert np.allclose(rel[i, 1], bases[i] @ bases[i].T, atol=1e-14)
