"""The set-abstraction network with frame-aligned edge convolutions.

Layout: an SAFirst block groups Euclidean neighborhoods around FPS reference
points, expresses them in local reference frames, and pools a shared MLP per
neighborhood. SANext blocks keep a quarter of the references (FPS over their
positions), build kNN graphs in feature space, and run an edge convolution
whose neighbor features are first aligned into the reference's frame. A
model has one head: a max pool plus head MLP for class logits, or two aligned
interpolation stages that propagate features back to every point's part logits.

Every input cloud is canonically reordered (lexicographic point sort) on
entry, which makes the full pipeline bitwise permutation invariant, and all
geometry consumed by the MLPs is frame-relative, which makes it rotation
invariant to float precision.
"""
from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import lrf
from . import neighbors as nb
from .config import NetworkConfig, ConfigError
from .nn import Mlp

AECONV1_PENALTY_WEIGHT = 1e-3
FP_NEIGHBORS = 3
FP_DISTANCE_FLOOR = 1e-10
# Forward-only SA-first runs its MLP on blocks of references whose widest
# activation holds about this many float64 values (4 MB).
SA_FIRST_BLOCK_ELEMS = 500_000


class AlignVariant(enum.Enum):
    """How a neighbor's feature is brought into the reference's frame."""

    PLAIN_EDGECONV = "edgeconv"
    AECONV1 = "aeconv1"   # predicted FxF matrix applied to x_j
    AECONV2 = "aeconv2"   # MLP on raw frame pair + offset + feature
    AECONV3 = "aeconv3"   # MLP on relative rotation + offset + feature

    @classmethod
    def from_name(cls, name) -> "AlignVariant":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(
                f"unknown align variant {name!r}; expected one of "
                f"{[v.value for v in cls]}"
            ) from None


@dataclass
class SaOutput:
    """Per-reference outputs of one set-abstraction block (single cloud)."""

    ref_points: np.ndarray    # (r, 3)
    frame_bases: np.ndarray   # (r, 3, 3)
    features: np.ndarray      # (r, f)

    def __post_init__(self):
        r = self.ref_points.shape[0]
        if self.frame_bases.shape[0] != r or self.features.shape[0] != r:
            raise ValueError("ref_points, frames, features must align")

    @property
    def frames(self) -> list:
        return [lrf.Lrf(origin=p, basis=b)
                for p, b in zip(self.ref_points, self.frame_bases)]

    def __len__(self) -> int:
        return self.ref_points.shape[0]


@dataclass
class _Level:
    """Batched per-level state flowing through the encoder."""

    pts: np.ndarray           # (b, r, 3)
    bases: np.ndarray         # (b, r, 3, 3)
    feat: object              # Tensor (b, r, f)


def _bidx(b: int, idx: np.ndarray) -> np.ndarray:
    return np.broadcast_to(
        np.arange(b).reshape((b,) + (1,) * (idx.ndim - 1)), idx.shape
    )


def _align_edge_features(variant: AlignVariant, align_mlp, src, idx: np.ndarray,
                         bases_i: np.ndarray, bases_j: np.ndarray,
                         t: np.ndarray, penalties: list):
    """Neighbor features src[idx] (.., k, f) aligned into the reference frames.

    src: Tensor (b, n, f) of source rows; idx: (b, .., k) the neighbors' rows
    in it; bases_i: (.., 3, 3) reference frames; bases_j: (.., k, 3, 3)
    neighbor frames; t: (.., k, 3) neighbor offsets expressed in the
    reference frame. Geometry enters as constants; gradient flows through the
    gathered rows and the MLP. AEConv2 and AEConv3 gather the rows behind
    their geometry code, straight into the align MLP's input buffer. AEConv1
    appends its orthogonality penalty Tensor to `penalties`.
    """
    if variant is AlignVariant.AECONV2:
        ei = np.broadcast_to(
            bases_i[..., None, :, :], bases_j.shape
        ).reshape(bases_j.shape[:-2] + (9,))
        ej = bases_j.reshape(bases_j.shape[:-2] + (9,))
        code = np.concatenate([ei, ej, t], axis=-1)
        return align_mlp(ad.gather_rows(src, idx, prefix=code))
    if variant is AlignVariant.PLAIN_EDGECONV:
        return ad.gather_rows(src, idx)
    rel = lrf.relative_rotation_batch(bases_i, bases_j)
    code = np.concatenate([rel.reshape(rel.shape[:-2] + (9,)), t], axis=-1)
    if variant is AlignVariant.AECONV3:
        return align_mlp(ad.gather_rows(src, idx, prefix=code))
    f = src.values.shape[-1]
    m = ad.reshape(align_mlp(ad.constant(code)), code.shape[:-1] + (f, f))
    penalties.append(ad.orthogonality_penalty(m))
    return ad.edge_matvec(m, ad.gather_rows(src, idx))


class Model:
    """Weights plus forward passes for one NetworkConfig.

    Construction draws fresh parameters from the seed; `load_values` swaps in
    checkpointed arrays. All forward entry points sort the points of each
    cloud into canonical order first, so point order never matters.
    """

    def __init__(self, config: NetworkConfig, seed: int = 0):
        config.validated()
        self.config = config
        self.params: dict = {}
        self.lrf_fallbacks: dict = {}
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
        c = config

        in_dim = 3 if c.features == "rir" else 6
        self.h_mlp = Mlp((in_dim, *c.sa_first.widths), rng, self.params,
                         "sa_first.h", normalize=c.normalize)

        self.block_mlps = []
        f_in = c.sa_first.widths[-1]
        for i, blk in enumerate(c.sa_next, start=1):
            variant = AlignVariant.from_name(blk.variant or c.variant)
            hidden = c.aeconv1_hidden if variant is AlignVariant.AECONV1 else f_in
            align = self._build_align_mlp(variant, f_in, hidden, rng,
                                          f"sa_next{i}.align")
            q_in = 2 * f_in if variant is AlignVariant.PLAIN_EDGECONV else 2 * f_in + 3
            q = Mlp((q_in, *blk.widths), rng, self.params, f"sa_next{i}.q",
                    normalize=c.normalize)
            self.block_mlps.append((variant, align, q, blk.k))
            f_in = blk.widths[-1]

        # A segmenter draws and drops this head, so later weights keep their bits.
        head = Mlp((f_in, *c.head_widths, c.n_classes), rng,
                   {} if c.n_parts else self.params, "head")
        self.head_mlp = None if c.n_parts else head

        self.fp_stages = []
        self.point_head = None
        if c.n_parts:
            variant = AlignVariant.from_name(c.variant)
            widths = c.feature_widths()          # (f1, f2, f3)
            # Stage 1: coarsest level onto the sa_first references (skip f1);
            # stage 2: onto the raw points (no skip).
            specs = [
                (widths[-1], widths[0], c.fp_widths[0]),
                (c.fp_widths[0], 0, c.fp_widths[1]),
            ]
            for si, (f_coarse, f_skip, f_out) in enumerate(specs, start=1):
                align = self._build_align_mlp(variant, f_coarse, c.fp_align_hidden,
                                              rng, f"fp{si}.align")
                mlp = Mlp((f_coarse + f_skip, f_out, f_out), rng, self.params,
                          f"fp{si}.mlp", normalize=c.normalize)
                self.fp_stages.append((variant, align, mlp))
            self.point_head = Mlp(
                (c.fp_widths[1] + c.n_classes, *c.point_head, c.n_parts),
                rng, self.params, "point_head", normalize=c.normalize,
            )

    def _build_align_mlp(self, variant: AlignVariant, f: int, hidden: int,
                         rng, name: str):
        if variant is AlignVariant.PLAIN_EDGECONV:
            return None
        if variant is AlignVariant.AECONV1:
            return Mlp((12, hidden, f * f), rng, self.params, name)
        if variant is AlignVariant.AECONV2:
            return Mlp((21 + f, hidden, f), rng, self.params, name)
        return Mlp((12 + f, hidden, f), rng, self.params, name)

    # -- weight management ---------------------------------------------------

    def values(self) -> dict:
        return {k: t.values.copy() for k, t in self.params.items()}

    def load_values(self, arrays: dict):
        missing = [k for k in self.params if k not in arrays]
        extra = [k for k in arrays if k not in self.params]
        if missing or extra:
            raise ValueError(
                f"weight name mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for k, t in self.params.items():
            a = np.asarray(arrays[k], dtype=np.float64)
            if a.shape != t.values.shape:
                raise ValueError(
                    f"shape mismatch for {k}: checkpoint {a.shape}, model {t.values.shape}"
                )
            t.values = a.copy()

    @contextmanager
    def _inference(self):
        """Drop gradient tracking for pure evaluation passes."""
        old = [(p, p.needs_grad) for p in self.params.values()]
        for p, _ in old:
            p.needs_grad = False
        try:
            yield
        finally:
            for p, was in old:
                p.needs_grad = was

    def parameter_count(self) -> int:
        return sum(int(p.values.size) for p in self.params.values())

    # -- geometry plumbing ---------------------------------------------------

    def _canonicalize(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError(f"expected (b, n, 3) points, got {points.shape}")
        if points.shape[1] != self.config.n_points:
            raise ValueError(
                f"this model expects {self.config.n_points} points per cloud, "
                f"got {points.shape[1]}"
            )
        if not np.isfinite(points).all():
            raise FloatingPointError("non-finite point coordinates")
        order = np.stack([geo.canonical_order(p) for p in points])
        spts = np.take_along_axis(points, order[:, :, None], axis=1)
        return spts, order

    def _first_level(self, pts: np.ndarray, nb_idx: np.ndarray,
                     bases: np.ndarray, ref_idx: np.ndarray) -> _Level:
        """Shared tail of sa_first: RIR (or raw) coords -> pooled features."""
        b, _, k = nb_idx.shape
        ref_pts = pts[_bidx(b, ref_idx), ref_idx]
        nb_pts = pts[_bidx(b, nb_idx), nb_idx]
        if self.config.features == "rir":
            h_in = lrf.rir_batch(nb_pts, ref_pts, bases)
        else:
            # Negative-control mode: world coordinates go straight in.
            offsets = nb_pts - ref_pts[:, :, None, :]
            refs_rep = np.repeat(ref_pts[:, :, None, :], nb_pts.shape[2], axis=2)
            h_in = np.concatenate([refs_rep, offsets], axis=-1)
        # Forward only, the MLP and the max over k run on blocks of references
        # whose widest activation is about 4 MB. Whole-batch activations are
        # fresh buffers every call, and their first-touch page faults cost
        # more than the GEMMs; blocks reuse warm memory. Rows never mix (the
        # per-set statistics run over k alone) and a GEMM's rows do not
        # depend on how many rows it is given, so the result is the same.
        # Each block pools into its rows of one (b, r, f) array with the plain
        # max that max_reduce takes when nothing needs a gradient.
        # Tracked passes keep one block: splitting the graph would change the
        # summation order of the weight-gradient GEMM.
        if any(p.needs_grad for p in self.h_mlp.parameters()):
            feat = ad.max_reduce(self.h_mlp(ad.constant(h_in), set_axes=(2,)), axis=2)
            return _Level(pts=ref_pts, bases=bases, feat=feat)
        r = h_in.shape[1]
        step = max(1, SA_FIRST_BLOCK_ELEMS // (b * k * max(self.h_mlp.widths)))
        pooled = np.empty((b, r, self.h_mlp.out_width))
        for s in range(0, r, step):
            h = self.h_mlp(ad.constant(h_in[:, s:s + step]), set_axes=(2,))
            np.max(h.values, axis=2, out=pooled[:, s:s + step])
        return _Level(pts=ref_pts, bases=bases, feat=ad.constant(pooled))

    def _sa_first_batch(self, pts: np.ndarray) -> _Level:
        ref_idx = nb.fps_batch(pts, self.config.sa_first.n_ref)
        nb_idx, bases = self._point_frames(pts, pts[_bidx(pts.shape[0], ref_idx), ref_idx])
        return self._first_level(pts, nb_idx, bases, ref_idx)

    def _point_frames(self, pts: np.ndarray, queries: np.ndarray):
        """SA-first neighbor indices into pts around queries (b, q, 3), and
        the frames there; the segmentation head takes them at every point."""
        c = self.config.sa_first
        if c.search == "knn":
            nb_idx = nb.knn_points_batch(pts, queries, c.k)
        else:
            nb_idx = nb.ball_points_batch(pts, queries, c.radius, c.k)
        nb_pts = pts[_bidx(pts.shape[0], nb_idx), nb_idx]
        bases = lrf.compute_lrf_batch(
            queries, nb_pts, strategy=c.anchor, counts=self.lrf_fallbacks
        )
        return nb_idx, bases

    # -- aligned edge convolution ---------------------------------------------

    def _sa_next_batch(self, level: _Level, block_index: int,
                       penalties: list) -> _Level:
        k = self.block_mlps[block_index][3]
        b, r_in = level.pts.shape[:2]
        sub = nb.fps_batch(level.pts, r_in // 4)                  # (b, r_out)
        corpus = level.feat.values
        queries = corpus[_bidx(b, sub), sub]
        graph = nb.knn_features_batch(corpus, queries, k)         # (b, r_out, k)
        return self._edge_conv(level, sub, graph, block_index, penalties)

    def _edge_conv(self, level: _Level, sub: np.ndarray, graph: np.ndarray,
                   block_index: int, penalties: list) -> _Level:
        """Block `block_index`'s aligned edge convolution over level's rows:
        sub (b, r) picks the references, graph (b, r, k) their neighbors."""
        variant, align_mlp, q_mlp, _ = self.block_mlps[block_index]
        b = graph.shape[0]
        new_pts = level.pts[_bidx(b, sub), sub]
        new_bases = level.bases[_bidx(b, sub), sub]
        x_i = ad.gather_rows(level.feat, sub)                     # (b, r, f)
        nb_pos = level.pts[_bidx(b, graph), graph]
        nb_bases = level.bases[_bidx(b, graph), graph]
        t = lrf.rir_batch(nb_pos, new_pts, new_bases)             # (b, r, k, 3)
        xhat = _align_edge_features(variant, align_mlp, level.feat, graph,
                                    new_bases, nb_bases, t, penalties)
        geometry = None if variant is AlignVariant.PLAIN_EDGECONV else t
        edge = q_mlp(ad.edge_features(x_i, xhat, geometry), set_axes=(2,))
        feat = ad.max_reduce(edge, axis=2)
        return _Level(pts=new_pts, bases=new_bases, feat=feat)

    # -- forward passes --------------------------------------------------------

    def _encode(self, first: _Level, penalties: list) -> list:
        """The SA-first level, then one level per SA-next block."""
        levels = [first]
        for i in range(len(self.block_mlps)):
            levels.append(self._sa_next_batch(levels[-1], i, penalties))
        return levels

    def classify_batch(self, points: np.ndarray):
        """Logits Tensor (b, c) plus the regularization penalty Tensor list."""
        if self.head_mlp is None:
            raise ConfigError(["this model was configured without a classification head"])
        pts, _ = self._canonicalize(points)
        penalties: list = []
        levels = self._encode(self._sa_first_batch(pts), penalties)
        pooled = ad.max_reduce(levels[-1].feat, axis=1)
        return self.head_mlp(pooled), penalties

    def segment_batch(self, points: np.ndarray, onehot: np.ndarray):
        """Per-point part logits Tensor (b, n, n_parts), original point order."""
        c = self.config
        if not c.n_parts:
            raise ConfigError(["this model was configured without a segmentation head"])
        onehot = np.asarray(onehot, dtype=np.float64)
        if onehot.shape != (points.shape[0], c.n_classes):
            raise ValueError(
                f"object one-hot must have shape ({points.shape[0]}, {c.n_classes})"
            )
        pts, order = self._canonicalize(points)
        b, n = pts.shape[:2]
        penalties: list = []

        # Frames everywhere; sa_first reuses the ones at its references.
        nb_all, bases_all = self._point_frames(pts, pts)
        ref_idx = nb.fps_batch(pts, c.sa_first.n_ref)
        bases_ref = bases_all[_bidx(b, ref_idx), ref_idx]
        nb_idx = nb_all[_bidx(b, ref_idx), ref_idx]
        levels = self._encode(self._first_level(pts, nb_idx, bases_ref, ref_idx),
                              penalties)
        fine_mid, coarse = levels[0], levels[-1]
        variant1, align1, mlp1 = self.fp_stages[0]
        g1 = self._propagate(coarse, fine_mid.pts, fine_mid.bases,
                             fine_mid.feat, variant1, align1, mlp1, penalties)
        mid = _Level(pts=fine_mid.pts, bases=fine_mid.bases, feat=g1)

        variant2, align2, mlp2 = self.fp_stages[1]
        g2 = self._propagate(mid, pts, bases_all, None, variant2, align2, mlp2,
                             penalties)

        hot = np.repeat(onehot[:, None, :], n, axis=1)
        logits = self.point_head(ad.concat([g2, ad.constant(hot)]), set_axes=(1,))

        # Undo the canonical sort so row i speaks for input point i.
        inv = np.empty_like(order)
        np.put_along_axis(inv, order, np.arange(n)[None, :].repeat(b, axis=0), axis=1)
        return ad.gather_rows(logits, inv), penalties

    def _propagate(self, coarse: _Level, fine_pts: np.ndarray,
                   fine_bases: np.ndarray, skip, variant: AlignVariant,
                   align_mlp, mlp: Mlp, penalties: list):
        """Interpolate aligned coarse features onto fine points (3-NN, 1/d)."""
        b = fine_pts.shape[0]
        nn3 = nb.knn_points_batch(coarse.pts, fine_pts, FP_NEIGHBORS)
        cpos = coarse.pts[_bidx(b, nn3), nn3]                 # (b, nf, 3, 3)
        cbases = coarse.bases[_bidx(b, nn3), nn3]
        d = np.linalg.norm(cpos - fine_pts[:, :, None, :], axis=-1)
        d = np.maximum(d, FP_DISTANCE_FLOOR)
        w = 1.0 / d
        w /= w.sum(axis=-1, keepdims=True)
        t = lrf.rir_batch(cpos, fine_pts, fine_bases)
        xhat = _align_edge_features(variant, align_mlp, coarse.feat, nn3,
                                    fine_bases, cbases, t, penalties)  # (b, nf, 3, fc)
        interp = ad.weighted_sum(xhat, w)
        mixed = interp if skip is None else ad.concat([interp, skip])
        return mlp(mixed, set_axes=(1,))

    # -- single-cloud conveniences ---------------------------------------------

    def predict_logits(self, points: np.ndarray) -> np.ndarray:
        return self.predict_logits_batch(np.asarray(points)[None])[0]

    def predict_logits_batch(self, points: np.ndarray) -> np.ndarray:
        with self._inference():
            logits, _ = self.classify_batch(points)
        return logits.values

    def predict_part_logits(self, points: np.ndarray, class_label: int) -> np.ndarray:
        return self.predict_part_logits_batch(np.asarray(points)[None],
                                              [int(class_label)])[0]

    def predict_part_logits_batch(self, points: np.ndarray,
                                  class_labels: np.ndarray) -> np.ndarray:
        onehot = np.zeros((points.shape[0], self.config.n_classes))
        onehot[np.arange(points.shape[0]), np.asarray(class_labels, dtype=int)] = 1.0
        with self._inference():
            logits, _ = self.segment_batch(points, onehot)
        return logits.values

    def loss_terms(self, logits, labels: np.ndarray, penalties: list):
        """Cross entropy plus the weighted AEConv1 orthogonality penalties."""
        loss = ad.cross_entropy(logits, labels)
        for pen in penalties:
            loss = ad.add(loss, ad.scale(pen, AECONV1_PENALTY_WEIGHT))
        return loss


# ---------------------------------------------------------------------------
# spec-facing functional interface (single cloud, numpy in / numpy out)
# ---------------------------------------------------------------------------

def as_model(config: NetworkConfig, weights: Union[Model, dict, None],
             seed: int = 0) -> Model:
    """Accept a Model, a {name: array} dict, or None (fresh weights)."""
    if isinstance(weights, Model):
        return weights
    model = Model(config, seed=seed)
    if weights is not None:
        model.load_values(weights)
    return model


def pointnet_kernel(rirs: np.ndarray, weights) -> np.ndarray:
    """Shared MLP over rows of (k, d) coordinates, max pooled to one vector."""
    mlp = weights.h_mlp if isinstance(weights, Model) else weights
    rirs = np.asarray(rirs, dtype=np.float64)
    if rirs.ndim != 2 or rirs.shape[1] != mlp.in_width:
        raise ValueError(
            f"expected (k, {mlp.in_width}) coordinates, got {rirs.shape}"
        )
    out = ad.max_pool_set(mlp(ad.constant(rirs)))
    return out.values


def sa_first(cloud, config: NetworkConfig, weights) -> SaOutput:
    """First abstraction level of a single cloud."""
    model = as_model(config, weights)
    pts = geo.as_points(cloud)
    with model._inference():
        spts, _ = model._canonicalize(pts[None])
        level = model._sa_first_batch(spts)
        return SaOutput(level.pts[0], level.bases[0], level.feat.values[0])


def align_feature(x_j, rotation, translation, weights, variant,
                  frames: Optional[tuple] = None) -> np.ndarray:
    """Align one neighbor feature vector into a reference frame.

    `translation` may be a (3,) offset or a RirPoint; AEConv2 needs the raw
    frame pair passed via `frames=(frame_i, frame_j)` because it consumes the
    bases themselves rather than their relative rotation.
    """
    variant = AlignVariant.from_name(variant)
    x = np.asarray(x_j, dtype=np.float64)
    if isinstance(translation, lrf.RirPoint):
        translation = translation.coords
    t = np.asarray(translation, dtype=np.float64).reshape(1, 1, 1, 3)
    if variant is AlignVariant.PLAIN_EDGECONV:
        return x.copy()
    align_mlp = weights.block_mlps[0][1] if isinstance(weights, Model) else weights
    if variant is AlignVariant.AECONV2:
        if frames is None:
            raise ValueError("aeconv2 alignment needs frames=(frame_i, frame_j)")
        bi = frames[0].basis.reshape(1, 1, 3, 3)
        bj = frames[1].basis.reshape(1, 1, 1, 3, 3)
    else:
        rot = np.asarray(rotation, dtype=np.float64)
        bi = np.eye(3).reshape(1, 1, 3, 3)
        bj = rot.T.reshape(1, 1, 1, 3, 3)  # E_i @ E_j^T == rotation with E_i = I
    pens: list = []
    out = _align_edge_features(
        variant, align_mlp, ad.constant(x.reshape(1, 1, -1)),
        np.zeros((1, 1, 1), dtype=np.intp), bi, bj, t, pens
    )
    return out.values.reshape(-1)


def aligned_edge_conv(prev: SaOutput, graph: nb.NeighborGraph, weights,
                      variant) -> np.ndarray:
    """Edge convolution over a prepared feature graph; returns (r', f')."""
    model = weights if isinstance(weights, Model) else None
    if model is None:
        raise ValueError("aligned_edge_conv needs the Model as weights")
    variant = AlignVariant.from_name(variant)
    block_variant = model.block_mlps[0][0]
    if variant is not block_variant:
        raise ValueError(
            f"model block 0 was built for {block_variant.value!r}, not {variant.value!r}"
        )
    level = _Level(pts=prev.ref_points[None], bases=prev.frame_bases[None],
                   feat=ad.constant(prev.features[None]))
    with model._inference():
        out = model._edge_conv(level, graph.reference_indices[None],
                               graph.neighbor_lists[None], 0, [])
        return out.feat.values[0]


def sa_next(prev: SaOutput, config: NetworkConfig, weights,
            block_index: int = 0) -> SaOutput:
    """Quarter the references, regroup in feature space, run the edge conv."""
    model = as_model(config, weights)
    if len(prev) < 4:
        raise ValueError(f"sa_next needs at least 4 references, got {len(prev)}")
    level = _Level(pts=prev.ref_points[None], bases=prev.frame_bases[None],
                   feat=ad.constant(prev.features[None]))
    with model._inference():
        pens: list = []
        out = model._sa_next_batch(level, block_index, pens)
        return SaOutput(out.pts[0], out.bases[0], out.feat.values[0])


def classify(cloud, config: NetworkConfig, weights) -> np.ndarray:
    """Class logits (c,) for one cloud."""
    model = as_model(config, weights)
    return model.predict_logits(geo.as_points(cloud))


def feature_propagation(coarse: SaOutput, fine_points: np.ndarray,
                        fine_frames: np.ndarray, skip_features, weights,
                        stage: int = 0) -> np.ndarray:
    """Aligned 3-NN inverse-distance interpolation onto finer points."""
    model = weights if isinstance(weights, Model) else None
    if model is None or not model.fp_stages:
        raise ValueError("feature_propagation needs a segmentation Model")
    variant, align_mlp, mlp = model.fp_stages[stage]
    fine_pts = np.asarray(fine_points, dtype=np.float64)[None]
    if isinstance(fine_frames, (list, tuple)):
        fine_bases = np.stack([f.basis for f in fine_frames])[None]
    else:
        fine_bases = np.asarray(fine_frames, dtype=np.float64)[None]
    clevel = _Level(pts=coarse.ref_points[None], bases=coarse.frame_bases[None],
                    feat=ad.constant(coarse.features[None]))
    skip = None if skip_features is None else ad.constant(
        np.asarray(skip_features, dtype=np.float64)[None]
    )
    with model._inference():
        pens: list = []
        out = model._propagate(clevel, fine_pts, fine_bases, skip, variant,
                               align_mlp, mlp, pens)
        return out.values[0]


def segment(cloud, object_onehot, config: NetworkConfig, weights) -> np.ndarray:
    """Per-point part logits (n, n_parts) for one cloud."""
    model = as_model(config, weights)
    pts = geo.as_points(cloud)
    onehot = np.asarray(object_onehot, dtype=np.float64)
    if onehot.ndim == 0 or onehot.size == 1:
        return model.predict_part_logits(pts, int(onehot))
    with model._inference():
        logits, _ = model.segment_batch(pts[None], onehot[None])
    return logits.values[0]


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def _mlp_macs(widths) -> int:
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _align_macs(variant: AlignVariant, align_mlp) -> int:
    """MACs to align one neighbor feature: the align MLP, plus the FxF
    matrix application for AEConv1 (out_width == F*F)."""
    if align_mlp is None:
        return 0
    macs = _mlp_macs(align_mlp.widths)
    if variant is AlignVariant.AECONV1:
        macs += align_mlp.out_width
    return macs


def count_operations(config: NetworkConfig) -> dict:
    """Analytic per-sample multiply-accumulate counts, by section.

    Read from the MLP widths of a built Model, as count_parameters reads its
    weight shapes. Only MAC-bearing work (MLPs and the AEConv1 matrix
    application) is counted; distance computations and sorting are excluded.
    flops = 2*macs.
    """
    c = config.validated()
    model = Model(c)
    refs = c.ref_counts()
    out: dict = {"sa_first": refs[0] * c.sa_first.k * _mlp_macs(model.h_mlp.widths)}
    for i, (variant, align, q, k) in enumerate(model.block_mlps, start=1):
        out[f"sa_next{i}"] = refs[i] * k * (_align_macs(variant, align)
                                            + _mlp_macs(q.widths))
    if not c.n_parts:
        out["head"] = _mlp_macs(model.head_mlp.widths)
    else:
        fine_counts = (refs[0], c.n_points)
        for si, ((variant, align, mlp), nf) in enumerate(
                zip(model.fp_stages, fine_counts), start=1):
            out[f"fp{si}"] = nf * (FP_NEIGHBORS * _align_macs(variant, align)
                                   + _mlp_macs(mlp.widths))
        out["point_head"] = c.n_points * _mlp_macs(model.point_head.widths)
    out["total_macs"] = sum(out.values())
    out["flops"] = 2 * out["total_macs"]
    return out


def count_parameters(config: NetworkConfig, seed: int = 0) -> int:
    """Exact trainable scalar count, read from the built weight shapes."""
    return Model(config, seed=seed).parameter_count()
