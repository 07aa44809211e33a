"""The set-abstraction network with frame-aligned edge convolutions.

Layout: an SAFirst block groups Euclidean neighborhoods around FPS reference
points, expresses them in local reference frames, and pools a shared MLP per
neighborhood. SANext blocks keep a quarter of the references (FPS over their
positions), build kNN graphs in feature space, and run an edge convolution
whose neighbor features are first aligned into the reference's frame. A
model has one head: a max pool plus head MLP for class logits, or two aligned
interpolation stages that propagate features back to every point's part logits.

The first layers of the edge MLP and the align MLP read concatenations in
which one block repeats across edges: x_i over a reference's k edges, and
x_j over every edge that picks source row j. Each first layer is affine, so
it is applied in parts (`_first_layer_rows`): the repeated block once per
reference or source row, the rest per edge, summed in place. The edge
MLP's x_i rows also take over the -x_i of its xhat - x_i block, so the
difference is never formed. In feature
propagation the interpolation weights sum to one, so AEConv2/3 interpolate
the align MLP's hidden layer and apply its affine output layer once per
fine point. `count_operations` counts the multiplies as they run.
SA-first runs its MLP and max over k on blocks of references in every
pass and joins the pooled blocks, so a tracked backward builds its dense
gradients one block at a time. Each block is one `ad.mlp_max`: a tracked
pass keeps only the block's RIR input and the winning rows of its max,
and backward recomputes the block's hidden layer from that input. In a
tracked pass each max, each `concat` and propagation's weighted sum
release the values of the inputs they are given (see `autodiff`), so each
set MLP's (b, r, k, f) output, SA-first's hidden layers and pooled blocks,
the aligned features ahead of [xhat, t] and the interpolation's relu are
not kept for backward.

Every input cloud is canonically reordered (lexicographic point sort) on
entry, which makes the full pipeline bitwise permutation invariant, and all
geometry consumed by the MLPs is frame-relative, which makes it rotation
invariant to float precision.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

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
# SA-first runs its MLP on blocks of references whose widest activation
# holds about this many float64 values (4 MB), in every pass; a tracked
# backward recomputes one block's hidden layer at a time.
SA_FIRST_BLOCK_ELEMS = 500_000


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


def _first_layer_rows(mlp: Mlp, x, start: int, stop: int, bias: bool = False):
    """The part of mlp's first affine map that reads input features
    start:stop: x @ w0[start:stop], plus b0 with `bias`. The bias goes with
    the part computed once per row, so it too is added once."""
    w, b = mlp.layers[0]
    return ad.linear(x, ad.row_block(w, start, stop), b if bias else None)


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
        self.h_mlp = Mlp((in_dim, *c.sa_first.widths), rng, self.params, "sa_first.h")

        self.variant = c.variant
        self.block_mlps = []
        f_in = c.sa_first.widths[-1]
        for i, blk in enumerate(c.sa_next, start=1):
            hidden = c.aeconv1_hidden if self.variant == "aeconv1" else f_in
            align = self._build_align_mlp(f_in, hidden, rng, f"sa_next{i}.align")
            q_in = 2 * f_in if self.variant == "edgeconv" else 2 * f_in + 3
            q = Mlp((q_in, *blk.widths), rng, self.params, f"sa_next{i}.q")
            self.block_mlps.append((align, q, blk.k))
            f_in = blk.widths[-1]

        self.head_mlp = None if c.n_parts else Mlp(
            (f_in, *c.head_widths, c.n_classes), rng, self.params, "head")

        self.fp_stages = []
        self.point_head = None
        if c.n_parts:
            widths = c.feature_widths()          # (f1, f2, f3)
            # Stage 1: coarsest level onto the sa_first references (skip f1);
            # stage 2: onto the raw points (no skip).
            specs = [
                (widths[-1], widths[0], c.fp_widths[0]),
                (c.fp_widths[0], 0, c.fp_widths[1]),
            ]
            for si, (f_coarse, f_skip, f_out) in enumerate(specs, start=1):
                align = self._build_align_mlp(f_coarse, c.fp_align_hidden, rng,
                                              f"fp{si}.align")
                mlp = Mlp((f_coarse + f_skip, f_out, f_out), rng, self.params,
                          f"fp{si}.mlp")
                self.fp_stages.append((align, mlp))
            self.point_head = Mlp(
                (c.fp_widths[1] + c.n_classes, *c.point_head, c.n_parts),
                rng, self.params, "point_head")

    def _build_align_mlp(self, f: int, hidden: int, rng, name: str):
        if self.variant == "edgeconv":
            return None
        if self.variant == "aeconv1":
            return Mlp((12, hidden, f * f), rng, self.params, name)
        if self.variant == "aeconv2":
            return Mlp((21 + f, hidden, f), rng, self.params, name)
        return Mlp((12 + f, hidden, f), rng, self.params, name)

    # -- weight management ---------------------------------------------------

    def values(self) -> dict:
        return {k: t.values.copy() for k, t in self.params.items()}

    def load_values(self, arrays: dict):
        """Swap in checkpointed arrays; refused ones leave every weight as it was."""
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
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite values in {k}")
        for k, t in self.params.items():
            t.values = np.array(arrays[k], dtype=np.float64)

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

    def _align_macs(self, align_mlp, sources: int, edges: int, outputs: int) -> int:
        """MACs to align `edges` neighbor features gathered from `sources`
        rows, as `_align_edge_features` runs them: the align MLP and, for
        AEConv1, the FxF matrix application (out_width == F*F) per edge; for
        AEConv2/3 the x_j rows of the first weight per source row, its code
        rows per edge, and the output layer `outputs` times."""
        if align_mlp is None:
            return 0
        if self.variant == "aeconv1":
            return edges * (_mlp_macs(align_mlp.widths) + align_mlp.out_width)
        fin, hidden, f = align_mlp.widths
        return (sources * f * hidden + edges * (fin - f) * hidden
                + outputs * hidden * f)

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
        """Shared tail of sa_first: RIR (or raw) coords -> pooled features.

        The MLP and the max over k run on blocks of references whose widest
        activation is about 4 MB (SA_FIRST_BLOCK_ELEMS), in every pass.
        Forward only, whole-batch activations would be fresh buffers every
        call, whose first-touch page faults cost more than the GEMMs; blocks
        reuse warm memory. Tracked, each block (`ad.mlp_max`) keeps only its
        input h_in and the winning rows of its max; backward recomputes the
        block's hidden layer from h_in and builds the dense zero gradient of
        the max and the hidden layer's gradient, one block at a time. Rows
        never mix and a GEMM's rows do not depend on how many rows it is
        given, so values are the same as in one block; only the weight and
        bias gradients, summed over blocks, round differently.
        """
        b, r, k = nb_idx.shape
        ref_pts = pts[_bidx(b, ref_idx), ref_idx]
        step = max(1, SA_FIRST_BLOCK_ELEMS // (b * k * max(self.h_mlp.widths)))
        # `concat` joins the blocks into rows allocated ahead of them, as
        # forward-only SA-first always pooled: joined into a fresh array
        # instead, paper-scale inference read about 0.5 MB more peak RSS.
        pooled = np.empty((b, r, self.h_mlp.out_width))
        blocks = []
        for s in range(0, r, step):
            rows = slice(s, s + step)
            idx = nb_idx[:, rows]
            nb_pts = pts[_bidx(b, idx), idx]
            if self.config.features == "rir":
                h_in = lrf.rir_batch(nb_pts, ref_pts[:, rows], bases[:, rows])
            else:
                # Negative-control mode: world coordinates go straight in.
                refs = np.broadcast_to(ref_pts[:, rows, None, :], nb_pts.shape)
                h_in = np.concatenate([refs, nb_pts - refs], axis=-1)
            blocks.append(ad.mlp_max(h_in, self.h_mlp, axis=2))
        return _Level(pts=ref_pts, bases=bases,
                      feat=ad.concat(blocks, axis=1, out=pooled))

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
        k = self.block_mlps[block_index][2]
        b, r_in = level.pts.shape[:2]
        sub = nb.fps_batch(level.pts, r_in // 4)                  # (b, r_out)
        corpus = level.feat.values
        queries = corpus[_bidx(b, sub), sub]
        graph = nb.knn_features_batch(corpus, queries, k)         # (b, r_out, k)
        return self._edge_conv(level, sub, graph, block_index, penalties)

    def _edge_conv(self, level: _Level, sub: np.ndarray, graph: np.ndarray,
                   block_index: int, penalties: list) -> _Level:
        """Block `block_index`'s aligned edge convolution over level's rows:
        sub (b, r) picks the references, graph (b, r, k) their neighbors.

        The edge MLP reads [x_i, xhat - x_i, t]. Its first layer is affine,
        so with w0 = [w_a; w_b; w_t] it is x_i (w_a - w_b) + b0, applied once
        per reference and broadcast over the k edges, plus [xhat, t] [w_b; w_t]
        per edge; the difference xhat - x_i is never formed.
        """
        align_mlp, q_mlp, _ = self.block_mlps[block_index]
        b = graph.shape[0]
        new_pts = level.pts[_bidx(b, sub), sub]
        new_bases = level.bases[_bidx(b, sub), sub]
        x_i = ad.gather_rows(level.feat, sub)                     # (b, r, f)
        nb_pos = level.pts[_bidx(b, graph), graph]
        nb_bases = level.bases[_bidx(b, graph), graph]
        t = lrf.rir_batch(nb_pos, new_pts, new_bases)             # (b, r, k, 3)
        xhat = self._align_edge_features(align_mlp, level.feat, graph,
                                         new_bases, nb_bases, t, penalties)
        f = x_i.values.shape[-1]
        if self.variant != "edgeconv":
            xhat = ad.concat([xhat, ad.constant(t)])
        w0, b0 = q_mlp.layers[0]
        per_edge = ad.linear(xhat, ad.row_block(w0, f, w0.shape[0]))
        w_i = ad.add(ad.row_block(w0, 0, f),
                     ad.scale(ad.row_block(w0, f, 2 * f), -1.0))
        h = ad.expand_add(per_edge, ad.linear(x_i, w_i, b0))
        feat = ad.max_reduce(q_mlp.after_first(h), axis=2)
        return _Level(pts=new_pts, bases=new_bases, feat=feat)

    def _align_edge_features(self, align_mlp, src, idx: np.ndarray,
                             bases_i: np.ndarray, bases_j: np.ndarray,
                             t: np.ndarray, penalties: list, weights=None):
        """Neighbor features src[idx] (.., k, f) aligned into the reference
        frames: as they are (edgeconv), by a predicted FxF matrix (aeconv1), or
        by an MLP on the raw frame pair (aeconv2) or the relative rotation
        (aeconv3), each with the offset and the feature.

        src: Tensor (b, n, f) of source rows; idx: (b, .., k) the neighbors'
        rows in it; bases_i: (.., 3, 3) reference frames; bases_j:
        (.., k, 3, 3) neighbor frames; t: (.., k, 3) neighbor offsets
        expressed in the reference frame. Geometry enters as constants;
        gradient flows through the gathered rows and the MLP. AEConv1 appends
        its orthogonality penalty Tensor to `penalties`.

        The AEConv2/3 align MLP reads [code, x_j]: the x_j rows of its first
        weight and its bias apply once per source row, and the products are
        gathered onto the edges. With `weights` (.., k), the result is the
        weighted sum over k of the aligned features (feature propagation).
        Those weights sum to one and the align MLP's output layer is affine,
        so AEConv2/3 take the weighted sum of the hidden layer and apply the
        output layer once per fine point.
        """
        if self.variant == "edgeconv":
            xhat = ad.gather_rows(src, idx)
        elif self.variant == "aeconv1":
            code = self._align_code(bases_i, bases_j, t)
            f = src.values.shape[-1]
            m = ad.reshape(align_mlp(ad.constant(code)), code.shape[:-1] + (f, f))
            penalties.append(ad.orthogonality_penalty(m))
            xhat = ad.edge_matvec(m, ad.gather_rows(src, idx))
        else:
            code = self._align_code(bases_i, bases_j, t)
            c, f = code.shape[-1], src.values.shape[-1]
            per_edge = _first_layer_rows(align_mlp, ad.constant(code), 0, c)
            per_row = _first_layer_rows(align_mlp, src, c, c + f, bias=True)
            h = ad.gather_add(per_edge, per_row, idx)
            if weights is None:
                return align_mlp.after_first(h)
            w1, b1 = align_mlp.layers[1]
            return ad.linear(ad.weighted_sum(ad.relu_inplace(h), weights), w1, b1)
        return xhat if weights is None else ad.weighted_sum(xhat, weights)

    def _align_code(self, bases_i: np.ndarray, bases_j: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
        """The align MLP's geometry input per edge: the raw frame pair
        (aeconv2) or the relative rotation (aeconv1/3), then the offset."""
        if self.variant == "aeconv2":
            ei = np.broadcast_to(
                bases_i[..., None, :, :], bases_j.shape
            ).reshape(bases_j.shape[:-2] + (9,))
            frames = [ei, bases_j.reshape(bases_j.shape[:-2] + (9,))]
        else:
            rel = lrf.relative_rotation_batch(bases_i, bases_j)
            frames = [rel.reshape(rel.shape[:-2] + (9,))]
        return np.concatenate(frames + [t], axis=-1)

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
        align1, mlp1 = self.fp_stages[0]
        g1 = self._propagate(coarse, fine_mid.pts, fine_mid.bases,
                             fine_mid.feat, align1, mlp1, penalties)
        mid = _Level(pts=fine_mid.pts, bases=fine_mid.bases, feat=g1)

        align2, mlp2 = self.fp_stages[1]
        g2 = self._propagate(mid, pts, bases_all, None, align2, mlp2, penalties)

        hot = np.repeat(onehot[:, None, :], n, axis=1)
        logits = self.point_head(ad.concat([g2, ad.constant(hot)]))

        # Undo the canonical sort so row i speaks for input point i.
        inv = np.empty_like(order)
        np.put_along_axis(inv, order, np.arange(n)[None, :].repeat(b, axis=0), axis=1)
        return ad.gather_rows(logits, inv), penalties

    def _propagate(self, coarse: _Level, fine_pts: np.ndarray,
                   fine_bases: np.ndarray, skip, align_mlp, mlp: Mlp,
                   penalties: list):
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
        interp = self._align_edge_features(align_mlp, coarse.feat, nn3, fine_bases,
                                           cbases, t, penalties, w)  # (b, nf, fc)
        mixed = interp if skip is None else ad.concat([interp, skip])
        return mlp(mixed)

    # -- single-cloud conveniences ---------------------------------------------

    def predict_logits(self, points: np.ndarray) -> np.ndarray:
        return self.predict_logits_batch(np.asarray(points)[None])[0]

    def predict_logits_batch(self, points: np.ndarray) -> np.ndarray:
        with self._inference():
            logits, _ = self.classify_batch(points)
        return logits.values

    def predict_part_logits(self, points: np.ndarray, class_label: int) -> np.ndarray:
        return self.predict_part_logits_batch(np.asarray(points)[None],
                                              [class_label])[0]

    def predict_part_logits_batch(self, points: np.ndarray,
                                  class_labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(class_labels)
        b, n = points.shape[0], self.config.n_classes
        if labels.shape != (b,):
            raise ValueError(f"expected {b} class labels, got shape {labels.shape}")
        if labels.dtype.kind not in "iu":
            raise ValueError(f"class labels must be integers, got {labels.dtype}")
        if ((labels < 0) | (labels >= n)).any():
            raise ValueError(f"class labels must lie in [0, {n}), got {labels.tolist()}")
        onehot = np.zeros((b, n))
        onehot[np.arange(b), labels] = 1.0
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
# accounting
# ---------------------------------------------------------------------------

def _mlp_macs(widths) -> int:
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def count_operations(config: NetworkConfig) -> dict:
    """Analytic per-sample multiply-accumulate counts, by section.

    Read from the MLP widths of a built Model, as count_parameters reads its
    weight shapes, and counted as the forward pass runs them: a first-layer
    block that repeats across edges once per source row, reference or fine
    point that holds it. Only MAC-bearing work (MLPs and the AEConv1 matrix
    application) is counted; distance computations and sorting are excluded.
    flops = 2*macs.
    """
    c = config.validated()
    model = Model(c)
    refs = c.ref_counts()
    out: dict = {"sa_first": refs[0] * c.sa_first.k * _mlp_macs(model.h_mlp.widths)}
    for i, ((align, q, k), f) in enumerate(
            zip(model.block_mlps, c.feature_widths()), start=1):
        edges = refs[i] * k
        q_in, hidden = q.widths[:2]
        # The x_i rows of q's first weight run once per reference.
        out[f"sa_next{i}"] = (model._align_macs(align, refs[i - 1], edges, edges)
                              + refs[i] * f * hidden
                              + edges * ((q_in - f) * hidden
                                         + _mlp_macs(q.widths[1:])))
    if not c.n_parts:
        out["head"] = _mlp_macs(model.head_mlp.widths)
    else:
        coarse_counts = (refs[-1], refs[0])
        fine_counts = (refs[0], c.n_points)
        for si, ((align, mlp), nc, nf) in enumerate(
                zip(model.fp_stages, coarse_counts, fine_counts), start=1):
            out[f"fp{si}"] = (
                model._align_macs(align, nc, nf * FP_NEIGHBORS, nf)
                + nf * _mlp_macs(mlp.widths))
        out["point_head"] = c.n_points * _mlp_macs(model.point_head.widths)
    out["total_macs"] = sum(out.values())
    out["flops"] = 2 * out["total_macs"]
    return out


def count_parameters(config: NetworkConfig, seed: int = 0) -> int:
    """Exact trainable scalar count, read from the built weight shapes."""
    return Model(config, seed=seed).parameter_count()
