"""The benchmark's workloads: seeded inputs, timed rounds and output checks.

A workload is driven only through the package's public calls
(`synth_*`, `Model`, `train_classifier` / `train_segmenter`,
`predict_logits_batch` / `predict_part_logits_batch`). Every round of a run
repeats the same operations on the same inputs, so a round's outputs are a
function of the seed alone and rounds can be compared with each other.

Each check compares the program against a property the method must have or
against arithmetic done here, never against a stored copy of earlier output.
"""
from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import aecnn
from aecnn import autodiff as ad

from spans import SpanTable, Tracer

BATCH = 32                 # training batch, as in the desk train step
# Each paper-scale cloud in a batch adds about 65 MB of temporaries. At batch 4
# page faults on them took a fifth of a batch and batch times varied by 14%;
# at batch 2 they varied by 10%.
INFER_BATCH = 2
SETTING = "ARAR"
CHECK_CLOUDS = 4
INVARIANCE_TOL = 1e-6      # logit deviation under rotation, relative to max |logit|
EXACT_TOL = 1e-9           # same arithmetic up to BLAS blocking
FD_STEP = 1e-6
FD_TOL = 1e-4


@dataclass
class Round:
    """What one round did and produced."""

    rates: list              # clouds/s of each timed segment
    clouds: int
    batches: int
    wall: float
    fallbacks: int
    model: object
    logits: np.ndarray = None
    record: object = None


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)


def digest(arrays: dict) -> str:
    """SHA-256 over names, shapes and float64 bytes, in sorted name order."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype="<f8")
        h.update(f"{name}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def haar_rotation(rng) -> np.ndarray:
    """Uniform random rotation from the QR factors of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def check_rng(seed: int):
    """Randomness of the checks, a stream apart from the inputs'."""
    return np.random.default_rng([seed, 1])


def relative_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


def within(name: str, dev: float, tol: float) -> Check:
    return Check(name, bool(dev <= tol), f"deviation {dev:.3e} (tol {tol:g})")


def rotated_permuted(pts: np.ndarray, rng):
    """The clouds under one random rotation and one random point order."""
    perm = rng.permutation(pts.shape[1])
    return (pts @ haar_rotation(rng).T)[:, perm], perm


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class TrainWorkload:
    """One round is a whole training run from fresh seeded weights."""

    def __init__(self, name, config, segmentation, n_per_class, epochs):
        self.name = name
        self.config = config
        self.segmentation = segmentation
        self.n_per_class = n_per_class
        self.epochs = epochs

    def setup(self, seed: int):
        synth = (aecnn.synth_segmentation if self.segmentation
                 else aecnn.synth_classification)
        dataset = synth(self.n_per_class, self.config.n_points,
                        np.random.default_rng(seed))
        # Built so that set-up time covers construction; every round then
        # trains a fresh copy.
        aecnn.Model(self.config, seed=seed)
        return dataset

    @staticmethod
    def inputs(dataset) -> np.ndarray:
        return np.stack([s.points for s in dataset.samples])

    def run_round(self, dataset, seed: int, out_dir, tracer=None) -> Round:
        model = aecnn.Model(self.config, seed=seed)
        ckpt = out_dir / f"{self.name}.ckpt"
        if ckpt.exists():
            ckpt.unlink()          # an existing checkpoint would be resumed
        tc = aecnn.TrainConfig(epochs=self.epochs, batch_size=BATCH,
                               setting=SETTING, seed=seed)
        with tracer or nullcontext():
            # Looked up here, where a tracer has rebound the public names.
            train = (aecnn.train_segmenter if self.segmentation
                     else aecnn.train_classifier)
            marks = [perf_counter()]
            record = train(model, dataset, tc, checkpoint_path=str(ckpt),
                           on_epoch=lambda _stats: marks.append(perf_counter()))
            wall = perf_counter() - marks[0]
        n = len(dataset)
        return Round(
            rates=[n / (b - a) for a, b in zip(marks, marks[1:])],
            clouds=n * self.epochs,
            batches=self.epochs * -(-n // BATCH),
            wall=wall,
            fallbacks=sum(model.lrf_fallbacks.values()),
            model=model,
            record=record,
        )

    # -- checks -----------------------------------------------------------

    def check_batch(self, dataset, seed: int):
        """CHECK_CLOUDS clouds, as many of each class, randomly rotated."""
        n_classes = len(dataset.class_names)
        per_class = len(dataset) // n_classes
        take = [c * per_class + i for c in range(n_classes)
                for i in range(CHECK_CLOUDS // n_classes)]
        rng = check_rng(seed)
        samples = [dataset.samples[i] for i in take]
        pts = np.stack([s.points @ haar_rotation(rng).T for s in samples])
        return samples, pts

    def predict(self, model, pts, samples):
        if self.segmentation:
            return model.predict_part_logits_batch(
                pts, np.array([s.class_label for s in samples]))
        return model.predict_logits_batch(pts)

    def loss(self, model, pts, samples):
        if self.segmentation:
            onehot = np.zeros((len(samples), self.config.n_classes))
            onehot[np.arange(len(samples)), [s.class_label for s in samples]] = 1.0
            logits, pens = model.segment_batch(pts, onehot)
            labels = np.stack([s.part_labels for s in samples])
        else:
            logits, pens = model.classify_batch(pts)
            labels = np.array([s.class_label for s in samples])
        return model.loss_terms(logits, labels, pens)

    def fd_coordinates(self):
        """Parameter tensors from the output layer back to the first layer."""
        if self.segmentation:
            return ("point_head.b1", "point_head.w1", "fp2.mlp.b1",
                    "fp1.align.b0", "sa_next1.q.b0", "sa_first.h.b0")
        return ("head.b1", "head.w1", "sa_next2.q.b1", "sa_next1.align.b0",
                "sa_next1.q.b0", "sa_first.h.b0")

    def gradient_check(self, model, pts, samples) -> Check:
        """Backward against central differences of the forward loss.

        The loss is only piecewise smooth: a relu, a max-pool argmax or a
        neighbour choice can switch inside the step. A coordinate counts as
        smooth when the differences at two step sizes agree; the output
        layer's coordinates always are, so at least two get compared.
        """
        ad.backward(self.loss(model, pts, samples))
        grads = {name: model.params[name].grad.copy()
                 for name in self.fd_coordinates()}
        aecnn.nn.zero_grads(model.params)

        def central(flat, j, h):
            orig = flat[j]
            flat[j] = orig + h
            fp = float(self.loss(model, pts, samples).values)
            flat[j] = orig - h
            fm = float(self.loss(model, pts, samples).values)
            flat[j] = orig
            return (fp - fm) / (2.0 * h)

        def rel(a, b):
            return abs(a - b) / max(abs(a), abs(b), 1e-8)

        worst, checked, skipped = 0.0, 0, []
        for name in self.fd_coordinates():
            flat = model.params[name].values.reshape(-1)
            j = int(np.abs(grads[name]).reshape(-1).argmax())
            fd = central(flat, j, FD_STEP)
            if rel(fd, central(flat, j, FD_STEP / 10)) > FD_TOL:
                skipped.append(name)
                continue
            worst = max(worst, rel(float(grads[name].reshape(-1)[j]), fd))
            checked += 1
        return Check("gradients-match-central-differences",
                     worst <= FD_TOL and checked >= 2,
                     f"{checked} coordinates, worst relative error "
                     f"{worst:.2e} (tol {FD_TOL:g}); not smooth: {skipped}")

    def checks(self, dataset, seed: int, rounds: list):
        last = rounds[-1]
        model = last.model
        stats = last.record.epoch_stats
        out = [Check("final-epoch-loss-below-first",
                     stats[-1].loss < stats[0].loss,
                     f"epoch losses {[round(s.loss, 4) for s in stats]}")]
        weights = {digest(r.model.values()) for r in rounds}
        out.append(Check("rounds-train-bit-identical", len(weights) == 1,
                         f"{len(rounds)} rounds, {len(weights)} distinct weights"))
        samples, pts = self.check_batch(dataset, seed)
        logits = self.predict(model, pts, samples)
        rng = check_rng(seed + 1)
        moved, perm = rotated_permuted(pts, rng)
        moved_logits = self.predict(model, moved, samples)
        if self.segmentation:
            out.append(within("part-logits-rotation-invariant",
                              relative_dev(moved_logits, logits[:, perm]),
                              INVARIANCE_TOL))
            out.append(within("part-logits-follow-point-permutation",
                              relative_dev(self.predict(model, pts[:, perm], samples),
                                           logits[:, perm]), EXACT_TOL))
            out.append(self.miou_check(model, dataset, seed))
        else:
            out.append(within("logits-rotation-permutation-invariant",
                              relative_dev(moved_logits, logits), INVARIANCE_TOL))
        out.append(self.gradient_check(model, pts, samples))
        digests = {"logits": digest({"logits": logits}),
                   "weights": digest(model.values())}
        return out, digests

    def miou_check(self, model, dataset, seed: int) -> Check:
        """mIoU recounted from a confusion matrix against `evaluate_miou`."""
        samples, pts = self.check_batch(dataset, seed + 2)
        preds = list(self.predict(model, pts, samples).argmax(axis=-1))
        n_parts = len(dataset.part_names)
        per_class: dict = {}
        hits = total = 0
        for pred, s in zip(preds, samples):
            cm = np.bincount(s.part_labels * n_parts + pred,
                             minlength=n_parts * n_parts).reshape(n_parts, n_parts)
            inter = np.diag(cm)
            union = cm.sum(axis=0) + cm.sum(axis=1) - inter
            iou = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
            per_class.setdefault(s.class_label, []).append(iou.mean())
            hits += int(inter.sum())
            total += int(cm.sum())
        mine = float(np.mean([np.mean(v) for v in per_class.values()]))
        subset = aecnn.Dataset(samples, dataset.class_names, dataset.part_names)
        theirs = aecnn.evaluate_miou(preds, subset)
        dev = max(abs(mine - theirs.miou), abs(hits / total - theirs.accuracy))
        return Check("miou-recount-matches-evaluate-miou", dev <= 1e-12,
                     f"recounted mIoU {mine:.6f}, evaluate_miou "
                     f"{theirs.miou:.6f}")


# ---------------------------------------------------------------------------
# inference workload
# ---------------------------------------------------------------------------

@dataclass
class InferState:
    pts: np.ndarray
    model: object


class InferWorkload:
    """One round scores every input cloud once, INFER_BATCH at a time."""

    def __init__(self, config, n_per_class):
        self.config = config
        self.n_per_class = n_per_class

    def setup(self, seed: int) -> InferState:
        rng = np.random.default_rng(seed)
        dataset = aecnn.synth_classification(self.n_per_class,
                                             self.config.n_points, rng)
        pts = np.stack([s.points @ haar_rotation(rng).T for s in dataset.samples])
        return InferState(pts=pts, model=aecnn.Model(self.config, seed=seed))

    @staticmethod
    def inputs(state: InferState) -> np.ndarray:
        return state.pts

    def run_round(self, state: InferState, seed: int, out_dir,
                  tracer=None) -> Round:
        model = state.model
        before = sum(model.lrf_fallbacks.values())
        rates, logits = [], []
        with tracer or nullcontext():
            t_round = perf_counter()
            for lo in range(0, state.pts.shape[0], INFER_BATCH):
                batch = state.pts[lo:lo + INFER_BATCH]
                t0 = perf_counter()
                logits.append(model.predict_logits_batch(batch))
                rates.append(batch.shape[0] / (perf_counter() - t0))
            wall = perf_counter() - t_round
        return Round(
            rates=rates,
            clouds=state.pts.shape[0],
            batches=len(rates),
            wall=wall,
            fallbacks=sum(model.lrf_fallbacks.values()) - before,
            model=model,
            logits=np.concatenate(logits),
        )

    def checks(self, state: InferState, seed: int, rounds: list):
        model = state.model
        logits = rounds[-1].logits
        out = []
        distinct = {digest({"logits": r.logits}) for r in rounds}
        out.append(Check("rounds-score-bit-identical", len(distinct) == 1,
                         f"{len(rounds)} rounds, {len(distinct)} distinct logits"))
        with Tracer() as tracer:
            alone = model.predict_logits_batch(state.pts[1:2])
        out.append(within("cloud-alone-matches-cloud-in-batch",
                          relative_dev(alone[0], logits[1]), EXACT_TOL))
        table = SpanTable(tracer.spans)
        executed = sum(w for n, w in zip(table.names, table.work)
                       if n == "autodiff.linear")
        counted = aecnn.count_operations(self.config)["total_macs"]
        out.append(Check("executed-macs-equal-count-operations",
                         executed == counted,
                         f"executed {executed:,} MACs per cloud, "
                         f"count_operations {counted:,}"))
        moved, _ = rotated_permuted(state.pts[:INFER_BATCH], check_rng(seed))
        out.append(within("logits-rotation-permutation-invariant",
                          relative_dev(model.predict_logits_batch(moved),
                                       logits[:INFER_BATCH]), INVARIANCE_TOL))
        digests = {"logits": digest({"logits": logits}),
                   "weights": digest(model.values())}
        return out, digests


# Epochs per round are set so that the final epoch's loss sits well below the
# first epoch's on every seed: over 31 seeds the smallest drop was 0.28 for
# classification at 5 epochs and 0.20 for segmentation at 10. Segmentation
# loss jumps by up to 0.3 from one epoch to the next, and at 4 epochs one seed
# in 31 ended above where it started.
WORKLOADS = {
    "desk-cls-train": TrainWorkload(
        "desk-cls-train", aecnn.desk_classification_config(),
        segmentation=False, n_per_class=16, epochs=5),
    "desk-seg-train": TrainWorkload(
        "desk-seg-train", aecnn.desk_segmentation_config(),
        segmentation=True, n_per_class=32, epochs=10),
    "paper-cls-infer": InferWorkload(aecnn.paper_scale_config(), n_per_class=2),
}
