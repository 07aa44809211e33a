"""Point-cloud file formats, synthetic datasets, and evaluation metrics.

Two on-disk formats live here. `.xyz` is a plain text format, one point per
line as "x y z" with an optional trailing integer part label and '#'
comments; floats are printed with 17 significant digits so a save/load pair
is bit exact. The dataset container is a little-endian binary format:

    magic   b"AEDS1"
    u32     sample count (must be >= 1)
    u32     class name count, then per name: u32 byte length + utf-8 bytes
    u32     part name count, same encoding
    u32     split tag byte length + utf-8 bytes
    per sample:
        u32  class id
        u32  point count
        u8   1 when per-point part labels follow, else 0
        point count * 3 f8 coordinates
        point count * u8 part labels (only when flagged)

All loaders name the byte or line position when they reject a file.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import geometry as geo
from .config import ByteReader, atomic_write

DATASET_MAGIC = b"AEDS1"
# Longest class name, part name or split tag, in utf-8 bytes, and the largest
# part label (stored as u8) that the dataset format holds.
DATASET_MAX_STRING_BYTES = 65536
DATASET_MAX_PART_LABEL = 255
XYZ_FLOAT_FORMAT = "%.17g"
JITTER_SIGMA = 0.01
CLASS_NAMES = ("sphere", "cube", "cylinder", "torus")
SEG_CLASS_NAMES = ("barbell", "mushroom")
SEG_PART_NAMES = ("bulb", "shaft")
# Target share of each shape's points that land on the rounded part.
BARBELL_BULB_FRACTION = 0.6
MUSHROOM_BULB_FRACTION = 0.55
PROTOCOL_SIDES = ("train", "test")


class FileFormatError(ValueError):
    """A file does not match its declared format."""


@dataclass
class Dataset:
    """An in-memory list of labeled clouds plus its naming metadata."""

    samples: list
    class_names: tuple
    part_names: tuple = ()
    split_tag: str = ""

    def __post_init__(self):
        self.class_names = tuple(str(n) for n in self.class_names)
        self.part_names = tuple(str(n) for n in self.part_names)
        n_classes = len(self.class_names)
        n_parts = len(self.part_names)
        for i, s in enumerate(self.samples):
            if s.class_label is None or not 0 <= s.class_label < n_classes:
                raise ValueError(
                    f"sample {i}: class label {s.class_label!r} outside "
                    f"[0, {n_classes})"
                )
            if s.part_labels is not None:
                if n_parts == 0:
                    raise ValueError(
                        f"sample {i} carries part labels but the dataset "
                        "declares no part names"
                    )
                lo, hi = int(s.part_labels.min()), int(s.part_labels.max())
                if lo < 0 or hi >= n_parts:
                    raise ValueError(
                        f"sample {i}: part labels span [{lo}, {hi}], outside "
                        f"[0, {n_parts})"
                    )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


def _refuse_empty(dataset: Dataset, what: str):
    """Raise ValueError, naming the dataset by its split tag, if it holds no
    samples: the mean loss, accuracy and mIoU over none are undefined."""
    if not dataset.samples:
        raise ValueError(f"cannot {what} the dataset "
                         f"{dataset.split_tag or '(untagged)'!r}: it holds no samples")


@dataclass
class Metrics:
    """Evaluation summary; every populated fraction sits in [0, 1]."""

    accuracy: Optional[float] = None
    per_class_accuracy: dict = field(default_factory=dict)
    miou: Optional[float] = None
    per_class_miou: dict = field(default_factory=dict)
    setting: str = ""

    def __post_init__(self):
        for label, v in [("accuracy", self.accuracy), ("miou", self.miou),
                         *self.per_class_accuracy.items(),
                         *self.per_class_miou.items()]:
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} = {v} is not a fraction in [0, 1]")

    def to_dict(self) -> dict:
        out = {}
        if self.accuracy is not None:
            out["accuracy"] = self.accuracy
        if self.per_class_accuracy:
            out["per_class_accuracy"] = dict(self.per_class_accuracy)
        if self.miou is not None:
            out["miou"] = self.miou
        if self.per_class_miou:
            out["per_class_miou"] = dict(self.per_class_miou)
        if self.setting:
            out["setting"] = self.setting
        return out


# ---------------------------------------------------------------------------
# .xyz text format
# ---------------------------------------------------------------------------

def save_xyz(path, cloud: geo.PointCloud):
    pts = cloud.points
    labels = cloud.part_labels
    with atomic_write(path) as f:
        for i in range(pts.shape[0]):
            row = " ".join(XYZ_FLOAT_FORMAT % v for v in pts[i])
            if labels is not None:
                row += f" {int(labels[i])}"
            f.write(row + "\n")


def load_xyz(path) -> geo.PointCloud:
    rows = []
    labels = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) not in (3, 4):
                raise FileFormatError(
                    f"{path}: line {lineno}: expected 'x y z' or 'x y z label', "
                    f"got {len(tokens)} fields"
                )
            try:
                xyz = [float(t) for t in tokens[:3]]
            except ValueError:
                raise FileFormatError(
                    f"{path}: line {lineno}: non-numeric coordinate"
                ) from None
            if not all(np.isfinite(v) for v in xyz):
                raise FileFormatError(
                    f"{path}: line {lineno}: non-finite coordinate"
                )
            lab = None
            if len(tokens) == 4:
                try:
                    lab = int(tokens[3])
                except ValueError:
                    raise FileFormatError(
                        f"{path}: line {lineno}: part label must be an integer"
                    ) from None
                if lab < 0:
                    raise FileFormatError(
                        f"{path}: line {lineno}: part label must be >= 0"
                    )
            if rows and (lab is None) != (labels[-1] is None):
                raise FileFormatError(
                    f"{path}: line {lineno}: mixes labeled and unlabeled points"
                )
            rows.append(xyz)
            labels.append(lab)
    if not rows:
        raise FileFormatError(f"{path}: no points found")
    pts = np.array(rows, dtype=np.float64)
    part = None if labels[0] is None else np.array(labels, dtype=np.int64)
    return geo.PointCloud(pts, part_labels=part)


# ---------------------------------------------------------------------------
# AEDS1 binary dataset format
# ---------------------------------------------------------------------------

def _encoded(what: str, s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > DATASET_MAX_STRING_BYTES:
        raise ValueError(
            f"{what} of {len(raw)} bytes is longer than the "
            f"{DATASET_MAX_STRING_BYTES} the dataset format holds"
        )
    return raw


def _write_str(f, raw: bytes):
    f.write(np.uint32(len(raw)).tobytes())
    f.write(raw)


def save_dataset_bin(path, dataset: Dataset):
    """Write `dataset` atomically; refuse what `load_dataset_bin` would reject
    or misread before opening the file."""
    if len(dataset) == 0:
        raise ValueError("refusing to write an empty dataset")
    class_names = [_encoded("class name", n) for n in dataset.class_names]
    part_names = [_encoded("part name", n) for n in dataset.part_names]
    split_tag = _encoded("split tag", dataset.split_tag)
    for si, s in enumerate(dataset.samples):
        if s.part_labels is not None and s.part_labels.max() > DATASET_MAX_PART_LABEL:
            raise ValueError(
                f"sample {si}: part label {int(s.part_labels.max())} does not "
                f"fit the dataset format's u8 labels (at most "
                f"{DATASET_MAX_PART_LABEL})"
            )
    with atomic_write(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(np.uint32(len(dataset)).tobytes())
        f.write(np.uint32(len(class_names)).tobytes())
        for raw in class_names:
            _write_str(f, raw)
        f.write(np.uint32(len(part_names)).tobytes())
        for raw in part_names:
            _write_str(f, raw)
        _write_str(f, split_tag)
        for s in dataset.samples:
            f.write(np.uint32(s.class_label).tobytes())
            f.write(np.uint32(s.points.shape[0]).tobytes())
            has = s.part_labels is not None
            f.write(np.uint8(1 if has else 0).tobytes())
            coords = np.ascontiguousarray(s.points, dtype="<f8")
            f.write(coords.tobytes())
            if has:
                f.write(s.part_labels.astype(np.uint8).tobytes())


def load_dataset_bin(path) -> Dataset:
    r = ByteReader(path, FileFormatError)
    magic = r.take(len(DATASET_MAGIC), "magic")
    if magic != DATASET_MAGIC:
        raise FileFormatError(
            f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}"
        )
    n_samples = r.u32("sample count")
    if n_samples == 0:
        raise FileFormatError(f"{path}: dataset holds zero samples")
    class_names = tuple(r.string("class name", DATASET_MAX_STRING_BYTES)
                        for _ in range(r.u32("class name count")))
    part_names = tuple(r.string("part name", DATASET_MAX_STRING_BYTES)
                       for _ in range(r.u32("part name count")))
    split_tag = r.string("split tag", DATASET_MAX_STRING_BYTES)
    samples = []
    for si in range(n_samples):
        class_id = r.u32(f"sample {si} class id")
        if class_id >= len(class_names):
            raise FileFormatError(
                f"{path}: sample {si}: class id {class_id} outside the "
                f"{len(class_names)} declared classes"
            )
        n_points = r.u32(f"sample {si} point count")
        if not 1 <= n_points <= 2 ** 26:
            raise FileFormatError(
                f"{path}: sample {si}: implausible point count {n_points}"
            )
        has_labels = r.u8(f"sample {si} label flag")
        if has_labels not in (0, 1):
            raise FileFormatError(
                f"{path}: sample {si}: label flag must be 0 or 1, got {has_labels}"
            )
        coords = np.frombuffer(
            r.take(n_points * 24, f"sample {si} coordinates"), dtype="<f8"
        ).reshape(n_points, 3).copy()
        part = None
        if has_labels:
            raw = r.take(n_points, f"sample {si} part labels")
            part = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        samples.append(geo.PointCloud(coords, class_label=class_id,
                                      part_labels=part))
    if r.pos != len(r.blob):
        raise FileFormatError(
            f"{path}: {len(r.blob) - r.pos} trailing bytes after the last sample "
            f"(byte {r.pos})"
        )
    return Dataset(samples, class_names, part_names, split_tag)


# ---------------------------------------------------------------------------
# synthetic surface samplers
# ---------------------------------------------------------------------------

def sample_sphere_surface(rng, n: int, radius: float = 1.0,
                          center=(0.0, 0.0, 0.0)) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # A zero draw is astronomically unlikely; replace rather than loop.
    v = np.where(norms < 1e-12, np.array([1.0, 0.0, 0.0]), v / np.maximum(norms, 1e-12))
    return radius * v + np.asarray(center, dtype=np.float64)


def sample_cube_surface(rng, n: int, half: float = 1.0) -> np.ndarray:
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-half, half, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face % 3
    sign = np.where(face < 3, half, -half)
    for a in range(3):
        m = axis == a
        others = [b for b in range(3) if b != a]
        pts[m, a] = sign[m]
        pts[m, others[0]] = uv[m, 0]
        pts[m, others[1]] = uv[m, 1]
    return pts


def sample_cylinder_surface(rng, n: int, radius: float = 0.5,
                            height: float = 2.0) -> np.ndarray:
    side_area = 2 * np.pi * radius * height
    cap_area = np.pi * radius ** 2
    probs = np.array([side_area, cap_area, cap_area])
    probs = probs / probs.sum()
    which = rng.choice(3, size=n, p=probs)
    theta = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.empty((n, 3))
    side = which == 0
    pts[side, 0] = radius * np.cos(theta[side])
    pts[side, 2] = radius * np.sin(theta[side])
    pts[side, 1] = rng.uniform(-height / 2, height / 2, size=int(side.sum()))
    for w, y in [(1, height / 2), (2, -height / 2)]:
        m = which == w
        rr = radius * np.sqrt(rng.uniform(size=int(m.sum())))
        pts[m, 0] = rr * np.cos(theta[m])
        pts[m, 2] = rr * np.sin(theta[m])
        pts[m, 1] = y
    return pts


def sample_torus_surface(rng, n: int, ring_radius: float = 0.7,
                         tube_radius: float = 0.3) -> np.ndarray:
    """Uniform area sampling via rejection on the tube angle.

    Surface area density along the tube angle phi is proportional to
    ring_radius + tube_radius*cos(phi), so phi is drawn by rejection against
    that envelope; the ring angle is uniform.
    """
    out = np.empty((0, 2))
    while out.shape[0] < n:
        need = n - out.shape[0]
        draw = max(2 * need, 64)
        phi = rng.uniform(0, 2 * np.pi, size=draw)
        keep = rng.uniform(size=draw) < (
            (ring_radius + tube_radius * np.cos(phi)) / (ring_radius + tube_radius)
        )
        theta = rng.uniform(0, 2 * np.pi, size=draw)
        out = np.concatenate([out, np.stack([theta[keep], phi[keep]], axis=1)])
    theta, phi = out[:n, 0], out[:n, 1]
    rad = ring_radius + tube_radius * np.cos(phi)
    return np.stack([rad * np.cos(theta), tube_radius * np.sin(phi),
                     rad * np.sin(theta)], axis=1)


def _finish_sample(pts, rng, class_label, part=None) -> geo.PointCloud:
    pts = pts + rng.normal(scale=JITTER_SIGMA, size=pts.shape)
    cloud = geo.PointCloud(pts, class_label=class_label, part_labels=part)
    return geo.normalize(cloud)


def synth_classification(n_per_class: int, n_points: int, rng) -> Dataset:
    """Balanced 4-class surface dataset: sphere, cube, cylinder, torus.

    The cylinder and torus share a rotational axis of symmetry and similar
    extents, so their separation rests on local curvature rather than pose.
    Every cloud is jittered then normalized (centroid at the origin, max
    radius one).
    """
    samplers = (
        sample_sphere_surface,
        sample_cube_surface,
        sample_cylinder_surface,
        sample_torus_surface,
    )
    samples = []
    for ci, sampler in enumerate(samplers):
        for _ in range(n_per_class):
            samples.append(_finish_sample(sampler(rng, n_points), rng, ci))
    return Dataset(samples, CLASS_NAMES, split_tag="synthetic")


def _make_barbell(rng, n_points: int):
    n_bulb = int(round(BARBELL_BULB_FRACTION * n_points))
    n_left = n_bulb // 2
    pts = np.concatenate([
        sample_sphere_surface(rng, n_left, radius=0.35, center=(-0.65, 0, 0)),
        sample_sphere_surface(rng, n_bulb - n_left, radius=0.35, center=(0.65, 0, 0)),
        _bar_lateral(rng, n_points - n_bulb, radius=0.1, x0=-0.65, x1=0.65),
    ])
    labels = np.concatenate([
        np.zeros(n_bulb, dtype=np.int64),
        np.ones(n_points - n_bulb, dtype=np.int64),
    ])
    return pts, labels


def _bar_lateral(rng, n: int, radius: float, x0: float, x1: float) -> np.ndarray:
    theta = rng.uniform(0, 2 * np.pi, size=n)
    x = rng.uniform(x0, x1, size=n)
    return np.stack([x, radius * np.cos(theta), radius * np.sin(theta)], axis=1)


def _make_mushroom(rng, n_points: int):
    n_cap = int(round(MUSHROOM_BULB_FRACTION * n_points))
    sph = sample_sphere_surface(rng, 2 * n_cap + 32, radius=0.5)
    upper = sph[sph[:, 1] >= 0.0]
    while upper.shape[0] < n_cap:
        extra = sample_sphere_surface(rng, n_cap, radius=0.5)
        upper = np.concatenate([upper, extra[extra[:, 1] >= 0.0]])
    cap = upper[:n_cap] + np.array([0.0, 0.3, 0.0])
    n_stem = n_points - n_cap
    theta = rng.uniform(0, 2 * np.pi, size=n_stem)
    y = rng.uniform(-0.7, 0.3, size=n_stem)
    stem = np.stack([0.15 * np.cos(theta), y, 0.15 * np.sin(theta)], axis=1)
    pts = np.concatenate([cap, stem])
    labels = np.concatenate([np.zeros(n_cap, dtype=np.int64),
                             np.ones(n_stem, dtype=np.int64)])
    return pts, labels


def synth_segmentation(n_per_class: int, n_points: int, rng) -> Dataset:
    """Two 2-part object classes with labels assigned by construction.

    Barbell: two spheres (part 0) joined by a thin bar (part 1). Mushroom: a
    hemispherical cap (part 0) on a thin stem (part 1). Both parts of both
    classes survive normalization with stable proportions.
    """
    makers = (_make_barbell, _make_mushroom)
    samples = []
    for ci, make in enumerate(makers):
        for _ in range(n_per_class):
            pts, labels = make(rng, n_points)
            samples.append(_finish_sample(pts, rng, ci, part=labels))
    return Dataset(samples, SEG_CLASS_NAMES, SEG_PART_NAMES,
                   split_tag="synthetic")


# ---------------------------------------------------------------------------
# rotation protocols and evaluation
# ---------------------------------------------------------------------------

def protocol_rotation(setting: str, side: str, rng) -> np.ndarray:
    """One rotation drawn per the train/test protocol.

    Y/Y rotates about the vertical axis on both sides; Y/AR trains on
    vertical rotations but tests on arbitrary ones; AR/AR uses arbitrary
    rotations throughout.
    """
    if side not in PROTOCOL_SIDES:
        raise ValueError(f"side must be one of {PROTOCOL_SIDES}, got {side!r}")
    arbitrary = {"YY": (False, False), "YAR": (False, True),
                 "ARAR": (True, True)}
    try:
        use_arbitrary = arbitrary[setting][PROTOCOL_SIDES.index(side)]
    except KeyError:
        raise ValueError(
            f"setting must be one of {tuple(arbitrary)}, got {setting!r}"
        ) from None
    if use_arbitrary:
        return geo.sample_arbitrary_rotation(rng)
    return geo.sample_y_rotation(rng)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _predict_fn(model) -> Callable:
    if hasattr(model, "predict_logits_batch"):
        return model.predict_logits_batch
    if callable(model):
        return model
    raise TypeError(
        "model must expose predict_logits_batch(points) or be callable"
    )


def evaluate_classification(model, dataset: Dataset, setting: str, rng,
                            votes: int = 1, batch_size: int = 32) -> Metrics:
    """Accuracy under the setting's test-side rotations.

    Each sample is normalized, as training and `predict_parts` see clouds,
    then scored on a freshly rotated copy; with votes > 1 the softmax outputs
    of that many independently rotated copies are averaged before the argmax
    (prediction voting). Copies are rotated sample by sample and scored
    `batch_size` at a time as they are drawn, so at most one batch of clouds
    is held (a batch may split one sample's votes).
    """
    if votes < 1:
        raise ValueError(f"votes must be >= 1, got {votes}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    _refuse_empty(dataset, "score")
    predict = _predict_fn(model)
    batch, probs = [], []
    for s in dataset:
        pts = geo.normalize(s).points
        for _ in range(votes):
            batch.append(pts @ protocol_rotation(setting, "test", rng).T)
            if len(batch) == batch_size:
                probs.append(_softmax(np.asarray(predict(np.stack(batch)))))
                batch = []
    if batch:
        probs.append(_softmax(np.asarray(predict(np.stack(batch)))))
    labels = np.array([s.class_label for s in dataset])
    probs = np.concatenate(probs).reshape(len(dataset), votes, -1).mean(axis=1)
    pred = probs.argmax(axis=1)
    correct = pred == labels
    per_class = {}
    for ci, name in enumerate(dataset.class_names):
        m = labels == ci
        if m.any():
            per_class[name] = float(correct[m].mean())
    return Metrics(accuracy=float(correct.mean()),
                   per_class_accuracy=per_class, setting=setting)


def miou_for_shape(pred: np.ndarray, true: np.ndarray, n_parts: int) -> float:
    """Mean over parts of intersection over union; absent-in-both scores 1."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape:
        raise ValueError(
            f"prediction shape {pred.shape} does not match labels {true.shape}"
        )
    ious = []
    for part in range(n_parts):
        p = pred == part
        t = true == part
        union = int(np.logical_or(p, t).sum())
        if union == 0:
            ious.append(1.0)
        else:
            ious.append(int(np.logical_and(p, t).sum()) / union)
    return float(np.mean(ious))


def evaluate_miou(predictions: Sequence[np.ndarray], dataset: Dataset) -> Metrics:
    """Per-shape IoU averaged within each object class, then across classes."""
    if len(predictions) != len(dataset):
        raise ValueError(
            f"{len(predictions)} predictions for {len(dataset)} samples"
        )
    _refuse_empty(dataset, "compute the mIoU of")
    n_parts = len(dataset.part_names)
    per_class_scores: dict = {}
    hits = 0
    total = 0
    for pred, s in zip(predictions, dataset):
        if s.part_labels is None:
            raise ValueError("dataset sample lacks part labels")
        score = miou_for_shape(pred, s.part_labels, n_parts)
        per_class_scores.setdefault(s.class_label, []).append(score)
        hits += int((np.asarray(pred) == s.part_labels).sum())
        total += s.part_labels.size
    class_means = {dataset.class_names[ci]: float(np.mean(v))
                   for ci, v in sorted(per_class_scores.items())}
    return Metrics(
        accuracy=hits / total,
        miou=float(np.mean(list(class_means.values()))),
        per_class_miou=class_means,
    )
