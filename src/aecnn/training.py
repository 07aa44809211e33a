"""Training loops: deterministic epochs, Adam, checkpoints, run records.

Every epoch draws its randomness (shuffle order, rotations)
from a SeedSequence keyed by (seed, epoch), never from a generator that
persists across epochs. That makes two guarantees cheap: the same seed
always produces the same run bit for bit, and resuming from a checkpoint
written after epoch k replays epochs k+1..N exactly as an unbroken run
would have.

The per-sample input pipeline is normalize, then rotate per the protocol's
train side. No scale or translation augmentation is drawn: `normalize`
would cancel it.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .config import ConfigError, TrainConfig
from .data import Dataset, Metrics, _refuse_empty, protocol_rotation
from .network import Model
from .nn import (
    AdamState,
    adam_init,
    adam_step,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    zero_grads,
)

EPOCH_STREAM = 11   # spawn key stream id for per-epoch generators


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    lr: float
    seconds: float
    lrf_fallbacks: dict   # frames that took a fallback axis, by kind

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunRecord:
    """Append-only account of one training run."""

    seed: int
    setting: str
    config: dict
    epoch_stats: list = field(default_factory=list)
    final_metrics: Optional[Metrics] = None
    wall_seconds: float = 0.0
    stopped_early: bool = False

    def to_lines(self) -> list:
        """One JSON-compatible dict per line: header, epochs, then summary."""
        lines = [json.dumps(self.header())]
        for s in self.epoch_stats:
            lines.append(json.dumps({"type": "epoch", **s.to_dict()}))
        summary = {"type": "summary", "wall_seconds": self.wall_seconds,
                   "epochs_run": len(self.epoch_stats),
                   "stopped_early": self.stopped_early}
        if self.final_metrics is not None:
            summary["metrics"] = self.final_metrics.to_dict()
        lines.append(json.dumps(summary))
        return lines

    def header(self) -> dict:
        return {"type": "run", "schema": 1, "seed": self.seed,
                "setting": self.setting, "config": self.config}


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(EPOCH_STREAM, epoch))
    )


# ---------------------------------------------------------------------------
# checkpoint plumbing (weights + optimizer + position in the run)
# ---------------------------------------------------------------------------

def training_checkpoint_arrays(model: Model, adam: AdamState,
                               next_epoch: int) -> dict:
    arrays = {
        "meta.next_epoch": np.array(float(next_epoch)),
        "meta.adam_step": np.array(float(adam.step)),
    }
    for name, p in model.params.items():
        arrays[f"param.{name}"] = p.values
    for name in model.params:
        arrays[f"adam_m.{name}"] = adam.m[name]
        arrays[f"adam_v.{name}"] = adam.v[name]
    return arrays


def save_training_checkpoint(path, model: Model, adam: AdamState,
                             next_epoch: int):
    save_checkpoint(path, training_checkpoint_arrays(model, adam, next_epoch))


def weights_from_checkpoint(arrays: dict) -> dict:
    """Pull the bare parameter tensors out of a training checkpoint."""
    out = {k[len("param."):]: v for k, v in arrays.items()
           if k.startswith("param.")}
    if not out:
        raise ValueError("checkpoint holds no parameter arrays")
    return out


def load_training_checkpoint(path, model: Model):
    """Restore weights and optimizer; returns (adam_state, next_epoch)."""
    arrays = load_checkpoint(path)
    model.load_values(weights_from_checkpoint(arrays))
    adam = adam_init(model.params)
    adam.step = int(arrays["meta.adam_step"])
    for name in model.params:
        for prefix, store in [("adam_m.", adam.m), ("adam_v.", adam.v)]:
            key = prefix + name
            if key not in arrays:
                raise ValueError(f"checkpoint is missing {key}")
            if arrays[key].shape != store[name].shape:
                raise ValueError(f"checkpoint {key} has shape "
                                 f"{arrays[key].shape}, model needs "
                                 f"{store[name].shape}")
            store[name] = arrays[key].copy()
    return adam, int(arrays["meta.next_epoch"])


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

def prepared_points(sample: geo.PointCloud, setting: str, side: str,
                    rng) -> np.ndarray:
    """One cloud through the input pipeline: normalize, rotate."""
    rot = protocol_rotation(setting, side, rng)
    return geo.normalize(sample).points @ rot.T


def _batch(samples, idx, setting: str, rng, segment: bool):
    """samples[idx] through the input pipeline: points (b, n, 3), class
    labels (b,), and the targets, part labels (b, n) when segmenting and
    the class labels otherwise."""
    pts = np.stack([prepared_points(samples[i], setting, "train", rng) for i in idx])
    classes = np.array([samples[i].class_label for i in idx], dtype=np.int64)
    if not segment:
        return pts, classes, classes
    return pts, classes, np.array([samples[i].part_labels for i in idx], dtype=np.int64)


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _train(model: Model, dataset: Dataset, tc: TrainConfig, segment: bool,
           checkpoint_path, on_epoch: Optional[Callable]) -> RunRecord:
    tc = tc.validated()
    if segment != bool(model.config.n_parts):
        head = "segmentation" if segment else "classification"
        raise ConfigError([f"model has no {head} head"])
    _refuse_empty(dataset, "train on")
    record = RunRecord(seed=tc.seed, setting=tc.setting,
                       config={"network": asdict(model.config),
                               "training": asdict(tc)})
    adam = adam_init(model.params)
    start_epoch = 0
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        adam, start_epoch = load_training_checkpoint(checkpoint_path, model)
    class_codes = np.eye(model.config.n_classes)
    t0 = time.perf_counter()
    samples = dataset.samples
    for epoch in range(start_epoch, tc.epochs):
        e0 = time.perf_counter()
        rng = epoch_rng(tc.seed, epoch)
        lr = lr_schedule(epoch, tc.base_lr, tc.lr_decay, tc.lr_boundaries)
        perm = rng.permutation(len(samples))
        fallbacks = dict(model.lrf_fallbacks)
        loss_sum = 0.0
        hits = 0
        total = 0
        for lo in range(0, len(perm), tc.batch_size):
            idx = perm[lo:lo + tc.batch_size]
            pts, classes, labels = _batch(samples, idx, tc.setting, rng, segment)
            if segment:
                logits, pens = model.segment_batch(pts, class_codes[classes])
            else:
                logits, pens = model.classify_batch(pts)
            loss = model.loss_terms(logits, labels, pens)
            ad.backward(loss)
            adam_step(model.params, adam, lr)
            zero_grads(model.params)
            loss_sum += float(loss.values) * len(idx)
            hits += int((logits.values.argmax(axis=-1) == labels).sum())
            total += labels.size
        stats = EpochStats(epoch=epoch, loss=loss_sum / len(perm),
                           accuracy=hits / total, lr=lr,
                           seconds=time.perf_counter() - e0,
                           lrf_fallbacks={key: n - fallbacks.get(key, 0) for key, n
                                          in model.lrf_fallbacks.items()})
        record.epoch_stats.append(stats)
        if checkpoint_path is not None:
            save_training_checkpoint(checkpoint_path, model, adam, epoch + 1)
        if on_epoch is not None:
            on_epoch(stats)
        if (tc.early_stop_train_acc is not None
                and stats.accuracy >= tc.early_stop_train_acc):
            record.stopped_early = True
            break
    record.wall_seconds = time.perf_counter() - t0
    return record


def train_classifier(model: Model, dataset: Dataset, tc: TrainConfig,
                     checkpoint_path=None,
                     on_epoch: Optional[Callable] = None) -> RunRecord:
    return _train(model, dataset, tc, False, checkpoint_path, on_epoch)


def train_segmenter(model: Model, dataset: Dataset, tc: TrainConfig,
                    checkpoint_path=None,
                    on_epoch: Optional[Callable] = None) -> RunRecord:
    return _train(model, dataset, tc, True, checkpoint_path, on_epoch)


# ---------------------------------------------------------------------------
# evaluation conveniences shared by tests and the command line
# ---------------------------------------------------------------------------

def predict_parts(model: Model, dataset: Dataset, setting: str, rng,
                  batch_size: int = 16):
    """Per-point part predictions under the setting's test-side rotations."""
    preds = []
    samples = dataset.samples
    for lo in range(0, len(samples), batch_size):
        chunk = samples[lo:lo + batch_size]
        pts = np.stack([prepared_points(s, setting, "test", rng) for s in chunk])
        class_labels = np.array([s.class_label for s in chunk])
        logits = model.predict_part_logits_batch(pts, class_labels)
        preds.extend(list(logits.argmax(axis=-1)))
    return preds
