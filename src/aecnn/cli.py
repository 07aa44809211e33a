"""Command-line entry points.

Subcommands: train, eval, invariance-audit, ablate, lrf-dump. Every machine
output is one JSON object per line tagged with a "type" field; the first
line of each command's output carries "schema": 1. Exit codes: 0 success,
2 validation or input failure, 3 invariance audit failure.

Seeds: one --seed governs a command end to end. Training derives its
synthetic data, its per-epoch shuffling and rotations, and its weight
initialization from that seed through separate fixed streams, so any
command run twice with the same arguments produces identical bytes.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as dat
from . import geometry as geo
from . import lrf as lrfmod
from . import neighbors as nb
from .config import (
    ALIGN_VARIANTS,
    ANCHOR_MODES,
    SETTINGS,
    ConfigError,
    NetworkConfig,
    TrainConfig,
    atomic_write,
    config_sections,
    load_config,
    save_config,
)
from .network import Model, count_operations, count_parameters
from .nn import CheckpointError, load_checkpoint
from .training import (
    load_training_checkpoint,
    predict_parts,
    train_classifier,
    train_segmenter,
    weights_from_checkpoint,
)

SCHEMA_VERSION = 1
TRAIN_DATA_STREAM = 23
TEST_DATA_STREAM = 24
EVAL_ROTATION_STREAM = 25
AUDIT_CLOUD_STREAM = 26

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_AUDIT_FAILED = 3

ABLATION_VARIANTS = ("edgeconv", "aeconv1", "aeconv3")
ABLATION_SEARCHES = ("knn", "ball")
ABLATION_ANCHORS = ("mean", "max_projection")
ABLATION_KS = (10, 16, 32, 48)


def _emit(obj: dict):
    print(json.dumps(obj))


def _fail(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_VALIDATION


def _fail_config(exc: ConfigError) -> int:
    for problem in exc.problems:
        print(f"config error: {problem}", file=sys.stderr)
    return EXIT_VALIDATION


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_configs(path, args) -> tuple:
    """Config file plus flag overrides -> validated (network, training)."""
    network, training = load_config(path)
    if training is None:
        training = TrainConfig()
    if getattr(args, "variant", None):
        network = replace(network, variant=args.variant)
    updates = {}
    for flag, field_name in [("seed", "seed"), ("setting", "setting"),
                             ("epochs", "epochs"),
                             ("batch_size", "batch_size"),
                             ("early_stop_acc", "early_stop_train_acc"),
                             ("votes", "votes")]:
        v = getattr(args, flag, None)
        if v is not None:
            updates[field_name] = v
    if updates:
        training = replace(training, **updates)
    return network.validated(), training.validated()


def _synth_dataset(kind: str, n_per_class: int, n_points: int, seed: int,
                   stream: int) -> dat.Dataset:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
    if kind == "segmentation":
        return dat.synth_segmentation(n_per_class, n_points, rng)
    return dat.synth_classification(n_per_class, n_points, rng)


def _synth_pair(kind: str, n_per_class: int, n_points: int, seed: int) -> tuple:
    """The synthetic train set of a seed and its half-size test set."""
    return (_synth_dataset(kind, n_per_class, n_points, seed, TRAIN_DATA_STREAM),
            _synth_dataset(kind, max(1, n_per_class // 2), n_points, seed,
                           TEST_DATA_STREAM))


def _check_fits(network: NetworkConfig, dataset: dat.Dataset, name: str):
    """Raise ValueError unless `network` can train on and score `dataset`."""
    seg = network.n_parts > 0
    if seg and any(s.part_labels is None for s in dataset):
        raise ValueError(f"segmentation model but the {name} has no part labels")
    for what, have, room in [("classes", len(dataset.class_names), network.n_classes),
                             ("parts", seg * len(dataset.part_names), network.n_parts)]:
        if have > room:
            raise ValueError(f"the {name} has {have} {what} but the model has {room}")
    for i, s in enumerate(dataset):
        if s.points.shape[0] != network.n_points:
            raise ValueError(f"sample {i} of the {name} has {s.points.shape[0]} "
                             f"points but the model expects {network.n_points}")


def _score(model: Model, test_set: dat.Dataset, setting: str, seed: int,
           votes: int) -> dat.Metrics:
    """mIoU for a segmenter, accuracy for a classifier, under the setting's
    test rotations drawn from the seed's evaluation stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(EVAL_ROTATION_STREAM,))
    )
    if model.config.n_parts:
        metrics = dat.evaluate_miou(predict_parts(model, test_set, setting, rng),
                                    test_set)
        metrics.setting = setting
        return metrics
    return dat.evaluate_classification(model, test_set, setting, rng, votes=votes)


def _resolve_dataset(token: str, n_per_class: int, n_points: int, seed: int,
                     stream: int) -> dat.Dataset:
    """A dataset argument is a file path or a synth-<kind> token."""
    if token in ("synth-classification", "synth-segmentation"):
        return _synth_dataset(token[len("synth-"):], n_per_class, n_points,
                              seed, stream)
    return dat.load_dataset_bin(token)


def _resume_conflicts(config_path, network, training) -> list:
    """Where the config a checkpoint was trained under differs from this run's.

    Compares the INI text save_config writes for each, as load_config reads
    the old file, so a field it leaves out (the segmentation widths of a
    classifier) cannot differ; a resume may change the epoch count.
    """
    if not os.path.exists(config_path):
        return [f"{config_path} is missing"]
    try:
        old_sections = config_sections(*load_config(config_path))
    except ConfigError as e:
        return [f"{config_path}: {p}" for p in e.problems]
    old, new = ({(s, k): v for s, values in sections.items() for k, v in values.items()}
                for sections in (old_sections, config_sections(network, training)))
    keys = sorted((old.keys() | new.keys()) - {("training", "epochs")})
    return [f"[{s}] {k}: {old.get((s, k))} -> {new.get((s, k))}"
            for s, k in keys if old.get((s, k)) != new.get((s, k))]


def _model_from_checkpoint(args) -> tuple:
    """(model, network_config) for eval-style commands."""
    config_path = args.config or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "config.ini")
    if not os.path.exists(config_path):
        raise FileNotFoundError(
            f"no config at {config_path}; pass --config explicitly"
        )
    network = load_config(config_path)[0].validated()
    model = Model(network, seed=0)
    model.load_values(weights_from_checkpoint(load_checkpoint(args.checkpoint)))
    return model, network


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    try:
        network, training = _load_configs(args.config, args)
    except ConfigError as e:
        return _fail_config(e)
    except OSError as e:
        return _fail(e)

    ckpt = os.path.join(args.out_dir, "model.ckpt")
    config_path = os.path.join(args.out_dir, "config.ini")
    model = Model(network, seed=training.seed)
    if os.path.exists(ckpt):
        conflicts = _resume_conflicts(config_path, network, training)
        if conflicts:
            return _fail(f"{args.out_dir} holds a checkpoint trained under another "
                         f"config; use a new OUT_DIR. Differences: {'; '.join(conflicts)}")
        try:  # the trainer loads it again; refuse here, before anything is written
            load_training_checkpoint(ckpt, model)
        except (KeyError, ValueError, OSError) as e:  # CheckpointError is a ValueError
            return _fail(f"cannot resume from {ckpt}: {e}")

    seg = network.n_parts > 0
    try:
        if args.dataset is not None:
            train_set = dat.load_dataset_bin(args.dataset)
            test_set = (dat.load_dataset_bin(args.eval_dataset)
                        if args.eval_dataset else None)
        else:
            train_set, test_set = _synth_pair(
                "segmentation" if seg else "classification", args.n_per_class,
                network.n_points, training.seed)
        for name, dataset in [("dataset", train_set), ("eval dataset", test_set)]:
            if dataset is not None:
                _check_fits(network, dataset, name)
    except (dat.FileFormatError, ValueError, OSError) as e:
        return _fail(e)

    os.makedirs(args.out_dir, exist_ok=True)
    save_config(config_path, network, training)
    _emit({"type": "run", "schema": SCHEMA_VERSION, "seed": training.seed,
           "setting": training.setting, "out_dir": args.out_dir})

    def show(stats):
        _emit({"type": "epoch", **stats.to_dict()})

    trainer = train_segmenter if seg else train_classifier
    record = trainer(model, train_set, training, checkpoint_path=ckpt,
                     on_epoch=show)
    if test_set is not None:
        record.final_metrics = _score(model, test_set, training.setting,
                                      training.seed, training.votes)

    lines = record.to_lines()
    with open(os.path.join(args.out_dir, "run.jsonl"), "a") as f:
        for line in lines:
            f.write(line + "\n")
    print(lines[-1])
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    try:
        model, network = _model_from_checkpoint(args)
        test_set = _resolve_dataset(args.dataset, args.n_per_class,
                                    network.n_points, args.seed,
                                    TEST_DATA_STREAM)
        _check_fits(network, test_set, "dataset")
    except ConfigError as e:
        return _fail_config(e)
    except (CheckpointError, dat.FileFormatError, ValueError, OSError) as e:
        return _fail(e)

    metrics = _score(model, test_set, args.setting, args.seed, args.votes)
    _emit({"type": "metrics", "schema": SCHEMA_VERSION, **metrics.to_dict()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariance audit
# ---------------------------------------------------------------------------

def cmd_invariance_audit(args) -> int:
    try:
        model, network = _model_from_checkpoint(args)
    except ConfigError as e:
        return _fail_config(e)
    except (CheckpointError, ValueError, OSError) as e:
        return _fail(e)

    if args.rotations == 0:
        _emit({"type": "audit", "schema": SCHEMA_VERSION, "rotations": 0,
               "clouds": args.clouds, "warning": "no rotations tested; "
               "vacuous pass", "passed": True})
        return EXIT_OK

    rng = np.random.default_rng(
        np.random.SeedSequence(args.seed, spawn_key=(AUDIT_CLOUD_STREAM,))
    )
    worst = 0.0
    agree = 0
    trials = 0
    for c in range(args.clouds):
        pts = geo.normalize(
            geo.PointCloud(rng.normal(size=(network.n_points, 3)))
        ).points
        # A segmenter is audited on its part logits, with cloud c as class c.
        predict = (lambda p: model.predict_part_logits(p, c % network.n_classes)
                   ) if network.n_parts else model.predict_logits
        base = predict(pts)
        for _ in range(args.rotations):
            rot = geo.sample_arbitrary_rotation(rng)
            got = predict(pts @ rot.T)
            worst = max(worst, float(np.abs(got - base).max()))
            agree += float(np.mean(got.argmax(axis=-1) == base.argmax(axis=-1)))
            trials += 1
    agreement = agree / trials
    passed = worst <= args.tolerance
    _emit({"type": "audit", "schema": SCHEMA_VERSION, "clouds": args.clouds,
           "rotations": args.rotations, "max_abs_deviation": worst,
           "argmax_agreement": agreement, "tolerance": args.tolerance,
           "lrf_fallbacks": dict(model.lrf_fallbacks), "passed": passed})
    return EXIT_OK if passed else EXIT_AUDIT_FAILED


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    try:
        network, training = _load_configs(args.config, args)
    except ConfigError as e:
        return _fail_config(e)
    except OSError as e:
        return _fail(e)
    # Every cell is validated before the first one trains.
    cells = []
    for variant, search, anchor, k in itertools.product(
            args.variants, args.searches, args.anchors, args.ks):
        cfg = replace(network, variant=variant,
                      sa_first=replace(network.sa_first, search=search,
                                       anchor=anchor, k=k))
        try:
            cells.append(((variant, search, anchor, k), cfg.validated()))
        except ConfigError as e:
            return _fail_config(e)
    # Every cell of a seed trains and scores on the same pair, and every pair
    # carries the same names.
    pairs = {seed: _synth_pair("classification", args.n_per_class,
                               network.n_points, seed) for seed in args.seeds}
    try:
        _check_fits(network, pairs[args.seeds[0]][0], "synthetic classification set")
    except ValueError as e:
        return _fail(e)

    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "ablation.jsonl")
    rows = []
    _emit({"type": "ablation_header", "schema": SCHEMA_VERSION,
           "grid": {"variant": list(args.variants), "search": list(args.searches),
                    "anchor": list(args.anchors), "k": list(args.ks)},
           "seeds": list(args.seeds), "setting": training.setting,
           "cells": len(cells)})

    for (variant, search, anchor, k), cfg in cells:
        accs = []
        for seed in args.seeds:
            tc = replace(training, seed=seed)
            train_set, test_set = pairs[seed]
            model = Model(cfg, seed=seed)
            train_classifier(model, train_set, tc)
            m = _score(model, test_set, tc.setting, seed, tc.votes)
            accs.append(m.accuracy)
        row = {
            "type": "ablation", "variant": variant,
            "search": search, "anchor": anchor, "k": k,
            "accuracy_mean": float(np.mean(accs)),
            "accuracies": accs,
            "parameters": count_parameters(cfg),
            "macs_per_sample": count_operations(cfg)["total_macs"],
        }
        rows.append(row)
        _emit(row)
        # Rewritten after each cell, so an interrupted grid keeps its rows.
        with atomic_write(out_path) as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# LRF inspection
# ---------------------------------------------------------------------------

def cmd_lrf_dump(args) -> int:
    try:
        cloud = dat.load_xyz(args.cloud)
    except (dat.FileFormatError, OSError) as e:
        return _fail(e)
    pts = cloud.points
    k = min(args.k, pts.shape[0])
    neighbors = nb.knn_points_batch(pts[None], pts[None], k)[0]
    hoods = pts[neighbors]
    counts: dict = {}
    bases = lrfmod.compute_lrf_batch(pts, hoods, strategy=args.anchor,
                                     counts=counts)
    rirs = lrfmod.rir_batch(hoods, pts, bases)
    _emit({"type": "lrf_dump_header", "schema": SCHEMA_VERSION,
           "points": int(pts.shape[0]), "k": int(k), "anchor": args.anchor,
           "lrf_fallbacks": {key: int(v) for key, v in counts.items()}})
    for i in range(pts.shape[0]):
        _emit({
            "type": "lrf", "index": i, "origin": pts[i].tolist(),
            "basis": bases[i].tolist(),
            "neighbors": neighbors[i].tolist(),
            "rirs": rirs[i].tolist(),
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _listed(cast=str):
    """An argparse type: a non-empty comma-separated list of `cast` values."""
    def parse(text: str) -> tuple:
        values = tuple(cast(t.strip()) for t in text.split(",") if t.strip())
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    return parse


def _at_least(minimum: int, cast=int):
    """An argparse type: a `cast` value no smaller than `minimum`, and
    finite when it is a float."""
    def parse(text: str):
        value = cast(text)
        if cast is float and not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = cast.__name__   # argparse names the type in its "invalid" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aecnn",
        description="Rotation-invariant point-cloud networks: training, "
                    "evaluation, invariance audits, ablations, and frame "
                    "inspection.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_eval_flags(sp, with_votes=True):
        sp.add_argument("--config", default=None,
                        help="config INI (default: config.ini next to the checkpoint)")
        sp.add_argument("--seed", type=int, default=0)
        if with_votes:
            sp.add_argument("--setting", default="ARAR", choices=SETTINGS)
            sp.add_argument("--votes", type=_at_least(1), default=1,
                            help="average softmax over this many rotated copies")

    t = sub.add_parser("train", help="train a model and write checkpoint + run record")
    t.add_argument("config", help="INI file with [network] and optional [training]")
    t.add_argument("out_dir")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--setting", default=None, choices=SETTINGS)
    t.add_argument("--variant", default=None, choices=ALIGN_VARIANTS)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    t.add_argument("--early-stop-acc", dest="early_stop_acc", type=float,
                   default=None,
                   help="stop once train accuracy reaches this fraction")
    t.add_argument("--votes", type=int, default=None)
    t.add_argument("--dataset", default=None,
                   help="AEDS1 file (default: synthetic data from the seed)")
    t.add_argument("--eval-dataset", default=None,
                   help="AEDS1 file scored after training")
    t.add_argument("--n-per-class", dest="n_per_class", type=_at_least(1), default=200)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("checkpoint")
    e.add_argument("dataset",
                   help="AEDS1 file, synth-classification, or synth-segmentation")
    e.add_argument("--n-per-class", dest="n_per_class", type=_at_least(1), default=100)
    add_eval_flags(e)
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("invariance-audit",
                       help="measure logit deviation under random rotations")
    a.add_argument("checkpoint")
    a.add_argument("--rotations", type=_at_least(0), default=20)
    a.add_argument("--clouds", type=_at_least(1), default=50)
    a.add_argument("--tolerance", type=_at_least(0, float), default=1e-5)
    add_eval_flags(a, with_votes=False)
    a.set_defaults(fn=cmd_invariance_audit)

    b = sub.add_parser("ablate", help="train/evaluate an alignment ablation grid")
    b.add_argument("config")
    b.add_argument("out_dir")
    b.add_argument("--variants", type=_listed(), default=",".join(ABLATION_VARIANTS))
    b.add_argument("--searches", type=_listed(), default=",".join(ABLATION_SEARCHES))
    b.add_argument("--anchors", type=_listed(), default=",".join(ABLATION_ANCHORS))
    b.add_argument("--ks", type=_listed(int), default=",".join(str(k) for k in ABLATION_KS))
    b.add_argument("--seeds", type=_listed(int), default="0,1,2")
    b.add_argument("--setting", default="YAR", choices=SETTINGS)
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--epochs", type=int, default=None)
    b.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    b.add_argument("--early-stop-acc", dest="early_stop_acc", type=float,
                   default=None)
    b.add_argument("--n-per-class", dest="n_per_class", type=_at_least(1), default=200)
    b.set_defaults(fn=cmd_ablate)

    d = sub.add_parser("lrf-dump",
                       help="dump per-point frames and neighbor coordinates")
    d.add_argument("cloud", help=".xyz file")
    d.add_argument("--k", type=_at_least(1), default=8)
    d.add_argument("--anchor", default="mean", choices=ANCHOR_MODES)
    d.set_defaults(fn=cmd_lrf_dump)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
