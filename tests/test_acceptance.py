"""End-to-end acceptance: ten properties the whole pipeline must satisfy.

Each test measures one system-level claim, registers a one-line verdict for
the terminal summary, and asserts it. Training-based checks run at desk
scale (256-point synthetic shapes) with budgets calibrated so the full file
finishes in minutes on one CPU core.
"""
import time
from dataclasses import replace

import numpy as np

import aecnn.autodiff as ad
import aecnn.geometry as geo
import aecnn.lrf as lrf
import aecnn.neighbors as nb
from aecnn.config import NetworkConfig, SaFirstConfig, SaNextConfig, TrainConfig
from aecnn.data import (
    evaluate_classification,
    evaluate_miou,
    load_dataset_bin,
    load_xyz,
    save_dataset_bin,
    save_xyz,
    synth_classification,
    synth_segmentation,
)
from aecnn.network import Model, count_parameters
from aecnn.nn import load_checkpoint, save_checkpoint
from aecnn.training import predict_parts, train_classifier, train_segmenter

import reference_ops as ref
from conftest import record_criterion
from oracles import (
    brute_ball,
    brute_feature_knn,
    brute_fps,
    brute_knn,
    central_difference,
    relative_error,
)


def check(name: str, ok: bool, detail: str):
    record_criterion(name, ok, detail)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_cloud(rng, n):
    return geo.normalize(geo.PointCloud(rng.normal(size=(n, 3)))).points


def audit_deviations(model, n_clouds, n_rotations, rng):
    """Per-cloud max |logit - unrotated logit| plus overall argmax agreement."""
    n = model.config.n_points
    devs = []
    agree = True
    for _ in range(n_clouds):
        cloud = random_cloud(rng, n)
        batch = np.stack([cloud] + [
            cloud @ geo.sample_arbitrary_rotation(rng).T
            for _ in range(n_rotations)
        ])
        logits = model.predict_logits_batch(batch)
        devs.append(float(np.abs(logits - logits[0]).max()))
        agree &= bool((logits.argmax(axis=1) == logits[0].argmax()).all())
    return np.array(devs), agree


def test_rotation_invariance_audit():
    model = Model(NetworkConfig().validated(), seed=7)
    t0 = time.perf_counter()
    devs, agree = audit_deviations(model, 50, 20, np.random.default_rng(41))
    elapsed = time.perf_counter() - t0
    worst = devs.max()
    ok = worst < 1e-5 and agree and elapsed < 120.0
    check(
        "rotation-invariance-audit",
        ok,
        f"50 clouds x 20 rotations: max logit deviation {worst:.2e}, "
        f"argmax agreement {'100%' if agree else 'broken'}, {elapsed:.0f}s",
    )


def test_negative_control_absolute_baseline():
    cfg = NetworkConfig(features="absolute", variant="edgeconv").validated()
    model = Model(cfg, seed=7)
    devs, _ = audit_deviations(model, 50, 20, np.random.default_rng(42))
    frac = float((devs > 1e-2).mean())
    check(
        "negative-control-absolute-baseline",
        frac >= 0.9,
        f"deviation > 1e-2 on {frac:.0%} of 50 clouds "
        f"(median {np.median(devs):.3f}); the audit has teeth",
    )


def test_frame_equivariance():
    rng = np.random.default_rng(11)
    n_pairs, k = 10_000, 8
    refs = rng.normal(size=(n_pairs, 2, 3))
    nbh = refs[:, :, None, :] + 0.3 * rng.normal(size=(n_pairs, 2, k, 3))
    rots = np.stack([geo.sample_arbitrary_rotation(rng) for _ in range(n_pairs)])

    bases = lrf.compute_lrf_batch(refs, nbh)
    rirs = lrf.rir_batch(nbh, refs, bases)
    rel = lrf.relative_rotation_batch(bases[:, 0], bases[:, 1:])

    refs_r = np.einsum("bij,bcj->bci", rots, refs)
    nbh_r = np.einsum("bij,bckj->bcki", rots, nbh)
    bases_r = lrf.compute_lrf_batch(refs_r, nbh_r)
    rirs_r = lrf.rir_batch(nbh_r, refs_r, bases_r)
    rel_r = lrf.relative_rotation_batch(bases_r[:, 0], bases_r[:, 1:])

    rir_dev = float(np.abs(rirs - rirs_r).max())
    rel_dev = float(np.abs(rel - rel_r).max())
    check(
        "frame-equivariance",
        rir_dev < 1e-7 and rel_dev < 1e-7,
        f"10^4 (cloud, rotation) pairs: max frame-coordinate drift {rir_dev:.2e}, "
        f"max relative-rotation drift {rel_dev:.2e}",
    )


def test_search_oracle_equivalence():
    rng = np.random.default_rng(17)
    mismatches = []
    for trial in range(200):
        n = int(round(np.exp(rng.uniform(np.log(8), np.log(512)))))
        pts = rng.normal(size=(n, 3))

        s = int(rng.integers(1, min(n, 24) + 1))
        if not np.array_equal(nb.fps_batch(pts[None], s)[0], brute_fps(pts, s)):
            mismatches.append(f"fps@{trial}")

        k = int(rng.integers(1, min(n, 16) + 1))
        radius = float(rng.uniform(0.3, 1.5))
        queries = rng.normal(size=(3, 3))
        knn = nb.knn_points_batch(pts[None], queries[None], k)[0]
        ball = nb.ball_points_batch(pts[None], queries[None], radius, k)[0]
        for query, got_knn, got_ball in zip(queries, knn, ball):
            if not np.array_equal(got_knn, brute_knn(pts, query, k)):
                mismatches.append(f"knn@{trial}")
            if not np.array_equal(got_ball, brute_ball(pts, query, radius, k)):
                mismatches.append(f"ball@{trial}")

        feats = rng.normal(size=(n, 4))
        kf = int(rng.integers(1, min(n, 8) + 1))
        got = nb.knn_features_batch(feats[None], feats[None], kf)[0]
        if not np.array_equal(got, brute_feature_knn(feats, kf)):
            mismatches.append(f"feature-knn@{trial}")
    check(
        "search-oracle-equivalence",
        not mismatches,
        "fps/knn/ball/feature-knn exact against brute force on 200 instances "
        f"of size <= 512 ({'no mismatches' if not mismatches else mismatches[:5]})",
    )


# -- gradient checks ---------------------------------------------------------

def _project(t, seed):
    w = np.random.default_rng(seed).normal(size=t.shape)
    return ref.sum_reduce(ref.mul(t, ad.constant(w)))


def _spread(rng, shape, axis=-1):
    """Values whose per-slice order gaps comfortably exceed the FD step."""
    vals = rng.normal(size=shape)
    order = np.argsort(vals, axis=axis)
    ranks = np.empty_like(order)
    idx_shape = [1] * len(shape)
    idx_shape[axis] = -1
    np.put_along_axis(ranks, order,
                      np.arange(shape[axis]).reshape(idx_shape), axis)
    return vals + 0.01 * ranks


def _away_from_kink(rng, shape):
    x = rng.normal(size=shape)
    return x + np.sign(x) * 0.05


def _op_probes(rng):
    """One random instance per differentiable op: (name, build, arrays)."""
    b, k, f = (int(rng.integers(2, 4)), int(rng.integers(2, 5)),
               int(rng.integers(2, 5)))
    labels = rng.integers(0, f, size=b)
    idx = rng.integers(0, k, size=(b, k))
    return [
        ("add", lambda a, c: ad.add(a, c),
         [rng.normal(size=(b, k)), rng.normal(size=(k,))]),
        ("sub", lambda a, c: ref.sub(a, c),
         [rng.normal(size=(b, k)), rng.normal(size=(b, k))]),
        ("mul", lambda a, c: ref.mul(a, c),
         [rng.normal(size=(b, 1, k)), rng.normal(size=(b, k, k))]),
        ("scale", lambda a: ad.scale(a, -1.7), [rng.normal(size=(b, k))]),
        ("square", ref.square, [rng.normal(size=(k,))]),
        ("linear", lambda x, w, c: ad.linear(x, w, c),
         [rng.normal(size=(b, k, f)), rng.normal(size=(f, k)),
          rng.normal(size=(k,))]),
        ("relu", ref.relu, [_away_from_kink(rng, (b, k))]),
        ("max_reduce", lambda a: ad.max_reduce(a, axis=1),
         [_spread(rng, (b, k, f), axis=1)]),
        ("max_reduce_set_axis", lambda a: ad.max_reduce(a, axis=-2),
         [_spread(rng, (b, k, f), axis=-2)]),
        ("sum_reduce", lambda a: ref.sum_reduce(a, axis=1, keepdims=True),
         [rng.normal(size=(b, k, f))]),
        ("mean_reduce", ref.mean_reduce, [rng.normal(size=(b, k))]),
        ("reshape", lambda a: ad.reshape(a, (b, k * f)),
         [rng.normal(size=(b, k, f))]),
        ("expand_set", lambda a: ref.expand_set(a, k),
         [rng.normal(size=(b, f))]),
        ("concat", lambda a, c, d: ad.concat([a, c, d]),
         [rng.normal(size=(b, k)), rng.normal(size=(b, 1)),
          rng.normal(size=(b, f))]),
        ("gather_rows", lambda a: ad.gather_rows(a, idx),
         [rng.normal(size=(b, k, f))]),
        ("cross_entropy", lambda z: ad.cross_entropy(z, labels),
         [rng.normal(size=(b, f))]),
        ("edge_matvec", lambda m, x: ad.edge_matvec(m, x),
         [rng.normal(size=(b, k, f, f)), rng.normal(size=(b, k, f))]),
        ("orthogonality_penalty", ad.orthogonality_penalty,
         [rng.normal(size=(b, k, f, f))]),
    ]


def _fd_check(build, arrays, seed, h=1e-6):
    def scalarize(*tensors):
        out = build(*tensors)
        return out if out.values.size == 1 else _project(out, seed)

    tensors = [ad.parameter(a.copy()) for a in arrays]
    ad.backward(scalarize(*tensors))
    worst = 0.0
    for i in range(len(arrays)):
        def f(x, i=i):
            ts = [ad.constant(arrays[j] if j != i else x)
                  for j in range(len(arrays))]
            return float(scalarize(*ts).values)

        num = central_difference(f, arrays[i].copy(), h=h)
        worst = max(worst, relative_error(tensors[i].grad, num))
    return worst


def test_gradient_checks():
    rng = np.random.default_rng(29)
    worst_by_op: dict = {}
    for probe in range(100):
        for name, build, arrays in _op_probes(rng):
            err = _fd_check(build, arrays, seed=1000 + probe)
            worst_by_op[name] = max(worst_by_op.get(name, 0.0), err)
    op_worst = max(worst_by_op.values())
    ops_ok = op_worst < 1e-4

    # Composite: the classification loss against a 10-parameter probe.
    cfg = NetworkConfig(
        n_points=32,
        sa_first=SaFirstConfig(n_ref=16, k=8, widths=(8, 16)),
        sa_next=(SaNextConfig(6, (16, 24)),),
        head_widths=(16,),
        aeconv1_hidden=8,
    ).validated()
    model = Model(cfg, seed=3)
    g = np.random.default_rng(31)
    clouds = np.stack([random_cloud(g, 32) for _ in range(3)])
    labels = g.integers(0, 4, size=3)

    def loss_value():
        logits, pens = model.classify_batch(clouds)
        return model.loss_terms(logits, labels, pens)

    ad.backward(loss_value())
    flat_params = [(name, p) for name, p in sorted(model.params.items())]

    # The loss is piecewise smooth in the parameters: feature-space neighbor
    # selection is discrete, so a +/-h bump occasionally lands across a graph
    # reselection where no derivative exists. Such coordinates announce
    # themselves through a huge second difference (smooth ones sit near
    # rounding, ~1e-12) and are redrawn rather than compared.
    h = 1e-5
    f0 = float(loss_value().values)
    comp_worst, checked, skipped, attempts = 0.0, 0, 0, 0
    while checked < 10 and attempts < 60:
        name, p = flat_params[attempts % len(flat_params)]
        attempts += 1
        j = int(g.integers(0, p.values.size))
        analytic = p.grad.reshape(-1)[j]
        orig = p.values.reshape(-1)[j]
        p.values.reshape(-1)[j] = orig + h
        fp = float(loss_value().values)
        p.values.reshape(-1)[j] = orig - h
        fm = float(loss_value().values)
        p.values.reshape(-1)[j] = orig
        if abs(fp + fm - 2.0 * f0) > 1e-9:
            skipped += 1
            continue
        checked += 1
        comp_worst = max(comp_worst,
                         relative_error(analytic, (fp - fm) / (2 * h)))
    comp_ok = comp_worst < 1e-3 and checked == 10
    check(
        "gradient-checks",
        ops_ok and comp_ok,
        f"{len(worst_by_op)} ops x 100 shapes: worst relative error "
        f"{op_worst:.2e} (tol 1e-4); composite loss on {checked} smooth "
        f"parameter coordinates {comp_worst:.2e} (tol 1e-3, {skipped} "
        f"graph-reselection coordinates redrawn)",
    )


def test_desk_training_protocols():
    train = synth_classification(200, 256, np.random.default_rng(101))
    test = synth_classification(100, 256, np.random.default_rng(102))
    cfg = NetworkConfig().validated()

    def run(setting, eval_seed):
        tc = TrainConfig(epochs=60, batch_size=32, setting=setting, seed=0,
                         early_stop_train_acc=0.999)
        model = Model(cfg, seed=0)
        record = train_classifier(model, train, tc)
        acc = evaluate_classification(
            model, test, "ARAR" if setting == "ARAR" else "YAR",
            np.random.default_rng(eval_seed)).accuracy
        return acc, len(record.epoch_stats), record.wall_seconds

    acc_arar, ep_arar, wall = run("ARAR", 103)
    acc_yar, ep_yar, _ = run("YY", 104)  # trains on Y spins, tested on AR
    gap = abs(acc_arar - acc_yar)
    ok = (acc_arar >= 0.90 and ep_arar <= 60 and wall < 1800.0
          and gap <= 0.02 + 1e-12)
    check(
        "desk-training-protocols",
        ok,
        f"AR/AR accuracy {acc_arar:.3f} in {ep_arar} epochs ({wall:.0f}s); "
        f"Y/AR accuracy {acc_yar:.3f} ({ep_yar} epochs); gap {gap:.3f} "
        f"(must be <= 0.02)",
    )


def test_ablation_ordering():
    train = synth_classification(100, 256, np.random.default_rng(23))
    test = synth_classification(50, 256, np.random.default_rng(24))

    def cell(variant, search, k, seed):
        cfg = NetworkConfig(variant=variant)
        cfg = replace(cfg, sa_first=replace(cfg.sa_first, search=search, k=k))
        tc = TrainConfig(epochs=6, batch_size=32, setting="YAR", seed=seed,
                         lr_boundaries=(4,))
        model = Model(cfg.validated(), seed=seed)
        train_classifier(model, train, tc)
        return evaluate_classification(
            model, test, "YAR", np.random.default_rng(100 + seed)).accuracy

    seeds = (0, 1, 2)
    aligned = [cell("aeconv3", "knn", 48, s) for s in seeds]
    plain = [cell("edgeconv", "knn", 48, s) for s in seeds]
    ball = [cell("aeconv3", "ball", 48, s) for s in seeds]

    tie = 0.005 + 1e-12
    ok = (np.mean(aligned) >= np.mean(plain) - tie
          and np.mean(aligned) >= np.mean(ball) - tie)

    def fmt(xs):
        return "[" + ", ".join(f"{x:.3f}" for x in xs) + "]"

    check(
        "ablation-ordering",
        ok,
        f"Y/AR over 3 seeds: aligned-conv {fmt(aligned)} vs plain edge conv "
        f"{fmt(plain)}; knn+mean+k48 {fmt(aligned)} vs ball {fmt(ball)} "
        f"(ties within 0.005 accepted)",
    )


def test_parameter_accounting():
    matvec = count_parameters(NetworkConfig(variant="aeconv1").validated())
    compact = count_parameters(NetworkConfig(variant="aeconv3").validated())
    check(
        "parameter-accounting",
        matvec > compact,
        f"matrix-valued alignment {matvec:,} params > "
        f"vector alignment {compact:,} at matched widths",
    )


def test_segmentation_invariance_and_miou():
    cfg = NetworkConfig(n_parts=2, n_classes=2).validated()
    model = Model(cfg, seed=5)
    rng = np.random.default_rng(51)
    cloud = random_cloud(rng, 256)
    batch = np.stack([cloud] + [
        cloud @ geo.sample_arbitrary_rotation(rng).T for _ in range(10)
    ])
    logits = model.predict_part_logits_batch(batch, np.zeros(11, dtype=int))
    dev = float(np.abs(logits - logits[0]).max())

    train = synth_segmentation(100, 256, np.random.default_rng(201))
    test = synth_segmentation(50, 256, np.random.default_rng(202))
    tc = TrainConfig(epochs=12, batch_size=16, setting="ARAR", seed=0,
                     lr_boundaries=(6, 10))
    trained = Model(cfg, seed=0)
    record = train_segmenter(trained, train, tc)
    preds = predict_parts(trained, test, "ARAR", np.random.default_rng(203))
    miou = evaluate_miou(preds, test).miou
    ok = dev < 1e-5 and miou >= 0.85 and len(record.epoch_stats) <= 60
    check(
        "segmentation-invariance-and-miou",
        ok,
        f"per-point logit deviation {dev:.2e} across 10 rotations; "
        f"mIoU {miou:.3f} after {len(record.epoch_stats)} epochs",
    )


def test_format_round_trips(tmp_path):
    rng = np.random.default_rng(61)

    ckpt = tmp_path / "weights.ckpt"
    arrays = {
        "a.w": rng.normal(size=(7, 3)),
        "b.bias": rng.normal(size=(4,)),
        "step": np.array(17.0),
    }
    save_checkpoint(ckpt, arrays)
    loaded = load_checkpoint(ckpt)
    ckpt2 = tmp_path / "again.ckpt"
    save_checkpoint(ckpt2, loaded)
    ckpt_ok = (ckpt.read_bytes() == ckpt2.read_bytes() and all(
        loaded[k].tobytes() == arrays[k].tobytes() for k in arrays
    ))

    ds = synth_segmentation(3, 64, rng)
    dpath = tmp_path / "shapes.aeds"
    save_dataset_bin(dpath, ds)
    back = load_dataset_bin(dpath)
    dpath2 = tmp_path / "again.aeds"
    save_dataset_bin(dpath2, back)
    data_ok = (dpath.read_bytes() == dpath2.read_bytes() and all(
        a.points.tobytes() == b.points.tobytes()
        and np.array_equal(a.part_labels, b.part_labels)
        and a.class_label == b.class_label
        for a, b in zip(ds.samples, back.samples)
    ))

    xpath = tmp_path / "cloud.xyz"
    save_xyz(xpath, geo.PointCloud(rng.normal(size=(20, 3)),
                                   part_labels=rng.integers(0, 3, size=20)))
    cloud1 = load_xyz(xpath)
    xpath2 = tmp_path / "again.xyz"
    save_xyz(xpath2, cloud1)
    xyz_ok = xpath.read_text() == xpath2.read_text()

    check(
        "format-round-trips",
        ckpt_ok and data_ok and xyz_ok,
        f"checkpoint bitwise {ckpt_ok}, dataset bitwise {data_ok}, "
        f"xyz printed-precision fixpoint {xyz_ok}",
    )
