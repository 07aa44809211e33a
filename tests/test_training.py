"""Training loop determinism, resumption, and record keeping."""
import json

import numpy as np
import pytest

from aecnn.config import (
    ConfigError,
    NetworkConfig,
    SaFirstConfig,
    SaNextConfig,
    TrainConfig,
    desk_classification_config,
    desk_segmentation_config,
)
import aecnn.geometry as geo
from aecnn.data import (
    Dataset,
    protocol_rotation,
    synth_classification,
    synth_segmentation,
)
from aecnn.geometry import PointCloud
from aecnn.network import Model
from aecnn.nn import load_checkpoint
from aecnn.training import (
    RunRecord,
    epoch_rng,
    load_training_checkpoint,
    predict_parts,
    prepared_points,
    train_classifier,
    train_segmenter,
    weights_from_checkpoint,
)


def tiny_cfg(**kw):
    base = dict(
        n_points=24,
        n_classes=4,
        sa_first=SaFirstConfig(n_ref=8, k=6, widths=(8, 12)),
        sa_next=(SaNextConfig(k=4, widths=(12, 16)),),
        head_widths=(12,),
        aeconv1_hidden=8,
        fp_align_hidden=8,
    )
    base.update(kw)
    return NetworkConfig(**base)


def tiny_seg_cfg():
    return tiny_cfg(n_classes=2, n_parts=2, fp_widths=(12, 8), point_head=(8,))


def tiny_dataset(seed=0, n_per_class=4):
    return synth_classification(n_per_class, 24, np.random.default_rng(seed))


def tiny_train(**kw):
    base = dict(epochs=2, batch_size=4, seed=5, setting="ARAR")
    base.update(kw)
    return TrainConfig(**base)


class TestDeterminism:
    def test_same_seed_same_run(self):
        ds = tiny_dataset()
        records = []
        finals = []
        for _ in range(2):
            model = Model(tiny_cfg(), seed=1)
            rec = train_classifier(model, ds, tiny_train())
            records.append(rec)
            finals.append(model.values())
        a, b = records
        assert [s.loss for s in a.epoch_stats] == [s.loss for s in b.epoch_stats]
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name]), name

    def test_epoch_rng_independent_of_history(self):
        a = epoch_rng(3, 7).normal(size=4)
        _ = epoch_rng(3, 6).normal(size=100)
        b = epoch_rng(3, 7).normal(size=4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        ds = tiny_dataset()
        m1 = Model(tiny_cfg(), seed=1)
        m2 = Model(tiny_cfg(), seed=1)
        r1 = train_classifier(m1, ds, tiny_train(seed=5))
        r2 = train_classifier(m2, ds, tiny_train(seed=6))
        assert r1.epoch_stats[0].loss != r2.epoch_stats[0].loss


class TestResume:
    def test_resume_equals_straight_run(self, tmp_path):
        ds = tiny_dataset()
        straight = Model(tiny_cfg(), seed=2)
        train_classifier(straight, ds, tiny_train(epochs=4))

        ck = tmp_path / "model.ckpt"
        resumed = Model(tiny_cfg(), seed=2)
        train_classifier(resumed, ds, tiny_train(epochs=2), checkpoint_path=ck)
        resumed2 = Model(tiny_cfg(), seed=99)  # weights come from the file
        train_classifier(resumed2, ds, tiny_train(epochs=4), checkpoint_path=ck)

        sa = straight.values()
        sb = resumed2.values()
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name

    def test_checkpoint_holds_optimizer_state(self, tmp_path):
        ds = tiny_dataset()
        ck = tmp_path / "model.ckpt"
        model = Model(tiny_cfg(), seed=2)
        train_classifier(model, ds, tiny_train(epochs=1), checkpoint_path=ck)
        arrays = load_checkpoint(ck)
        names = set(arrays)
        assert "meta.next_epoch" in names and "meta.adam_step" in names
        assert any(n.startswith("adam_m.") for n in names)
        assert any(n.startswith("adam_v.") for n in names)
        fresh = Model(tiny_cfg(), seed=3)
        adam, nxt = load_training_checkpoint(ck, fresh)
        assert nxt == 1
        assert adam.step > 0
        got = fresh.values()
        want = model.values()
        for name in want:
            assert np.array_equal(got[name], want[name])

    def test_weights_from_checkpoint_strips_prefix(self, tmp_path):
        ds = tiny_dataset()
        ck = tmp_path / "model.ckpt"
        model = Model(tiny_cfg(), seed=2)
        train_classifier(model, ds, tiny_train(epochs=1), checkpoint_path=ck)
        weights = weights_from_checkpoint(load_checkpoint(ck))
        assert set(weights) == set(model.params)
        with pytest.raises(ValueError, match="no parameter"):
            weights_from_checkpoint({"meta.next_epoch": np.array(1.0)})

    def test_finished_run_does_not_retrain(self, tmp_path):
        ds = tiny_dataset()
        ck = tmp_path / "model.ckpt"
        model = Model(tiny_cfg(), seed=2)
        train_classifier(model, ds, tiny_train(epochs=2), checkpoint_path=ck)
        before = model.values()
        rec = train_classifier(model, ds, tiny_train(epochs=2),
                               checkpoint_path=ck)
        assert rec.epoch_stats == []
        after = model.values()
        for name in before:
            assert np.array_equal(before[name], after[name])


class TestRecord:
    def test_record_contents(self):
        ds = tiny_dataset()
        model = Model(tiny_cfg(), seed=1)
        rec = train_classifier(model, ds, tiny_train())
        assert rec.seed == 5
        assert rec.setting == "ARAR"
        assert len(rec.epoch_stats) == 2
        assert rec.epoch_stats[0].epoch == 0
        assert rec.config["network"]["n_points"] == 24
        assert rec.config["training"]["batch_size"] == 4
        for s in rec.epoch_stats:
            assert np.isfinite(s.loss)
            assert 0.0 <= s.accuracy <= 1.0

    def test_record_serializes_to_json_lines(self):
        ds = tiny_dataset()
        model = Model(tiny_cfg(), seed=1)
        rec = train_classifier(model, ds, tiny_train())
        lines = rec.to_lines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "run"
        assert parsed[1]["type"] == "epoch"
        assert parsed[-1]["type"] == "summary"
        assert parsed[-1]["epochs_run"] == 2

    def test_epoch_lines_count_lrf_fallbacks(self):
        # A collinear cloud: every neighborhood mean lies on its frame's z
        # axis, so each of its 8 frames takes the fallback x axis once an
        # epoch; the other clouds' frames take none.
        ds = tiny_dataset()
        line = np.linspace(-1.0, 1.0, 24)[:, None] * np.array([0.3, 0.5, 0.8])
        ds.samples[0] = PointCloud(line, class_label=ds.samples[0].class_label)
        model = Model(tiny_cfg(), seed=1)
        rec = train_classifier(model, ds, tiny_train())
        counts = [s.lrf_fallbacks for s in rec.epoch_stats]
        assert counts == [{"degenerate_reference": 0, "degenerate_anchor": 8}] * 2
        for key, total in model.lrf_fallbacks.items():
            assert sum(c[key] for c in counts) == total
        epoch_line = json.loads(rec.to_lines()[1])
        assert epoch_line["lrf_fallbacks"] == counts[0]

    def test_lr_schedule_recorded(self):
        ds = tiny_dataset()
        model = Model(tiny_cfg(), seed=1)
        tc = tiny_train(epochs=3, lr_boundaries=(1, 2), base_lr=1e-2,
                        lr_decay=0.5)
        rec = train_classifier(model, ds, tc)
        assert [s.lr for s in rec.epoch_stats] == [1e-2, 5e-3, 2.5e-3]

    def test_early_stop_flag(self):
        ds = tiny_dataset()
        model = Model(tiny_cfg(), seed=1)
        # Any nonzero train accuracy clears this threshold at epoch 0.
        rec = train_classifier(model, ds, tiny_train(epochs=5,
                                                     early_stop_train_acc=1e-9))
        if rec.epoch_stats[0].accuracy > 0:
            assert rec.stopped_early
            assert len(rec.epoch_stats) == 1


class TestLearning:
    def test_loss_decreases_on_tiny_problem(self):
        # Two well-separated classes, many epochs on a handful of samples:
        # the first-epoch loss must comfortably beat the last-epoch loss.
        ds = synth_classification(3, 24, np.random.default_rng(7))
        model = Model(tiny_cfg(), seed=4)
        rec = train_classifier(model, ds, tiny_train(epochs=8, batch_size=6,
                                                     setting="YY"))
        assert rec.epoch_stats[-1].loss < rec.epoch_stats[0].loss

    def test_segmenter_trains_and_predicts(self):
        ds = synth_segmentation(3, 24, np.random.default_rng(8))
        model = Model(tiny_seg_cfg(), seed=4)
        rec = train_segmenter(model, ds, tiny_train(epochs=2, batch_size=3))
        assert len(rec.epoch_stats) == 2
        assert rec.epoch_stats[-1].loss < rec.epoch_stats[0].loss * 2
        preds = predict_parts(model, ds, "ARAR", np.random.default_rng(0),
                              batch_size=4)
        assert len(preds) == len(ds)
        assert all(p.shape == (24,) for p in preds)

    def test_segmenter_requires_part_head(self):
        ds = synth_segmentation(2, 24, np.random.default_rng(9))
        model = Model(tiny_cfg(n_classes=2), seed=0)
        with pytest.raises(ValueError, match="segmentation head"):
            train_segmenter(model, ds, tiny_train())

    def test_classifier_trainer_refuses_segmenter(self, tmp_path):
        ds = synth_segmentation(2, 24, np.random.default_rng(9))
        model = Model(tiny_seg_cfg(), seed=0)
        before = model.values()
        ck = tmp_path / "seg.ckpt"
        with pytest.raises(ConfigError, match="classification head"):
            train_classifier(model, ds, tiny_train(), checkpoint_path=str(ck))
        assert not ck.exists()
        assert all(np.array_equal(v, before[k]) for k, v in model.values().items())

    @pytest.mark.parametrize("segment", [False, True])
    def test_empty_dataset_refused_by_name(self, segment, tmp_path):
        ds = Dataset([], ("a", "b"), ("p", "q"), split_tag="held-out")
        model = Model(tiny_seg_cfg() if segment else tiny_cfg(), seed=0)
        train = train_segmenter if segment else train_classifier
        ck = tmp_path / "run.ckpt"
        with pytest.raises(ValueError, match="'held-out': it holds no samples"):
            train(model, ds, tiny_train(), checkpoint_path=str(ck))
        assert not ck.exists()

    def test_segmenter_checkpoint_has_no_classification_head(self, tmp_path):
        ds = synth_segmentation(2, 24, np.random.default_rng(9))
        model = Model(tiny_seg_cfg(), seed=0)
        ck = tmp_path / "seg.ckpt"
        train_segmenter(model, ds, tiny_train(epochs=1), checkpoint_path=str(ck))
        names = [k.split(".", 1)[1] for k in load_checkpoint(ck) if "." in k]
        assert "point_head.w0" in names
        assert not [n for n in names if n.startswith("head.")]


class TestPipeline:
    def test_prepared_points_are_normalized_then_rotated(self):
        ds = tiny_dataset()
        rng = np.random.default_rng(10)
        pts = prepared_points(ds.samples[0], "ARAR", "train", rng)
        assert pts.shape == (24, 3)
        # Rotation preserves the normalized invariants exactly.
        assert np.abs(pts.mean(axis=0)).max() < 1e-12
        assert abs(np.linalg.norm(pts, axis=1).max() - 1.0) < 1e-12

    def test_yy_train_side_keeps_vertical(self):
        sample = tiny_dataset().samples[0]
        pts = prepared_points(sample, "YY", "train", np.random.default_rng(11))
        # Vertical extent is preserved by y-axis rotations (post normalize).
        normed = geo.normalize(sample).points
        assert np.allclose(sorted(pts[:, 1]), sorted(normed[:, 1]), atol=1e-12)

    @pytest.mark.parametrize("setting", ["YY", "YAR", "ARAR"])
    def test_prepared_points_draw_only_the_rotation(self, setting):
        # No scale or translation is drawn before the rotation: `normalize`
        # would cancel it, so the rotation takes the generator's first draws.
        sample = tiny_dataset().samples[0]
        got = prepared_points(sample, setting, "train", np.random.default_rng(12))
        rot = protocol_rotation(setting, "train", np.random.default_rng(12))
        assert np.array_equal(got, geo.normalize(sample).points @ rot.T)


def desk_weights(segment: bool, setting: str, features: str) -> np.ndarray:
    """Every weight of a desk model trained on 8 clouds per class for 2
    epochs at batch 16 and seed 3, flattened in parameter order."""
    config = (desk_segmentation_config if segment
              else desk_classification_config)(features=features)
    make = synth_segmentation if segment else synth_classification
    dataset = make(8, config.n_points, np.random.default_rng(3))
    model = Model(config, seed=3)
    (train_segmenter if segment else train_classifier)(
        model, dataset, TrainConfig(epochs=2, batch_size=16, seed=3,
                                    setting=setting))
    return np.concatenate([p.values.ravel() for p in model.params.values()])


class TestRotationBlindTraining:
    """The network sees only frame-relative geometry, and each epoch draws
    its permutation before its rotations, so the train protocol moves the
    trained weights by rounding alone, 1e-14 relative or less. The
    absolute-coordinate baseline is the negative control: its weights move
    by 1e-2."""

    @pytest.mark.parametrize("segment", [False, True],
                             ids=["classifier", "segmenter"])
    def test_weights_do_not_depend_on_train_rotations(self, segment):
        gap = {}
        for features in ("rir", "absolute"):
            yy = desk_weights(segment, "YY", features)
            arar = desk_weights(segment, "ARAR", features)
            gap[features] = np.linalg.norm(yy - arar) / np.linalg.norm(arar)
        assert gap["rir"] < 1e-9
        assert gap["absolute"] > 1e-3
