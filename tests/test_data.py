"""File formats, synthetic generators, and metrics."""
import os

import numpy as np
import pytest

import aecnn.geometry as geo
from aecnn.config import NetworkConfig, SaFirstConfig, SaNextConfig
from aecnn.data import (
    BARBELL_BULB_FRACTION,
    Dataset,
    FileFormatError,
    Metrics,
    MUSHROOM_BULB_FRACTION,
    evaluate_classification,
    evaluate_miou,
    load_dataset_bin,
    load_xyz,
    miou_for_shape,
    protocol_rotation,
    sample_cube_surface,
    sample_cylinder_surface,
    sample_sphere_surface,
    sample_torus_surface,
    save_dataset_bin,
    save_xyz,
    synth_classification,
    synth_segmentation,
)
import aecnn.data as data
from aecnn.network import Model

from oracles import brute_miou


def small_seg_dataset(rng, n_per_class=3, n_points=64):
    return synth_segmentation(n_per_class, n_points, rng)


class TestXyz:
    def test_two_line_round_trip(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("0 0 0\n1 2.5 -3\n")
        cloud = load_xyz(path)
        assert np.array_equal(cloud.points, [[0, 0, 0], [1, 2.5, -3]])
        assert cloud.part_labels is None

    def test_labels_populate(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("0 0 0 1\n1 0 0 0\n")
        cloud = load_xyz(path)
        assert np.array_equal(cloud.part_labels, [1, 0])

    def test_save_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3)) * np.pi
        labels = rng.integers(0, 3, size=40)
        path = tmp_path / "t.xyz"
        save_xyz(path, geo.PointCloud(pts, part_labels=labels))
        back = load_xyz(path)
        assert np.array_equal(back.points, pts)
        assert np.array_equal(back.part_labels, labels)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("# header\n\n1 2 3  # trailing note\n")
        cloud = load_xyz(path)
        assert np.array_equal(cloud.points, [[1, 2, 3]])

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_xyz(path)

    def test_non_numeric_reports_number(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("1 2 3\n1 2 fish\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_xyz(path)

    def test_mixed_labeling_rejected(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("1 2 3 0\n4 5 6\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_xyz(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("# nothing\n")
        with pytest.raises(FileFormatError, match="no points"):
            load_xyz(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("1 2 3 -1\n")
        with pytest.raises(FileFormatError, match="line 1"):
            load_xyz(path)


class TestDatasetBin:
    def round_trip(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        save_dataset_bin(path, dataset)
        return path, load_dataset_bin(path)

    def test_single_sample_bitwise(self, tmp_path):
        pts = np.random.default_rng(1).normal(size=(7, 3))
        ds = Dataset([geo.PointCloud(pts, class_label=0)], ("only",))
        _, back = self.round_trip(tmp_path, ds)
        assert len(back) == 1
        assert np.array_equal(back.samples[0].points, pts)
        assert back.samples[0].class_label == 0
        assert back.class_names == ("only",)

    def test_segmentation_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = small_seg_dataset(rng)
        path, back = self.round_trip(tmp_path, ds)
        assert back.class_names == ds.class_names
        assert back.part_names == ds.part_names
        assert back.split_tag == ds.split_tag
        for a, b in zip(ds, back):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.part_labels, b.part_labels)
            assert a.class_label == b.class_label

    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = synth_classification(2, 16, rng)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_dataset_bin(p1, ds)
        save_dataset_bin(p2, load_dataset_bin(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_dataset_bin(tmp_path / "e.bin", Dataset([], ("a",)))

    def test_zero_sample_file_rejected_on_load(self, tmp_path):
        path = tmp_path / "z.bin"
        blob = b"AEDS1" + np.uint32(0).tobytes()
        path.write_bytes(blob)
        with pytest.raises(FileFormatError, match="zero samples"):
            load_dataset_bin(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"WRONG" + b"\x00" * 64)
        with pytest.raises(FileFormatError, match="magic"):
            load_dataset_bin(path)

    def test_truncation_reports_byte_position(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = synth_classification(1, 8, rng)
        path = tmp_path / "full.bin"
        save_dataset_bin(path, ds)
        blob = path.read_bytes()
        for cut in [3, 6, 12, len(blob) // 2, len(blob) - 5]:
            short = tmp_path / f"cut{cut}.bin"
            short.write_bytes(blob[:cut])
            with pytest.raises(FileFormatError, match="byte"):
                load_dataset_bin(short)

    def test_name_that_is_not_utf8_named_by_byte(self, tmp_path):
        ds = Dataset([geo.PointCloud(np.ones((2, 3)), class_label=0)], ("ab",))
        path = tmp_path / "n.bin"
        save_dataset_bin(path, ds)
        blob = path.read_bytes()
        # Magic (5 bytes), sample count, class name count and the name's
        # length (4 each) come before the name.
        path.write_bytes(blob[:18] + b"\xff" + blob[19:])
        with pytest.raises(FileFormatError,
                           match=r"n\.bin: class name is not utf-8 at byte 18"):
            load_dataset_bin(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = synth_classification(1, 8, rng)
        path = tmp_path / "full.bin"
        save_dataset_bin(path, ds)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FileFormatError, match="trailing"):
            load_dataset_bin(path)

    def test_class_id_out_of_range_rejected(self, tmp_path):
        ds = Dataset([geo.PointCloud(np.zeros((2, 3)) + [1, 0, 0],
                                     class_label=0)], ("a",))
        path = tmp_path / "c.bin"
        save_dataset_bin(path, ds)
        blob = bytearray(path.read_bytes())
        # The class id is the first u32 after magic, counts, and names.
        idx = blob.index(np.uint32(2).tobytes() + np.uint8(0).tobytes()) - 4
        blob[idx:idx + 4] = np.uint32(9).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="class id"):
            load_dataset_bin(path)

    def test_part_label_above_u8_refused_before_writing(self, tmp_path):
        # Stored as u8, 257 and 299 would reload as 1 and 43.
        pts = np.random.default_rng(6).normal(size=(3, 3))
        parts = tuple(f"p{i}" for i in range(300))
        top = geo.PointCloud(pts, class_label=0, part_labels=[0, 1, 255])
        _, back = self.round_trip(tmp_path, Dataset([top], ("a",), parts))
        assert np.array_equal(back.samples[0].part_labels, [0, 1, 255])
        path = tmp_path / "wide.bin"
        over = geo.PointCloud(pts, class_label=0, part_labels=[257, 299, 3])
        with pytest.raises(ValueError, match="sample 1: part label 299"):
            save_dataset_bin(path, Dataset([top, over], ("a",), parts))
        assert not path.exists()

    @pytest.mark.parametrize("field", ["class_names", "part_names", "split_tag"])
    def test_name_longer_than_the_reader_accepts_refused(self, tmp_path, field):
        def dataset(name):
            names = {"class_names": ("a",), "part_names": ("p",), "split_tag": "s"}
            names[field] = name if field == "split_tag" else (name,)
            cloud = geo.PointCloud(np.ones((2, 3)), class_label=0)
            return Dataset([cloud], **names)

        longest = "\u00e9" * 32768  # 65,536 utf-8 bytes
        _, back = self.round_trip(tmp_path, dataset(longest))
        assert getattr(back, field) in (longest, (longest,))
        path = tmp_path / "long.bin"
        with pytest.raises(ValueError, match="65538 bytes"):
            save_dataset_bin(path, dataset(longest + "\u00e9"))
        assert not path.exists()


@pytest.mark.parametrize("writer", ["dataset", "xyz"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    ds = synth_segmentation(1, 8, np.random.default_rng(7))
    path = tmp_path / f"out.{writer}"

    def save(sample):
        if writer == "dataset":
            save_dataset_bin(path, Dataset([sample], ds.class_names, ds.part_names))
        else:
            save_xyz(path, sample)

    save(ds.samples[0])
    before = path.read_bytes()

    def fsync_fails(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fsync_fails)
    with pytest.raises(OSError, match="disk full"):
        save(ds.samples[1])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestGenerators:
    def test_sphere_radii_exact_before_jitter(self):
        rng = np.random.default_rng(10)
        pts = sample_sphere_surface(rng, 500)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-9

    def test_cube_points_on_surface(self):
        rng = np.random.default_rng(11)
        pts = sample_cube_surface(rng, 500)
        on_face = np.isclose(np.abs(pts), 1.0).any(axis=1)
        assert on_face.all()
        assert np.abs(pts).max() <= 1.0 + 1e-12

    def test_cylinder_points_on_surface(self):
        rng = np.random.default_rng(12)
        pts = sample_cylinder_surface(rng, 500)
        r = np.hypot(pts[:, 0], pts[:, 2])
        on_side = np.isclose(r, 0.5)
        on_cap = np.isclose(np.abs(pts[:, 1]), 1.0) & (r <= 0.5 + 1e-9)
        assert (on_side | on_cap).all()

    def test_torus_points_on_surface(self):
        rng = np.random.default_rng(13)
        pts = sample_torus_surface(rng, 500)
        ring = np.hypot(pts[:, 0], pts[:, 2])
        tube = np.hypot(ring - 0.7, pts[:, 1])
        assert np.abs(tube - 0.3).max() < 1e-9

    def test_torus_angle_distribution_matches_area(self):
        # Outer half of the tube has more area than the inner half; the
        # acceptance band brackets the analytic ratio.
        rng = np.random.default_rng(14)
        pts = sample_torus_surface(rng, 8000)
        ring = np.hypot(pts[:, 0], pts[:, 2])
        outer = (ring > 0.7).mean()
        # Analytic share of area with cos(phi) > 0: (pi*R + 2r) / (2pi*R).
        expect = (np.pi * 0.7 + 2 * 0.3) / (2 * np.pi * 0.7)
        assert abs(outer - expect) < 0.02

    def test_classification_dataset_contract(self):
        rng = np.random.default_rng(15)
        ds = synth_classification(3, 64, rng)
        assert len(ds) == 12
        assert np.array_equal(np.bincount([s.class_label for s in ds]), [3, 3, 3, 3])
        for s in ds:
            assert s.points.shape == (64, 3)
            c = s.points.mean(axis=0)
            assert np.abs(c).max() < 1e-9
            assert abs(np.linalg.norm(s.points, axis=1).max() - 1.0) < 1e-9

    def test_fixed_seed_reproducible(self):
        a = synth_classification(2, 32, np.random.default_rng(16))
        b = synth_classification(2, 32, np.random.default_rng(16))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.points, sb.points)

    def test_segmentation_every_point_labeled(self):
        rng = np.random.default_rng(17)
        ds = small_seg_dataset(rng, n_per_class=2, n_points=80)
        assert len(ds) == 4
        for s in ds:
            assert s.part_labels is not None
            assert s.part_labels.shape == (80,)
            assert set(np.unique(s.part_labels)) <= {0, 1}

    def test_segmentation_part_proportions(self):
        rng = np.random.default_rng(18)
        ds = small_seg_dataset(rng, n_per_class=4, n_points=200)
        for s in ds:
            frac0 = (s.part_labels == 0).mean()
            expect = (BARBELL_BULB_FRACTION if s.class_label == 0
                      else MUSHROOM_BULB_FRACTION)
            assert abs(frac0 - expect) < 0.01

    def test_segmentation_reproducible(self):
        a = synth_segmentation(2, 48, np.random.default_rng(19))
        b = synth_segmentation(2, 48, np.random.default_rng(19))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.points, sb.points)
            assert np.array_equal(sa.part_labels, sb.part_labels)


class TestDatasetValidation:
    def test_class_label_out_of_range(self):
        with pytest.raises(ValueError, match="class label"):
            Dataset([geo.PointCloud(np.eye(3), class_label=5)], ("a", "b"))

    def test_missing_class_label(self):
        with pytest.raises(ValueError, match="class label"):
            Dataset([geo.PointCloud(np.eye(3))], ("a",))

    def test_part_labels_without_names(self):
        cloud = geo.PointCloud(np.eye(3), class_label=0,
                               part_labels=np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="part names"):
            Dataset([cloud], ("a",))

    def test_part_label_out_of_range(self):
        cloud = geo.PointCloud(np.eye(3), class_label=0,
                               part_labels=np.array([0, 1, 7]))
        with pytest.raises(ValueError, match="part labels"):
            Dataset([cloud], ("a",), ("p0", "p1"))


class TestProtocolRotation:
    def test_y_side_fixes_vertical_axis(self):
        rng = np.random.default_rng(20)
        for setting, side in [("YY", "train"), ("YY", "test"), ("YAR", "train")]:
            rot = protocol_rotation(setting, side, rng)
            assert np.allclose(rot @ [0, 1, 0], [0, 1, 0], atol=1e-12)

    def test_arbitrary_sides_move_vertical_axis(self):
        rng = np.random.default_rng(21)
        moved = 0
        for setting, side in [("YAR", "test"), ("ARAR", "train"), ("ARAR", "test")]:
            for _ in range(5):
                rot = protocol_rotation(setting, side, rng)
                moved += not np.allclose(rot @ [0, 1, 0], [0, 1, 0], atol=1e-6)
        assert moved >= 14

    def test_bad_inputs(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError, match="side"):
            protocol_rotation("YY", "sideways", rng)
        with pytest.raises(ValueError, match="setting"):
            protocol_rotation("XX", "train", rng)


class TestEvaluateClassification:
    def test_perfect_dummy_predictor(self):
        rng = np.random.default_rng(30)
        ds = synth_classification(3, 16, rng)
        truth = iter([s.class_label for s in ds])

        def oracle_model(batch):
            out = np.zeros((batch.shape[0], 4))
            for i in range(batch.shape[0]):
                out[i, next(truth)] = 10.0
            return out

        m = evaluate_classification(oracle_model, ds, "YY",
                                    np.random.default_rng(0), batch_size=5)
        assert m.accuracy == 1.0
        assert all(v == 1.0 for v in m.per_class_accuracy.values())
        assert m.setting == "YY"

    def test_uniform_random_predictor_near_chance(self):
        rng = np.random.default_rng(31)
        ds = synth_classification(100, 4, rng)  # 400 samples, 4 points each
        prng = np.random.default_rng(99)

        def random_model(batch):
            return prng.normal(size=(batch.shape[0], 4))

        m = evaluate_classification(random_model, ds, "ARAR",
                                    np.random.default_rng(1), batch_size=128)
        assert abs(m.accuracy - 0.25) < 0.05

    def test_votes_average_softmax(self):
        rng = np.random.default_rng(32)
        ds = synth_classification(1, 8, rng)
        calls = []

        def counting_model(batch):
            calls.append(batch.shape[0])
            return np.tile([3.0, 2.0, 1.0, 0.0], (batch.shape[0], 1))

        m = evaluate_classification(counting_model, ds, "ARAR",
                                    np.random.default_rng(2), votes=5,
                                    batch_size=64)
        assert sum(calls) == 4 * 5
        assert m.per_class_accuracy["sphere"] == 1.0

    @pytest.mark.parametrize("votes", [0, -2])
    def test_votes_below_one_rejected(self, votes):
        # As TrainConfig.validate refuses them, rather than scoring one vote.
        ds = synth_classification(1, 8, np.random.default_rng(32))
        with pytest.raises(ValueError, match="votes must be >= 1"):
            evaluate_classification(lambda b: np.zeros((b.shape[0], 4)), ds, "ARAR",
                                    np.random.default_rng(2), votes=votes)

    def test_batch_size_below_one_rejected(self):
        ds = synth_classification(1, 8, np.random.default_rng(32))
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            evaluate_classification(lambda b: np.zeros((b.shape[0], 4)), ds, "ARAR",
                                    np.random.default_rng(2), batch_size=0)

    def test_empty_dataset_refused_by_name(self):
        # Not numpy's "need at least one array to stack".
        empty = Dataset([], ("a", "b"), split_tag="held-out")
        with pytest.raises(ValueError, match="'held-out': it holds no samples"):
            evaluate_classification(lambda b: np.zeros((b.shape[0], 2)), empty,
                                    "ARAR", np.random.default_rng(2))

    def test_rotations_actually_applied(self):
        rng = np.random.default_rng(33)
        ds = synth_classification(1, 8, rng)
        seen = []

        def spy_model(batch):
            seen.append(batch.copy())
            return np.zeros((batch.shape[0], 4))

        evaluate_classification(spy_model, ds, "ARAR", np.random.default_rng(3))
        got = np.concatenate(seen)
        for i, s in enumerate(ds):
            assert not np.allclose(got[i], s.points)
            d_orig = np.linalg.norm(s.points[0] - s.points[1])
            d_rot = np.linalg.norm(got[i][0] - got[i][1])
            assert abs(d_orig - d_rot) < 1e-9

    def test_scores_each_batch_as_it_is_drawn(self, monkeypatch):
        # Memory is O(batch): no more than batch_size rotated copies exist
        # when the first batch is scored.
        ds = synth_classification(3, 8, np.random.default_rng(35))
        draws, seen = [], []
        real = data.protocol_rotation

        def counted(*args):
            draws.append(1)
            return real(*args)

        def spy(batch):
            seen.append(len(draws))
            return np.zeros((batch.shape[0], 4))

        monkeypatch.setattr(data, "protocol_rotation", counted)
        evaluate_classification(spy, ds, "ARAR", np.random.default_rng(5),
                                votes=3, batch_size=4)
        assert seen[0] <= 4
        assert len(draws) == len(ds) * 3

    def test_matches_stack_then_score_bitwise(self):
        # Batches of 4 split each sample's 3 votes; the rotations, the
        # batches and the metrics are those of stacking every copy first.
        cfg = NetworkConfig(n_points=32, n_classes=4,
                            sa_first=SaFirstConfig(n_ref=16, k=8, widths=(8, 16)),
                            sa_next=(SaNextConfig(k=4, widths=(16, 24)),),
                            head_widths=(16,))
        model = Model(cfg, seed=6)
        ds = synth_classification(3, 32, np.random.default_rng(36))
        seen = []

        def spy(batch):
            seen.append(batch.copy())
            return model.predict_logits_batch(batch)

        got = evaluate_classification(spy, ds, "ARAR", np.random.default_rng(7),
                                      votes=3, batch_size=4)
        rng = np.random.default_rng(7)
        stack = np.stack([geo.normalize(s).points
                          @ protocol_rotation("ARAR", "test", rng).T
                          for s in ds for _ in range(3)])
        batches = [stack[lo:lo + 4] for lo in range(0, len(stack), 4)]
        logits = np.concatenate([model.predict_logits_batch(b) for b in batches])
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = (z / z.sum(axis=1, keepdims=True)).reshape(len(ds), 3, -1).mean(axis=1)
        correct = probs.argmax(axis=1) == np.array([s.class_label for s in ds])
        assert len(seen) == len(batches)
        assert all(np.array_equal(a, b) for a, b in zip(seen, batches))
        assert got.accuracy == float(correct.mean())
        assert got.per_class_accuracy == {
            name: float(correct[i * 3:(i + 1) * 3].mean())
            for i, name in enumerate(ds.class_names)}

    def test_scale_and_shift_do_not_change_scores(self):
        # Training and predict_parts normalize every cloud; evaluation must
        # too, or a stored 2x scale and offset change what the model sees.
        cfg = NetworkConfig(n_points=32, n_classes=4,
                            sa_first=SaFirstConfig(n_ref=16, k=8, widths=(8, 16)),
                            sa_next=(SaNextConfig(k=4, widths=(16, 24)),),
                            head_widths=(16,))
        model = Model(cfg, seed=5)
        ds = synth_classification(3, 32, np.random.default_rng(34))
        t = np.array([0.3, -0.2, 0.1])
        moved = Dataset([geo.PointCloud(s.points * 2.0 + t, s.class_label)
                         for s in ds], ds.class_names)

        def scores(dataset):
            seen = []

            def spy(batch):
                seen.append(model.predict_logits_batch(batch))
                return seen[-1]

            m = evaluate_classification(spy, dataset, "ARAR",
                                        np.random.default_rng(4), votes=2)
            logits = np.concatenate(seen)
            z = np.exp(logits - logits.max(axis=1, keepdims=True))
            return m, z / z.sum(axis=1, keepdims=True)

        m_ref, p_ref = scores(ds)
        m_moved, p_moved = scores(moved)
        assert m_moved.accuracy == m_ref.accuracy
        assert m_moved.per_class_accuracy == m_ref.per_class_accuracy
        assert np.allclose(p_moved, p_ref, rtol=0.0, atol=1e-9)


class TestMiou:
    def test_empty_dataset_refused_by_name(self):
        empty = Dataset([], ("a", "b"), ("p", "q"), split_tag="held-out")
        with pytest.raises(ValueError, match="'held-out': it holds no samples"):
            evaluate_miou([], empty)

    def test_ground_truth_scores_one(self):
        rng = np.random.default_rng(40)
        ds = small_seg_dataset(rng)
        preds = [s.part_labels.copy() for s in ds]
        m = evaluate_miou(preds, ds)
        assert m.miou == 1.0
        assert m.accuracy == 1.0

    def test_complementary_prediction_scores_zero(self):
        rng = np.random.default_rng(41)
        ds = small_seg_dataset(rng)
        preds = [1 - s.part_labels for s in ds]
        m = evaluate_miou(preds, ds)
        assert m.miou == 0.0

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(42)
        ds = small_seg_dataset(rng, n_per_class=5, n_points=60)
        preds = [rng.integers(0, 2, size=60) for _ in ds]
        m = evaluate_miou(preds, ds)
        want = brute_miou(preds, [s.part_labels for s in ds],
                          [s.class_label for s in ds],
                          n_parts_per_class=[2, 2])
        assert abs(m.miou - want) < 1e-12

    def test_absent_part_scores_one(self):
        assert miou_for_shape(np.zeros(5, int), np.zeros(5, int), 2) == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(43)
        ds = small_seg_dataset(rng, n_per_class=2, n_points=50)
        preds = [rng.integers(0, 2, size=50) for _ in ds]
        base = evaluate_miou(preds, ds).miou
        perm = rng.permutation(50)
        shuffled = Dataset(
            [geo.PointCloud(s.points[perm], class_label=s.class_label,
                            part_labels=s.part_labels[perm]) for s in ds],
            ds.class_names, ds.part_names, ds.split_tag)
        got = evaluate_miou([p[perm] for p in preds], shuffled).miou
        assert got == base

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(44)
        ds = small_seg_dataset(rng, n_per_class=1)
        with pytest.raises(ValueError, match="predictions"):
            evaluate_miou([], ds)


def test_metrics_fraction_validation():
    with pytest.raises(ValueError, match="accuracy"):
        Metrics(accuracy=1.2)
    with pytest.raises(ValueError, match="fraction"):
        Metrics(per_class_accuracy={"a": -0.1})
    m = Metrics(accuracy=0.5, miou=1.0, setting="YY")
    assert m.to_dict() == {"accuracy": 0.5, "miou": 1.0, "setting": "YY"}
