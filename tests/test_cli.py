"""Command-line behavior: exit codes, files written, output schema."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import aecnn.cli as cli
import aecnn.geometry as geo
from aecnn.cli import main
from aecnn.config import (
    NetworkConfig,
    SaFirstConfig,
    SaNextConfig,
    TrainConfig,
    save_config,
)
from aecnn.data import (
    Dataset,
    save_dataset_bin,
    save_xyz,
    synth_classification,
    synth_segmentation,
)
from aecnn.lrf import compute_lrf_batch, rir_batch
from aecnn.network import Model
from aecnn.nn import Mlp, load_checkpoint, save_checkpoint
from aecnn.training import train_classifier


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


def tiny_seg_cfg(**kw):
    return tiny_cfg(n_classes=2, n_parts=2, fp_widths=(12, 8), point_head=(8,), **kw)


def three_part_set() -> Dataset:
    """24-point barbells and mushrooms that name a third part."""
    ds = synth_segmentation(1, 24, np.random.default_rng(2))
    return Dataset(ds.samples, ds.class_names, (*ds.part_names, "cap"))


def write_cfg(path, network, training=None):
    save_config(path, network, training or TrainConfig(
        epochs=2, batch_size=8, seed=1, setting="ARAR"))
    return str(path)


def run_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    lines = [json.loads(l) for l in out.splitlines() if l]
    return code, lines


class TestTrain:
    def test_writes_artifacts_and_record(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "run"
        code, lines = run_lines(capsys, [
            "train", cfg, str(out), "--n-per-class", "3"])
        assert code == 0
        assert lines[0]["type"] == "run"
        assert lines[0]["schema"] == 1
        assert lines[-1]["type"] == "summary"
        assert "accuracy" in lines[-1]["metrics"]
        assert (out / "model.ckpt").exists()
        assert (out / "config.ini").exists()
        recorded = [json.loads(l) for l in
                    (out / "run.jsonl").read_text().splitlines()]
        assert recorded[0]["type"] == "run"
        assert recorded[-1]["type"] == "summary"
        epochs = [r for r in recorded if r["type"] == "epoch"]
        assert len(epochs) == 2

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "run"
        code, lines = run_lines(capsys, [
            "train", cfg, str(out), "--n-per-class", "2",
            "--epochs", "1", "--setting", "YY", "--seed", "9"])
        assert code == 0
        assert lines[0]["seed"] == 9
        assert lines[0]["setting"] == "YY"
        epochs = [l for l in lines if l["type"] == "epoch"]
        assert len(epochs) == 1

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        save_config(path, tiny_cfg())
        text = path.read_text().replace("variant = aeconv3", "variant = bogus")
        path.write_text(text)
        code = main(["train", str(path), str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.ini"), str(tmp_path / "o")])
        assert code == 2

    def test_resume_appends_record(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "run"
        argv = ["train", cfg, str(out), "--n-per-class", "2", "--epochs", "4"]
        assert main(argv[:-1] + ["2"]) == 0
        assert main(argv) == 0
        capsys.readouterr()
        recorded = [json.loads(l) for l in
                    (out / "run.jsonl").read_text().splitlines()]
        epochs = [r["epoch"] for r in recorded if r["type"] == "epoch"]
        assert epochs == [0, 1, 2, 3]

    @pytest.mark.parametrize("flags,drop_config,named", [
        (["--seed", "7", "--setting", "YY"], False,
         ["[training] seed: 1 -> 7", "[training] setting: ARAR -> YY"]),
        (["--variant", "aeconv1"], False, ["[network] variant: aeconv3 -> aeconv1"]),
        ([], True, ["config.ini is missing"]),
    ], ids=["seed-and-setting", "variant", "missing-config"])
    def test_refuses_resume_under_another_config(self, tmp_path, capsys, flags,
                                                 drop_config, named):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "run"
        argv = ["train", cfg, str(out), "--n-per-class", "2", "--epochs", "1"]
        assert main(argv) == 0
        if drop_config:
            (out / "config.ini").unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv[:-1] + ["3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for field in named:
            assert field in captured.err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_reports_invalid_config_ini_by_its_problems(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "run"
        argv = ["train", cfg, str(out), "--n-per-class", "2", "--epochs", "1"]
        assert main(argv) == 0
        ini = out / "config.ini"
        ini.write_text(ini.read_text().replace("variant = aeconv3", "variant = bogus"))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv[:-1] + ["3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{ini}: variant must be one of" in captured.err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_trains_segmentation_models(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_seg_cfg())
        out = tmp_path / "run"
        code, lines = run_lines(capsys, [
            "train", cfg, str(out), "--n-per-class", "2", "--epochs", "1"])
        assert code == 0
        assert "miou" in lines[-1]["metrics"]

    def test_segmentation_summary_names_setting(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_seg_cfg())
        code, lines = run_lines(capsys, [
            "train", cfg, str(tmp_path / "run"), "--n-per-class", "2",
            "--epochs", "1", "--setting", "YAR"])
        assert code == 0
        assert lines[-1]["metrics"]["setting"] == "YAR"

    def test_unlabelled_eval_set_refused_before_training(self, tmp_path, capsys):
        train_path = tmp_path / "train.aeds"
        eval_path = tmp_path / "eval.aeds"
        save_dataset_bin(train_path, synth_segmentation(2, 24, np.random.default_rng(0)))
        save_dataset_bin(eval_path, synth_classification(1, 24, np.random.default_rng(1)))
        cfg = write_cfg(tmp_path / "c.ini", tiny_seg_cfg())
        out = tmp_path / "run"
        code = main(["train", cfg, str(out), "--epochs", "1", "--dataset",
                     str(train_path), "--eval-dataset", str(eval_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "eval dataset has no part labels" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_too_many_classes_refused_before_writing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg(n_classes=2))
        out = tmp_path / "run"
        code = main(["train", cfg, str(out), "--n-per-class", "2", "--epochs", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "the dataset has 4 classes but the model has 2" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_wrong_point_count_refused_before_writing(self, tmp_path, capsys):
        data_path = tmp_path / "train.aeds"
        save_dataset_bin(data_path, synth_classification(2, 20, np.random.default_rng(0)))
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "run"
        code = main(["train", cfg, str(out), "--epochs", "1", "--dataset",
                     str(data_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert ("sample 0 of the dataset has 20 points but the model expects 24"
                in captured.err)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncated", "no-meta", "old-head-layout"])
    def test_unloadable_checkpoint_refused(self, tmp_path, capsys, damage):
        cfg = write_cfg(tmp_path / "c.ini", tiny_seg_cfg())
        out = tmp_path / "run"
        argv = ["train", cfg, str(out), "--n-per-class", "2", "--epochs", "1"]
        assert main(argv) == 0
        ckpt = out / "model.ckpt"
        if damage == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
            named = "values of"
        elif damage == "no-meta":
            arrays = load_checkpoint(ckpt)
            save_checkpoint(ckpt, {k: v for k, v in arrays.items()
                                   if not k.startswith("meta.")})
            named = "meta.adam_step"
        else:
            # Segmentation checkpoints once also held the classification head.
            arrays = load_checkpoint(ckpt)
            store: dict = {}
            Mlp((16, 12, 2), np.random.default_rng(0), store, "head")
            for name, t in store.items():
                for prefix in ("param.", "adam_m.", "adam_v."):
                    arrays[prefix + name] = t.values
            save_checkpoint(ckpt, arrays)
            named = "unexpected ['head.w0'"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv[:-1] + ["2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot resume from {ckpt}" in captured.err
        assert named in captured.err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_file_dataset(self, tmp_path, capsys):
        ds = synth_classification(2, 24, np.random.default_rng(0))
        data_path = tmp_path / "train.aeds"
        save_dataset_bin(data_path, ds)
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "run"
        code, lines = run_lines(capsys, [
            "train", cfg, str(out), "--epochs", "1",
            "--dataset", str(data_path), "--eval-dataset", str(data_path)])
        assert code == 0
        assert lines[-1]["metrics"]["accuracy"] >= 0.0


class TestEval:
    def make_run(self, tmp_path, capsys, network=None):
        cfg = write_cfg(tmp_path / "c.ini", network or tiny_cfg())
        out = tmp_path / "run"
        assert main(["train", cfg, str(out), "--n-per-class", "2",
                     "--epochs", "1"]) == 0
        capsys.readouterr()
        return out / "model.ckpt"

    def test_eval_synth(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys)
        code, lines = run_lines(capsys, [
            "eval", str(ckpt), "synth-classification", "--n-per-class", "2",
            "--setting", "YAR"])
        assert code == 0
        assert lines[0]["type"] == "metrics"
        assert lines[0]["setting"] == "YAR"
        assert 0.0 <= lines[0]["accuracy"] <= 1.0

    def test_eval_votes_and_determinism(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys)
        argv = ["eval", str(ckpt), "synth-classification", "--n-per-class",
                "2", "--votes", "3", "--seed", "4"]
        _, first = run_lines(capsys, argv)
        _, second = run_lines(capsys, argv)
        assert first == second

    def test_eval_file_dataset(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys)
        ds = synth_classification(2, 24, np.random.default_rng(1))
        path = tmp_path / "test.aeds"
        save_dataset_bin(path, ds)
        code, lines = run_lines(capsys, ["eval", str(ckpt), str(path)])
        assert code == 0
        assert lines[0]["type"] == "metrics"

    def test_eval_segmentation_reports_miou(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys, network=tiny_seg_cfg())
        code, lines = run_lines(capsys, [
            "eval", str(ckpt), "synth-segmentation", "--n-per-class", "2"])
        assert code == 0
        assert "miou" in lines[0]

    @pytest.mark.parametrize("dataset,message", [
        ("synth-classification", "segmentation model but the dataset has no part labels"),
        ("three-parts", "the dataset has 3 parts but the model has 2"),
    ])
    def test_segmenter_refuses_unfit_dataset(self, tmp_path, capsys, dataset,
                                             message):
        ckpt = self.make_run(tmp_path, capsys, network=tiny_seg_cfg())
        if dataset != "synth-classification":
            path = tmp_path / f"{dataset}.aeds"
            save_dataset_bin(path, three_part_set())
            dataset = str(path)
        code = main(["eval", str(ckpt), dataset, "--n-per-class", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    def test_wrong_point_count_exits_2(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys)
        path = tmp_path / "small.aeds"
        save_dataset_bin(path, synth_classification(1, 20, np.random.default_rng(1)))
        code = main(["eval", str(ckpt), str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "has 20 points but the model expects 24" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command,args", [
        ("eval", ["synth-classification", "--n-per-class", "1"]),
        ("invariance-audit", ["--clouds", "1"]),
    ], ids=["eval", "invariance-audit"])
    def test_non_finite_weight_exits_2(self, tmp_path, capsys, command, args):
        ckpt = self.make_run(tmp_path, capsys)
        arrays = load_checkpoint(ckpt)
        arrays["param.head.w0"][0, 0] = np.nan
        save_checkpoint(ckpt, arrays)
        code = main([command, str(ckpt), *args])
        captured = capsys.readouterr()
        assert code == 2
        assert "'param.head.w0' holds non-finite values" in captured.err
        assert captured.out == ""

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys)
        code = main(["eval", str(tmp_path / "ghost.ckpt"),
                     "synth-classification", "--config",
                     str(tmp_path / "run" / "config.ini")])
        assert code == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "ghost.ckpt"),
                     "synth-classification"])
        assert code == 2
        assert "config" in capsys.readouterr().err


class TestInvarianceAudit:
    def make_run(self, tmp_path, capsys, network=None):
        cfg = write_cfg(tmp_path / "c.ini", network or tiny_cfg())
        out = tmp_path / "run"
        assert main(["train", cfg, str(out), "--n-per-class", "2",
                     "--epochs", "1"]) == 0
        capsys.readouterr()
        return out / "model.ckpt"

    def test_invariant_model_passes(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys)
        code, lines = run_lines(capsys, [
            "invariance-audit", str(ckpt), "--clouds", "3",
            "--rotations", "4"])
        assert code == 0
        report = lines[0]
        assert report["type"] == "audit"
        assert report["passed"] is True
        assert report["max_abs_deviation"] < 1e-5
        assert report["argmax_agreement"] == 1.0
        fallbacks = report["lrf_fallbacks"]
        assert sorted(fallbacks) == ["degenerate_anchor", "degenerate_reference"]
        assert all(type(n) is int and n >= 0 for n in fallbacks.values())

    def test_absolute_baseline_fails_with_exit_3(self, tmp_path, capsys):
        net = tiny_cfg(features="absolute", variant="edgeconv")
        ckpt = self.make_run(tmp_path, capsys, network=net)
        code, lines = run_lines(capsys, [
            "invariance-audit", str(ckpt), "--clouds", "3",
            "--rotations", "4"])
        assert code == 3
        assert lines[0]["passed"] is False
        assert lines[0]["max_abs_deviation"] > 1e-2

    @pytest.mark.parametrize("features,code", [("rir", 0), ("absolute", 3)])
    def test_segmenter_audited_on_part_logits(self, tmp_path, capsys, monkeypatch,
                                              features, code):
        net = tiny_seg_cfg(features=features, variant="edgeconv")
        ckpt = self.make_run(tmp_path, capsys, network=net)
        calls = []
        real = Model.predict_part_logits

        def spy(model, points, class_label):
            calls.append(class_label)
            return real(model, points, class_label)

        monkeypatch.setattr(Model, "predict_part_logits", spy)
        got, lines = run_lines(capsys, [
            "invariance-audit", str(ckpt), "--clouds", "3", "--rotations", "4"])
        assert got == code
        assert calls == [0] * 5 + [1] * 5 + [0] * 5   # cloud c scored as class c % 2
        report = lines[0]
        assert report["passed"] is (code == 0)
        if code == 0:
            assert report["max_abs_deviation"] < 1e-12
            assert report["argmax_agreement"] == 1.0
        else:
            assert report["max_abs_deviation"] > 1e-2

    def test_zero_rotations_vacuous_pass(self, tmp_path, capsys):
        ckpt = self.make_run(tmp_path, capsys)
        code, lines = run_lines(capsys, [
            "invariance-audit", str(ckpt), "--rotations", "0"])
        assert code == 0
        assert "warning" in lines[0]


class TestRunDirectoryWithNormalize:
    """A run directory whose config.ini holds `normalize = false`, as every
    config.ini written while per-set standardization was an option does."""

    LEGACY_INI = Path(__file__).parent / "data" / "desk_config_with_normalize.ini"

    def make_run(self, tmp_path, capsys, value="false"):
        out = tmp_path / "run"
        train = ["train", str(self.LEGACY_INI), str(out), "--n-per-class", "1"]
        assert main(train + ["--epochs", "1"]) == 0
        legacy = self.LEGACY_INI.read_text()
        (out / "config.ini").write_text(
            legacy.replace("normalize = false", f"normalize = {value}"))
        capsys.readouterr()
        return out, train

    def test_evaluates_audits_and_resumes(self, tmp_path, capsys):
        out, train = self.make_run(tmp_path, capsys)
        ckpt = str(out / "model.ckpt")
        assert main(["eval", ckpt, "synth-classification", "--n-per-class", "1"]) == 0
        assert main(["invariance-audit", ckpt, "--clouds", "1",
                     "--rotations", "2"]) == 0
        assert main(train + ["--epochs", "2"]) == 0
        recorded = [json.loads(l) for l in
                    (out / "run.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in recorded if r["type"] == "epoch"] == [0, 1]

    def test_normalize_true_exits_2(self, tmp_path, capsys):
        out, train = self.make_run(tmp_path, capsys, value="true")
        ckpt = str(out / "model.ckpt")
        for argv in (train + ["--epochs", "2"],
                     ["eval", ckpt, "synth-classification", "--n-per-class", "1"],
                     ["invariance-audit", ckpt, "--clouds", "1"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "normalize" in captured.err
            assert captured.out == ""


class TestAblate:
    def test_small_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "abl"
        code, lines = run_lines(capsys, [
            "ablate", cfg, str(out), "--variants", "edgeconv,aeconv3",
            "--searches", "knn", "--anchors", "mean", "--ks", "6",
            "--seeds", "0", "--epochs", "1", "--n-per-class", "2"])
        assert code == 0
        header = lines[0]
        assert header["type"] == "ablation_header"
        assert header["cells"] == 2
        rows = [l for l in lines if l["type"] == "ablation"]
        assert len(rows) == 2
        by_variant = {r["variant"]: r for r in rows}
        assert by_variant["aeconv3"]["parameters"] > 0
        assert by_variant["aeconv3"]["macs_per_sample"] > \
            by_variant["edgeconv"]["macs_per_sample"]
        saved = [json.loads(l) for l in
                 (out / "ablation.jsonl").read_text().splitlines()]
        assert len(saved) == 2

    def test_segmentation_config_refused(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_seg_cfg())
        out = tmp_path / "abl"
        code = main(["ablate", cfg, str(out), "--variants", "edgeconv",
                     "--searches", "knn", "--anchors", "mean", "--ks", "6",
                     "--seeds", "0", "--epochs", "1", "--n-per-class", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "segmentation model but the synthetic" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_invalid_cell_refused_before_any_training(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "abl"
        code = main(["ablate", cfg, str(out), "--variants", "edgeconv",
                     "--searches", "knn", "--anchors", "mean", "--ks", "6,0",
                     "--seeds", "0,1", "--epochs", "1", "--n-per-class", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_interrupted_grid_keeps_finished_rows(self, tmp_path, capsys,
                                                  monkeypatch):
        calls = []

        def train_then_fail(model, train_set, tc):
            calls.append(model.config.variant)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return train_classifier(model, train_set, tc)

        monkeypatch.setattr(cli, "train_classifier", train_then_fail)
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        out = tmp_path / "abl"
        with pytest.raises(RuntimeError, match="interrupted"):
            main(["ablate", cfg, str(out), "--variants", "edgeconv,aeconv3",
                  "--searches", "knn", "--anchors", "mean", "--ks", "6",
                  "--seeds", "0", "--epochs", "1", "--n-per-class", "2"])
        assert calls == ["edgeconv", "aeconv3"]
        printed = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        saved = [json.loads(l) for l in
                 (out / "ablation.jsonl").read_text().splitlines()]
        assert saved == [l for l in printed if l["type"] == "ablation"]
        assert [r["variant"] for r in saved] == ["edgeconv"]
        assert [p.name for p in out.iterdir()] == ["ablation.jsonl"]

    def test_default_grid_is_full_cross_product(self, tmp_path, capsys):
        # Only the header math; running 48 trainings is a flag away.
        from aecnn.cli import ABLATION_ANCHORS, ABLATION_KS, \
            ABLATION_SEARCHES, ABLATION_VARIANTS
        assert len(ABLATION_VARIANTS) * len(ABLATION_SEARCHES) * \
            len(ABLATION_ANCHORS) * len(ABLATION_KS) == 48


class TestLrfDump:
    def test_dump_matches_library(self, tmp_path, capsys):
        pts = np.array([
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0],
        ])
        path = tmp_path / "toy.xyz"
        save_xyz(path, geo.PointCloud(pts))
        code, lines = run_lines(capsys, ["lrf-dump", str(path), "--k", "3"])
        assert code == 0
        assert lines[0]["type"] == "lrf_dump_header"
        assert lines[0]["points"] == 5
        rows = lines[1:]
        assert len(rows) == 5
        row = rows[2]
        nb_idx = row["neighbors"]
        basis = compute_lrf_batch(pts[2], pts[nb_idx])
        assert np.allclose(row["basis"], basis, atol=1e-12)
        assert np.allclose(row["rirs"], rir_batch(pts[nb_idx], pts[2], basis),
                           atol=1e-12)

    def test_rotated_dump_same_rirs(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        rot = geo.sample_arbitrary_rotation(rng)
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        save_xyz(a, geo.PointCloud(pts))
        save_xyz(b, geo.PointCloud(pts @ rot.T))
        _, la = run_lines(capsys, ["lrf-dump", str(a), "--k", "4"])
        _, lb = run_lines(capsys, ["lrf-dump", str(b), "--k", "4"])
        for ra, rb in zip(la[1:], lb[1:]):
            assert ra["neighbors"] == rb["neighbors"]
            assert not np.allclose(ra["basis"], rb["basis"], atol=1e-6)
            assert np.allclose(ra["rirs"], rb["rirs"], atol=1e-9)

    # SHA-256 of the whole stdout at --k 3 on a cloud with kNN ties, one
    # degenerate reference and three degenerate anchors, recorded when the
    # dump still searched one cloud and built its RIRs point by point. The
    # digests were re-pinned once, when the header's `degenerate_fallbacks`
    # field took the name `lrf_fallbacks` that the audit and epoch lines use
    # for the same counts; every line after the header kept its bytes.
    @pytest.mark.parametrize("anchor,digest", [
        ("mean", "2f5f997ec77a4349527097f6f49d6e4013125a7e5262e37438aa67970d379e4c"),
        ("max_projection",
         "0299b93363d2f5145a1bf2e2faad8ee9e4d12462121717f344bcfacff99c37dc"),
    ], ids=["mean", "max_projection"])
    def test_stdout_is_golden(self, capsys, anchor, digest):
        cloud = Path(__file__).parent / "data" / "lrf_dump_cloud.xyz"
        capsys.readouterr()
        assert main(["lrf-dump", str(cloud), "--k", "3", "--anchor", anchor]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["lrf_fallbacks"] == {
            "degenerate_reference": 1, "degenerate_anchor": 3}
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_path_exits_2(self, tmp_path, capsys):
        assert main(["lrf-dump", str(tmp_path / "ghost.xyz")]) == 2

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2\n")
        assert main(["lrf-dump", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestCountsCheckedAtParse:
    @pytest.mark.parametrize("argv,message", [
        (["invariance-audit", "CKPT", "--clouds", "0"], "--clouds: must be >= 1, got 0"),
        (["invariance-audit", "CKPT", "--rotations", "-1"],
         "--rotations: must be >= 0, got -1"),
        (["train", "CFG", "OUT", "--n-per-class", "0"],
         "--n-per-class: must be >= 1, got 0"),
        (["eval", "CKPT", "synth-classification", "--n-per-class", "0"],
         "--n-per-class: must be >= 1, got 0"),
        (["eval", "CKPT", "synth-classification", "--votes", "0"],
         "--votes: must be >= 1, got 0"),
        (["lrf-dump", "CLOUD", "--k", "0"], "--k: must be >= 1, got 0"),
        (["ablate", "CFG", "OUT", "--seeds", ""], "--seeds: needs at least one value"),
        (["invariance-audit", "CKPT", "--tolerance", "nan"],
         "--tolerance: must be finite, got nan"),
        (["invariance-audit", "CKPT", "--tolerance", "inf"],
         "--tolerance: must be finite, got inf"),
        (["invariance-audit", "CKPT", "--tolerance", "-1"],
         "--tolerance: must be >= 0, got -1.0"),
        (["invariance-audit", "CKPT", "--tolerance", "tight"],
         "--tolerance: invalid float value: 'tight'"),
    ], ids=["audit-clouds", "audit-rotations", "train-n-per-class",
            "eval-n-per-class", "eval-votes", "lrf-dump-k", "ablate-seeds",
            "audit-tolerance-nan", "audit-tolerance-inf",
            "audit-tolerance-negative", "audit-tolerance-word"])
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv, message):
        cfg = write_cfg(tmp_path / "c.ini", tiny_cfg())
        names = {"CKPT": str(tmp_path / "model.ckpt"), "CFG": cfg,
                 "OUT": str(tmp_path / "out"), "CLOUD": str(tmp_path / "c.xyz")}
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([names.get(a, a) for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert message in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before
