"""Config validation and INI round-trip behavior."""
import configparser

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
    load_config,
    paper_scale_config,
    save_config,
)


class TestValidation:
    def test_defaults_validate(self):
        assert NetworkConfig().validate() == []
        assert TrainConfig().validate() == []

    def test_shipped_configs_validate(self):
        desk_classification_config().validated()
        desk_segmentation_config().validated()
        paper_scale_config().validated()

    def test_paper_scale_is_larger(self):
        desk = desk_classification_config()
        paper = paper_scale_config()
        assert paper.n_points > desk.n_points
        assert paper.sa_first.n_ref > desk.sa_first.n_ref

    def test_bad_variant_rejected(self):
        cfg = NetworkConfig(variant="fancyconv")
        with pytest.raises(ConfigError, match="variant"):
            cfg.validated()

    def test_quarter_rule_enforced(self):
        cfg = NetworkConfig(sa_first=SaFirstConfig(n_ref=126))
        probs = cfg.validate()
        assert any("quarter" in p for p in probs)

    def test_block_k_bounded_by_available_points(self):
        cfg = NetworkConfig(
            sa_first=SaFirstConfig(n_ref=16),
            sa_next=(SaNextConfig(k=32, widths=(8, 8)),),
        )
        probs = cfg.validate()
        assert any("exceeds" in p for p in probs)

    def test_all_problems_reported_together(self):
        cfg = NetworkConfig(n_points=1, n_classes=1, features="nope")
        probs = cfg.validate()
        assert len(probs) >= 3

    def test_per_block_variant_checked(self):
        cfg = NetworkConfig(sa_next=(
            SaNextConfig(16, (128, 256), variant="bogus"),
            SaNextConfig(16, (256, 512)),
        ))
        with pytest.raises(ConfigError, match="bogus"):
            cfg.validated()

    def test_train_config_setting_checked(self):
        with pytest.raises(ConfigError):
            TrainConfig(setting="sideways").validated()

    def test_train_config_boundaries_sorted(self):
        assert TrainConfig(lr_boundaries=(48, 24)).validate()


class TestIniRoundTrip:
    def test_classification_round_trip(self, tmp_path):
        path = tmp_path / "net.ini"
        cfg = desk_classification_config()
        save_config(path, cfg)
        back, train = load_config(path)
        assert back == cfg
        assert train is None

    def test_segmentation_round_trip(self, tmp_path):
        path = tmp_path / "seg.ini"
        cfg = desk_segmentation_config()
        train = TrainConfig(epochs=12, setting="YAR", seed=3)
        save_config(path, cfg, train)
        back, btrain = load_config(path)
        assert back == cfg
        assert btrain == train

    def test_nondefault_fields_survive(self, tmp_path):
        path = tmp_path / "odd.ini"
        cfg = NetworkConfig(
            n_points=64,
            features="absolute",
            variant="aeconv1",
            normalize=True,
            sa_first=SaFirstConfig(n_ref=32, k=12, search="ball", radius=0.35,
                                   anchor="max_projection", widths=(16, 24)),
            sa_next=(SaNextConfig(5, (24, 40), variant="edgeconv"),),
            head_widths=(48, 16),
        )
        save_config(path, cfg)
        back, _ = load_config(path)
        assert back == cfg

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        save_config(path, NetworkConfig())
        with open(path, "a") as f:
            f.write("\n[mystery]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        save_config(path, NetworkConfig())
        text = path.read_text().replace("[network]", "[network]\nwhatnot = 3")
        path.write_text(text)
        with pytest.raises(ConfigError, match="whatnot"):
            load_config(path)

    def test_sa_next_sections_must_be_contiguous(self, tmp_path):
        path = tmp_path / "gap.ini"
        save_config(path, NetworkConfig())
        text = path.read_text().replace("[sa_next_2]", "[sa_next_3]")
        path.write_text(text)
        with pytest.raises(ConfigError, match="sa_next"):
            load_config(path)

    def test_load_collects_multiple_problems(self, tmp_path):
        path = tmp_path / "multi.ini"
        save_config(path, NetworkConfig())
        text = path.read_text().replace("[network]", "[network]\nbogus = 1")
        text += "\n[extra]\nbar = 2\n"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert len(exc.value.problems) >= 2

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "config.ini"
        save_config(path, desk_classification_config())
        before = path.read_text()

        def write_half(cp, f, *args, **kwargs):
            f.write("[network]\n")
            raise OSError("disk full")

        monkeypatch.setattr(configparser.ConfigParser, "write", write_half)
        with pytest.raises(OSError, match="disk full"):
            save_config(path, desk_segmentation_config())
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]
