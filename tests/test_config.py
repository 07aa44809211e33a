"""Config validation and INI round-trip behavior."""
import configparser
from pathlib import Path

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

DATA = Path(__file__).parent / "data"


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
            sa_first=SaFirstConfig(n_ref=32, k=12, search="ball", radius=0.35,
                                   anchor="max_projection", widths=(16, 24)),
            sa_next=(SaNextConfig(5, (24, 40)),),
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

    @pytest.mark.parametrize("text", [
        "n_points = 64\n",
        "[network]\nn_points = 64\n[network]\nn_classes = 3\n",
        "[network]\nn_points = 64\nn_points = 32\n",
    ], ids=["no-section-header", "duplicate-section", "duplicate-key"])
    def test_unparsable_file_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "broken.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="cannot parse config file"):
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

    def test_every_field_round_trips(self, tmp_path):
        path = tmp_path / "all.ini"
        cfg = desk_segmentation_config(
            n_parts=4, variant="aeconv2", aeconv1_hidden=17, fp_align_hidden=19,
            sa_next=(SaNextConfig(11, (24, 40)), SaNextConfig(10, (40, 56))),
        )
        train = TrainConfig(epochs=7, batch_size=5, base_lr=3.3e-4, lr_decay=0.5,
                            lr_boundaries=(2, 5, 6), setting="YY", seed=42,
                            early_stop_train_acc=0.875, votes=3)
        save_config(path, cfg, train)
        back, btrain = load_config(path)
        assert back == cfg
        assert btrain == train

    def test_segmentation_section_without_n_parts_has_two_parts(self, tmp_path):
        path = tmp_path / "seg.ini"
        save_config(path, desk_segmentation_config(n_parts=5, fp_widths=(40, 30)))
        text = path.read_text().replace("n_parts = 5\n", "")
        path.write_text(text)
        back, _ = load_config(path)
        assert back == desk_segmentation_config(n_parts=2, fp_widths=(40, 30))

    def test_malformed_values_named_together(self, tmp_path):
        path = tmp_path / "bad.ini"
        save_config(path, NetworkConfig(), TrainConfig())
        text = (path.read_text()
                .replace("variant = aeconv3", "variant = aeconv3\nnormalize = maybe")
                .replace("radius = 0.2", "radius = wide")
                .replace("widths = 64, 128", "widths = 64, x")
                .replace("votes = 1", "votes = 1.5"))
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.problems == [
            "[network] normalize: per-set standardization was removed; only "
            "normalize = false is accepted",
            "[sa_first] radius: cannot parse 'wide'",
            "[sa_next_1] widths: cannot parse '64, x'",
            "[training] votes: cannot parse '1.5'",
        ]

    def test_reads_config_written_with_normalize_false(self):
        # Every config.ini written while per-set standardization was an
        # option holds `normalize = false`; such run directories stay usable.
        back, train = load_config(DATA / "desk_config_with_normalize.ini")
        assert back == desk_classification_config()
        assert train == TrainConfig()

    def test_saved_desk_text(self, tmp_path):
        # cmd_train compares this text with config.ini files already on disk,
        # so a change to it is a change to what a resume accepts.
        path = tmp_path / "desk.ini"
        save_config(path, desk_classification_config(), TrainConfig())
        assert path.read_text() == DESK_INI


DESK_INI = """\
[network]
n_points = 256
n_classes = 4
features = rir
variant = aeconv3

[sa_first]
n_ref = 64
k = 16
search = knn
radius = 0.2
anchor = mean
widths = 32, 64

[sa_next_1]
k = 12
widths = 64, 128

[sa_next_2]
k = 12
widths = 128, 192

[head]
widths = 128

[training]
epochs = 60
batch_size = 32
base_lr = 0.001
lr_decay = 0.2
lr_boundaries = 24, 48
setting = ARAR
seed = 0
votes = 1

"""
