"""Network and training configuration with validation and INI round trips."""
from __future__ import annotations

import configparser
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

ALIGN_VARIANTS = ("edgeconv", "aeconv1", "aeconv2", "aeconv3")
FEATURE_MODES = ("rir", "absolute")
SEARCH_MODES = ("knn", "ball")
ANCHOR_MODES = ("mean", "max_projection")
SETTINGS = ("YY", "YAR", "ARAR")


class ConfigError(ValueError):
    """Carries the full list of validation problems, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(
            f"  - {p}" for p in self.problems
        ))


@dataclass
class SaFirstConfig:
    """First set abstraction: geometric grouping around FPS references."""

    n_ref: int = 64
    k: int = 16
    search: str = "knn"       # "knn" or "ball"
    radius: float = 0.2       # only read when search == "ball"
    anchor: str = "mean"      # frame anchor rule
    widths: tuple = (32, 64)


@dataclass
class SaNextConfig:
    """Feature-space set abstraction; reference count is the quarter rule."""

    k: int = 12
    widths: tuple = (64, 128)
    variant: str = ""  # empty inherits the network-level variant


@dataclass
class NetworkConfig:
    n_points: int = 256
    n_classes: int = 4
    features: str = "rir"          # "rir" or "absolute" (negative control)
    variant: str = "aeconv3"       # alignment used by every sa_next block
    normalize: bool = False        # per-set standardization inside MLPs
    sa_first: SaFirstConfig = field(default_factory=SaFirstConfig)
    sa_next: tuple = field(default_factory=lambda: (
        SaNextConfig(12, (64, 128)),
        SaNextConfig(12, (128, 192)),
    ))
    head_widths: tuple = (128,)
    # Segmentation extras; n_parts == 0 means classification only.
    n_parts: int = 0
    fp_widths: tuple = (96, 64)
    point_head: tuple = (64,)
    # Hidden widths for the alignment MLPs (their in/out sizes are fixed by
    # the variant; these are free knobs).
    aeconv1_hidden: int = 64
    fp_align_hidden: int = 64

    def ref_counts(self) -> list:
        """Reference counts per level: sa_first, then quartering per block."""
        out = [self.sa_first.n_ref]
        for _ in self.sa_next:
            out.append(out[-1] // 4)
        return out

    def feature_widths(self) -> list:
        """Output feature width after sa_first and each sa_next block."""
        return [self.sa_first.widths[-1]] + [b.widths[-1] for b in self.sa_next]

    def validate(self) -> list:
        problems = []
        if self.n_points < 4:
            problems.append(f"n_points must be >= 4, got {self.n_points}")
        if self.n_classes < 2:
            problems.append(f"n_classes must be >= 2, got {self.n_classes}")
        if self.features not in FEATURE_MODES:
            problems.append(f"features must be one of {FEATURE_MODES}, got {self.features!r}")
        if self.variant not in ALIGN_VARIANTS:
            problems.append(f"variant must be one of {ALIGN_VARIANTS}, got {self.variant!r}")
        sa = self.sa_first
        if not 1 <= sa.n_ref <= self.n_points:
            problems.append(
                f"sa_first.n_ref must be in [1, n_points={self.n_points}], got {sa.n_ref}"
            )
        if sa.k < 1:
            problems.append(f"sa_first.k must be >= 1, got {sa.k}")
        if sa.search not in SEARCH_MODES:
            problems.append(f"sa_first.search must be one of {SEARCH_MODES}, got {sa.search!r}")
        if sa.search == "ball" and not sa.radius > 0:
            problems.append(f"sa_first.radius must be positive, got {sa.radius}")
        if sa.anchor not in ANCHOR_MODES:
            problems.append(f"sa_first.anchor must be one of {ANCHOR_MODES}, got {sa.anchor!r}")
        problems.extend(_check_widths("sa_first.widths", sa.widths))
        if not self.sa_next:
            problems.append("at least one sa_next block is required")
        refs = sa.n_ref
        for i, blk in enumerate(self.sa_next, start=1):
            if refs % 4 != 0 or refs // 4 < 1:
                problems.append(
                    f"sa_next_{i}: incoming reference count {refs} does not quarter evenly"
                )
                break
            refs //= 4
            if blk.k < 1:
                problems.append(f"sa_next_{i}.k must be >= 1, got {blk.k}")
            if blk.k > refs * 4:
                problems.append(
                    f"sa_next_{i}.k = {blk.k} exceeds the {refs * 4} available points"
                )
            if blk.variant and blk.variant not in ALIGN_VARIANTS:
                problems.append(
                    f"sa_next_{i}.variant must be one of {ALIGN_VARIANTS}, got {blk.variant!r}"
                )
            problems.extend(_check_widths(f"sa_next_{i}.widths", blk.widths))
        problems.extend(_check_widths("head.widths", self.head_widths))
        if self.n_parts:
            if self.n_parts < 2:
                problems.append(f"n_parts must be >= 2 when set, got {self.n_parts}")
            if len(self.fp_widths) != 2:
                problems.append(
                    f"fp_widths needs one width per propagation stage (2), got {self.fp_widths}"
                )
            problems.extend(_check_widths("fp_widths", self.fp_widths))
            problems.extend(_check_widths("point_head", self.point_head))
        if self.aeconv1_hidden < 1:
            problems.append(f"aeconv1_hidden must be >= 1, got {self.aeconv1_hidden}")
        if self.fp_align_hidden < 1:
            problems.append(f"fp_align_hidden must be >= 1, got {self.fp_align_hidden}")
        return problems

    def validated(self) -> "NetworkConfig":
        problems = self.validate()
        if problems:
            raise ConfigError(problems)
        return self


def _check_widths(name, widths) -> list:
    try:
        ws = tuple(int(w) for w in widths)
    except (TypeError, ValueError):
        return [f"{name} must be a tuple of ints, got {widths!r}"]
    if not ws:
        return [f"{name} must not be empty"]
    if any(w < 1 for w in ws):
        return [f"{name} entries must be >= 1, got {ws}"]
    return []


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    base_lr: float = 1e-3
    lr_decay: float = 0.2
    lr_boundaries: tuple = (24, 48)
    setting: str = "ARAR"          # train/test rotation protocol
    seed: int = 0
    early_stop_train_acc: Optional[float] = None
    votes: int = 1                 # prediction votes at eval time

    def validate(self) -> list:
        problems = []
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.base_lr > 0:
            problems.append(f"base_lr must be positive, got {self.base_lr}")
        if not 0 < self.lr_decay <= 1:
            problems.append(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        bounds = tuple(self.lr_boundaries)
        if any(b < 1 for b in bounds) or list(bounds) != sorted(bounds):
            problems.append(
                f"lr_boundaries must be positive and ascending, got {bounds}"
            )
        if self.setting not in SETTINGS:
            problems.append(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        if self.early_stop_train_acc is not None and not 0 < self.early_stop_train_acc <= 1:
            problems.append(
                f"early_stop_train_acc must be in (0, 1], got {self.early_stop_train_acc}"
            )
        if self.votes < 1:
            problems.append(f"votes must be >= 1, got {self.votes}")
        return problems

    def validated(self) -> "TrainConfig":
        problems = self.validate()
        if problems:
            raise ConfigError(problems)
        return self


# ---------------------------------------------------------------------------
# INI round trip
# ---------------------------------------------------------------------------

def _fmt_widths(ws) -> str:
    return ", ".join(str(int(w)) for w in ws)


def _parse_widths(s: str) -> tuple:
    parts = [p.strip() for p in str(s).replace(";", ",").split(",") if p.strip()]
    return tuple(int(p) for p in parts)


def config_sections(network: NetworkConfig,
                    train: Optional[TrainConfig] = None) -> dict:
    """The INI text of the configs as {section: {key: value string}}."""
    sections: dict = {}
    sections["network"] = {
        "n_points": str(network.n_points),
        "n_classes": str(network.n_classes),
        "features": network.features,
        "variant": network.variant,
        "normalize": str(bool(network.normalize)).lower(),
    }
    sections["sa_first"] = {
        "n_ref": str(network.sa_first.n_ref),
        "k": str(network.sa_first.k),
        "search": network.sa_first.search,
        "radius": repr(float(network.sa_first.radius)),
        "anchor": network.sa_first.anchor,
        "widths": _fmt_widths(network.sa_first.widths),
    }
    for i, blk in enumerate(network.sa_next, start=1):
        sections[f"sa_next_{i}"] = {"k": str(blk.k), "widths": _fmt_widths(blk.widths)}
        if blk.variant:
            sections[f"sa_next_{i}"]["variant"] = blk.variant
    sections["head"] = {"widths": _fmt_widths(network.head_widths)}
    if network.n_parts:
        sections["segmentation"] = {
            "n_parts": str(network.n_parts),
            "fp_widths": _fmt_widths(network.fp_widths),
            "point_head": _fmt_widths(network.point_head),
            "fp_align_hidden": str(network.fp_align_hidden),
        }
    if network.aeconv1_hidden != 64:
        sections["align"] = {"aeconv1_hidden": str(network.aeconv1_hidden)}
    if train is not None:
        sections["training"] = {
            "epochs": str(train.epochs),
            "batch_size": str(train.batch_size),
            "base_lr": repr(float(train.base_lr)),
            "lr_decay": repr(float(train.lr_decay)),
            "lr_boundaries": _fmt_widths(train.lr_boundaries),
            "setting": train.setting,
            "seed": str(train.seed),
            "votes": str(train.votes),
        }
        if train.early_stop_train_acc is not None:
            sections["training"]["early_stop_train_acc"] = repr(float(train.early_stop_train_acc))
    return sections


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a file that replaces `path` only once it is completely written.

    Writes go to a temporary file in the same directory, which is flushed,
    fsynced and then renamed over `path` with `os.replace`. If the body
    raises, the temporary file is removed and `path` keeps its old contents
    (or stays absent).
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_config(path, network: NetworkConfig, train: Optional[TrainConfig] = None):
    cp = configparser.ConfigParser()
    cp.read_dict(config_sections(network, train))
    with atomic_write(path) as f:
        cp.write(f)


_KNOWN_SECTIONS = ("network", "sa_first", "head", "segmentation", "align", "training")

_KNOWN_KEYS = {
    "network": {"n_points", "n_classes", "features", "variant", "normalize"},
    "sa_first": {"n_ref", "k", "search", "radius", "anchor", "widths"},
    "sa_next": {"k", "widths", "variant"},
    "head": {"widths"},
    "segmentation": {"n_parts", "fp_widths", "point_head", "fp_align_hidden"},
    "align": {"aeconv1_hidden"},
    "training": {"epochs", "batch_size", "base_lr", "lr_decay", "lr_boundaries",
                 "setting", "seed", "votes", "early_stop_train_acc"},
}


def load_config(path):
    """Parse an INI file into (NetworkConfig, TrainConfig or None).

    Unknown sections or keys are validation errors, as are malformed values;
    everything wrong is reported at once.
    """
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError([f"cannot read config file {path!r}"])
    problems = []
    for section in cp.sections():
        base = "sa_next" if section.startswith("sa_next_") else section
        if base not in _KNOWN_KEYS or (base == section and section not in _KNOWN_SECTIONS):
            problems.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _KNOWN_KEYS[base]:
                problems.append(f"unknown key {key!r} in section [{section}]")

    def get(section, key, conv, default, target=None):
        if section not in cp or key not in cp[section]:
            return default
        raw = cp[section][key]
        try:
            return conv(raw)
        except (TypeError, ValueError):
            problems.append(f"[{section}] {key}: cannot parse {raw!r}")
            return default

    def get_bool(section, key, default):
        if section not in cp or key not in cp[section]:
            return default
        try:
            return cp.getboolean(section, key)
        except ValueError:
            problems.append(f"[{section}] {key}: expected a boolean")
            return default

    network = NetworkConfig()
    network = replace(
        network,
        n_points=get("network", "n_points", int, network.n_points),
        n_classes=get("network", "n_classes", int, network.n_classes),
        features=get("network", "features", str, network.features),
        variant=get("network", "variant", str, network.variant),
        normalize=get_bool("network", "normalize", network.normalize),
    )
    sa = network.sa_first
    network = replace(network, sa_first=replace(
        sa,
        n_ref=get("sa_first", "n_ref", int, sa.n_ref),
        k=get("sa_first", "k", int, sa.k),
        search=get("sa_first", "search", str, sa.search),
        radius=get("sa_first", "radius", float, sa.radius),
        anchor=get("sa_first", "anchor", str, sa.anchor),
        widths=get("sa_first", "widths", _parse_widths, sa.widths),
    ))
    blocks = []
    blk_default = SaNextConfig()
    i = 1
    while f"sa_next_{i}" in cp:
        blocks.append(SaNextConfig(
            k=get(f"sa_next_{i}", "k", int, blk_default.k),
            widths=get(f"sa_next_{i}", "widths", _parse_widths, blk_default.widths),
            variant=get(f"sa_next_{i}", "variant", str, ""),
        ))
        i += 1
    consumed = {f"sa_next_{j}" for j in range(1, i)}
    for section in cp.sections():
        if section.startswith("sa_next_") and section not in consumed:
            problems.append(
                f"section [{section}] is not part of a contiguous sa_next_1..N run"
            )
    if blocks:
        network = replace(network, sa_next=tuple(blocks))
    network = replace(
        network,
        head_widths=get("head", "widths", _parse_widths, network.head_widths),
        aeconv1_hidden=get("align", "aeconv1_hidden", int, network.aeconv1_hidden),
    )
    if "segmentation" in cp:
        network = replace(
            network,
            n_parts=get("segmentation", "n_parts", int, 2),
            fp_widths=get("segmentation", "fp_widths", _parse_widths, network.fp_widths),
            point_head=get("segmentation", "point_head", _parse_widths, network.point_head),
            fp_align_hidden=get("segmentation", "fp_align_hidden", int,
                                network.fp_align_hidden),
        )
    train = None
    if "training" in cp:
        t = TrainConfig()
        early = get("training", "early_stop_train_acc", float, None)
        train = replace(
            t,
            epochs=get("training", "epochs", int, t.epochs),
            batch_size=get("training", "batch_size", int, t.batch_size),
            base_lr=get("training", "base_lr", float, t.base_lr),
            lr_decay=get("training", "lr_decay", float, t.lr_decay),
            lr_boundaries=get("training", "lr_boundaries", _parse_widths,
                              t.lr_boundaries),
            setting=get("training", "setting", str, t.setting),
            seed=get("training", "seed", int, t.seed),
            votes=get("training", "votes", int, t.votes),
            early_stop_train_acc=early,
        )
    problems.extend(network.validate())
    if train is not None:
        problems.extend(train.validate())
    if problems:
        raise ConfigError(problems)
    return network, train


def desk_classification_config(**overrides) -> NetworkConfig:
    """The default desk-scale classification network."""
    return replace(NetworkConfig(), **overrides)


def desk_segmentation_config(n_parts: int = 2, **overrides) -> NetworkConfig:
    return replace(NetworkConfig(), n_parts=n_parts, **overrides)


def paper_scale_config(**overrides) -> NetworkConfig:
    """Full-size network (1024 points, 512 references); shipped, not trained
    by the test suite, which runs at desk scale."""
    base = replace(
        NetworkConfig(),
        n_points=1024,
        sa_first=SaFirstConfig(n_ref=512, k=48, widths=(64, 128)),
        sa_next=(SaNextConfig(16, (128, 256)), SaNextConfig(16, (256, 512))),
        head_widths=(512, 256),
        fp_widths=(256, 128),
        point_head=(128,),
    )
    return replace(base, **overrides)
