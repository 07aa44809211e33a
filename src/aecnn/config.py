"""Network and training configuration with validation and INI round trips.

Also the file plumbing the config, checkpoint and dataset formats share:
atomic replacement on write and a reader that names the byte it fails at.
"""
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


@dataclass
class NetworkConfig:
    n_points: int = 256
    n_classes: int = 4
    features: str = "rir"          # "rir" or "absolute" (negative control)
    variant: str = "aeconv3"       # alignment of every edge convolution
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

# Each section's keys and the config attributes they hold. A value is written
# and parsed by the type of the attribute's dataclass default; the one field
# whose default is None (early_stop_train_acc) is a float.
_SECTIONS = {
    "network": {k: k for k in ("n_points", "n_classes", "features", "variant")},
    "sa_first": {k: k for k in ("n_ref", "k", "search", "radius", "anchor",
                                "widths")},
    "sa_next": {k: k for k in ("k", "widths")},
    "head": {"widths": "head_widths"},
    "segmentation": {k: k for k in ("n_parts", "fp_widths", "point_head",
                                    "fp_align_hidden")},
    "align": {"aeconv1_hidden": "aeconv1_hidden"},
    "training": {k: k for k in ("epochs", "batch_size", "base_lr", "lr_decay",
                                "lr_boundaries", "setting", "seed", "votes",
                                "early_stop_train_acc")},
}


def _table(section: str) -> Optional[dict]:
    """A section's key table (every sa_next_<i> shares one), or None."""
    if section.startswith("sa_next_"):
        return _SECTIONS["sa_next"]
    return None if section == "sa_next" else _SECTIONS.get(section)


def _format(default, value) -> str:
    """The INI text of a value, by the type of its field's default."""
    if default is None or isinstance(default, float):
        return repr(float(value))
    if isinstance(default, tuple):
        return ", ".join(str(int(w)) for w in value)
    return str(value)


def _parse(default, raw: str):
    """An INI value as the type of its field's default; ValueError names why."""
    try:
        if default is None or isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(int(p) for p in raw.replace(";", ",").split(",") if p.strip())
        return type(default)(raw)
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse {raw!r}") from None


def config_sections(network: NetworkConfig,
                    train: Optional[TrainConfig] = None) -> dict:
    """The INI text of the configs as {section: {key: value string}}.

    [segmentation] is written only for a segmenter and [align] only when
    aeconv1_hidden is not its default; an unset early stop is left out.
    """
    objects = [("network", network), ("sa_first", network.sa_first)]
    objects += [(f"sa_next_{i}", blk) for i, blk in enumerate(network.sa_next, start=1)]
    objects.append(("head", network))
    if network.n_parts:
        objects.append(("segmentation", network))
    if network.aeconv1_hidden != NetworkConfig.aeconv1_hidden:
        objects.append(("align", network))
    if train is not None:
        objects.append(("training", train))
    sections = {}
    for section, obj in objects:
        defaults = type(obj)()
        values = sections[section] = {}
        for key, attr in _table(section).items():
            default, value = getattr(defaults, attr), getattr(obj, attr)
            if default is None and value is None:
                continue
            values[key] = _format(default, value)
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


class ByteReader:
    """Sequential reads of a binary file; every failure raises the caller's
    error class with the path and the byte position."""

    def __init__(self, path, error: type):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.pos = 0
        self.path = path
        self.error = error

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise self.error(
                f"{self.path}: truncated at byte {self.pos}: needed {n} more "
                f"bytes for {what}, file holds {len(self.blob) - self.pos}"
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def string(self, what: str, max_bytes: int, min_bytes: int = 0) -> str:
        """A u32 byte length, then that many utf-8 bytes."""
        n = self.u32(f"{what} length")
        if not min_bytes <= n <= max_bytes:
            raise self.error(
                f"{self.path}: implausible {what} length {n} at byte {self.pos - 4}"
            )
        start = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(
                f"{self.path}: {what} is not utf-8 at byte {start + e.start}"
            ) from None


def save_config(path, network: NetworkConfig, train: Optional[TrainConfig] = None):
    cp = configparser.ConfigParser()
    cp.read_dict(config_sections(network, train))
    with atomic_write(path) as f:
        cp.write(f)


def load_config(path):
    """Parse an INI file into (NetworkConfig, TrainConfig or None).

    Unknown sections or keys are validation errors, as are malformed values;
    everything wrong is reported at once. A [segmentation] section without
    n_parts means two parts.
    """
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError([f"cannot read config file {path!r}"])
    except configparser.Error as e:
        raise ConfigError([f"cannot parse config file: {e}"]) from None
    problems = []
    # Files written before per-set standardization was removed carry
    # `normalize = false`, which is what every network now does.
    if cp.has_option("network", "normalize"):
        if cp.BOOLEAN_STATES.get(cp["network"]["normalize"].lower()) is not False:
            problems.append("[network] normalize: per-set standardization was "
                            "removed; only normalize = false is accepted")
        cp.remove_option("network", "normalize")
    for section in cp.sections():
        table = _table(section)
        if table is None:
            problems.append(f"unknown section [{section}]")
            continue
        problems.extend(f"unknown key {key!r} in section [{section}]"
                        for key in cp[section] if key not in table)

    def read(section, obj):
        """obj with the values that the file sets in `section`."""
        if section not in cp:
            return obj
        defaults = type(obj)()
        updates = {}
        for key, attr in _table(section).items():
            if key in cp[section]:
                try:
                    updates[attr] = _parse(getattr(defaults, attr), cp[section][key])
                except ValueError as e:
                    problems.append(f"[{section}] {key}: {e}")
        return replace(obj, **updates)

    network = read("network", NetworkConfig())
    network = replace(network, sa_first=read("sa_first", network.sa_first))
    blocks = []
    while f"sa_next_{len(blocks) + 1}" in cp:
        blocks.append(read(f"sa_next_{len(blocks) + 1}", SaNextConfig()))
    run = {f"sa_next_{i}" for i in range(1, len(blocks) + 1)}
    problems.extend(
        f"section [{section}] is not part of a contiguous sa_next_1..N run"
        for section in cp.sections()
        if section.startswith("sa_next_") and section not in run
    )
    if blocks:
        network = replace(network, sa_next=tuple(blocks))
    network = read("align", read("head", network))
    if "segmentation" in cp:
        network = read("segmentation", replace(network, n_parts=2))
    train = read("training", TrainConfig()) if "training" in cp else None
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
