"""Trainable building blocks: shared MLPs, Adam, LR schedule, checkpoints."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import ByteReader, atomic_write


class Mlp:
    """Shared-weight MLP applied along the last axis of its input.

    widths = (fin, h1, ..., fout). Hidden layers are affine -> relu; the
    output layer is plain affine. Parameters register themselves into
    `store` under dotted names so the whole network is one flat
    name -> Tensor dict (which is also the checkpoint layout).
    """

    def __init__(self, widths, rng: np.random.Generator, store: dict, name: str):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"mlp widths must be >= 1 with >= 2 entries, got {widths}")
        self.widths = widths
        self.name = name
        self.layers = []
        for li, (fin, fout) in enumerate(zip(widths[:-1], widths[1:])):
            # He for relu layers, smaller for the linear output.
            gain = 1.0 if li == len(widths) - 2 else 2.0
            w = ad.parameter(rng.normal(0.0, np.sqrt(gain / fin), size=(fin, fout)),
                             name=f"{name}.w{li}")
            b = ad.parameter(np.zeros(fout), name=f"{name}.b{li}")
            store[w.name] = w
            store[b.name] = b
            self.layers.append((w, b))

    def __call__(self, x):
        w, b = self.layers[0]
        return self.after_first(ad.linear(x, w, b))

    def after_first(self, y):
        """The layers after the first, from the first affine map's output y.

        y must be a fresh tensor that nothing else reads: the relu of each
        hidden layer overwrites its input. A caller that computes the first
        affine map in parts (`network`) hands its sum here.
        """
        for w, b in self.layers[1:]:
            y = ad.linear(ad.relu_inplace(y), w, b)
        return y

    def parameters(self) -> list:
        """Every trainable Tensor of this MLP, layer by layer."""
        return [t for layer in self.layers for t in layer]

    @property
    def out_width(self) -> int:
        return self.widths[-1]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_init(params: dict) -> AdamState:
    state = AdamState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.values)
        state.v[name] = np.zeros_like(p.values)
    return state


def adam_step(params: dict, state: AdamState, lr: float):
    """One Adam update with bias correction; missing grads count as zero."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.values -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def lr_schedule(epoch: int, base_lr: float, decay: float,
                boundaries: tuple) -> float:
    """Step schedule: multiply by `decay` at each boundary epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    drops = sum(1 for b in boundaries if epoch >= b)
    return base_lr * decay ** drops


def zero_grads(params: dict):
    for p in params.values():
        p.zero_grad()


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"AECNN1"
# Longest array name (utf-8 bytes) and highest rank a checkpoint holds.
CHECKPOINT_MAX_NAME_BYTES = 4096
CHECKPOINT_MAX_RANK = 8


class CheckpointError(ValueError):
    """Raised on malformed or truncated checkpoint files."""


def save_checkpoint(path, arrays: dict):
    """Write named float64 arrays; insertion order is preserved on disk.

    Layout: magic, then per array a uint32 name length, the utf-8 name, a
    uint32 rank, that many uint32 dims, and the little-endian float64 values.
    The file is replaced atomically: a write that fails leaves the old one.
    Names and ranks that `load_checkpoint` would reject are refused before
    the file is opened.
    """
    entries = []
    for name, arr in arrays.items():
        # ascontiguousarray would promote 0-d arrays to 1-d; keep rank.
        a = np.asarray(arr, dtype="<f8")
        if not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        nb = str(name).encode("utf-8")
        if not nb:
            raise CheckpointError("array names must be non-empty")
        if len(nb) > CHECKPOINT_MAX_NAME_BYTES:
            raise CheckpointError(
                f"array name of {len(nb)} bytes is longer than the "
                f"{CHECKPOINT_MAX_NAME_BYTES} a checkpoint holds"
            )
        if a.ndim > CHECKPOINT_MAX_RANK:
            raise CheckpointError(
                f"array {name!r} has rank {a.ndim}; a checkpoint holds at most "
                f"{CHECKPOINT_MAX_RANK}"
            )
        entries.append((nb, a))
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for nb, a in entries:
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", a.ndim))
            if a.ndim:
                f.write(struct.pack(f"<{a.ndim}I", *a.shape))
            f.write(a.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into {name: float64 array}, original order.

    Errors name the file and the byte. An array holding a NaN or Inf is
    refused by name, as `Tensor` would refuse it once loaded.
    """
    r = ByteReader(path, CheckpointError)
    magic = r.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    out: dict = {}
    while r.pos < len(r.blob):
        name = r.string("name", CHECKPOINT_MAX_NAME_BYTES, min_bytes=1)
        rank = r.u32("rank")
        if rank > CHECKPOINT_MAX_RANK:
            raise CheckpointError(f"{path}: implausible rank {rank} at byte {r.pos - 4}")
        shape = tuple(r.u32(f"dims of {name!r}") for _ in range(rank))
        data = r.take(8 * math.prod(shape), f"values of {name!r}")
        a = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: array {name!r} holds non-finite values")
        out[name] = a
    return out
