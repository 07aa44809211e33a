"""Outside-in span tracer for the aecnn modules.

`Tracer.install` replaces every public function of each traced module, and
every alias of it held by another aecnn module (`from .nn import adam_step`
binds a second name), with a wrapper that records one span per call:
(name, start, end, parent span, work). It also wraps the two forward entry
points of `Model` and counts `Tensor` constructions. `uninstall` puts the
originals back, so untraced rounds run the program exactly as shipped.
Nothing inside `src/aecnn` is edited; a span covers a whole call into a
layer, seen from its caller.

Spans stay in memory. `layer_metrics` turns them into the per-layer figures
of BENCHMARK.json: a layer's time counts only its outermost spans (a
`knn_points_batch` span that calls `knn_features_batch` counts once), and a
span's self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "neighbors", "lrf", "autodiff", "nn", "network", "data",
          "training")
# A coercion helper called inside every autodiff op; a span per call would
# multiply the span count without telling anything about where time goes.
UNTRACED = {"autodiff.as_tensor"}
MODEL_METHODS = ("classify_batch", "segment_batch")

KNN = {"neighbors.knn_points_batch", "neighbors.knn_features_batch"}
FORWARD = {f"network.Model.{m}" for m in MODEL_METHODS}
TRAIN_LOOPS = {"training.train_classifier", "training.train_segmenter"}
SYNTH = {"data.synth_classification", "data.synth_segmentation"}


def _knn_work(corpus, queries, k):
    """(distance evaluations, bytes of differences and distances computed)."""
    b, n, f = np.shape(corpus)
    q = np.shape(queries)[1]
    return b * q * n, 8 * b * q * n * (f + 1)


def _linear_work(x, w, b=None):
    """Multiply-accumulates of one affine map, from its argument shapes."""
    xs = np.shape(getattr(x, "values", x))
    fin, fout = np.shape(w.values)
    return int(np.prod(xs[:-1], dtype=np.int64)) * fin * fout


WORK = {
    "neighbors.knn_points_batch": _knn_work,
    "neighbors.knn_features_batch": _knn_work,
    "autodiff.linear": _linear_work,
}


class Tracer:
    """Span recorder that patches itself into the aecnn modules."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index, work]
        self.tensors = 0
        self._open: list = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open
        work_fn = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = work_fn(*args, **kwargs) if work_fn else None
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, work])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import aecnn
        modules = {layer: importlib.import_module(f"aecnn.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self._wrap(name, fn)
        for mod in (aecnn, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._set(mod, attr, wrappers[val])
        model_cls = modules["network"].Model
        for meth in MODEL_METHODS:
            self._set(model_cls, meth,
                      self._wrap(f"network.Model.{meth}", getattr(model_cls, meth)))
        tensor_cls = modules["autodiff"].Tensor
        init = tensor_cls.__init__

        def counted_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        self._set(tensor_cls, "__init__", counted_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class SpanTable:
    """Derived views of a span list: durations, self times, outermost spans."""

    def __init__(self, spans: list):
        self.names = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.work = [s[4] for s in spans]
        self.dur = np.array([s[2] - s[1] for s in spans])
        child = np.zeros(len(spans))
        for p, d in zip(self.parent, self.dur):
            if p >= 0:
                child[p] += d
        self.self_time = self.dur - child

    def outermost(self, group) -> list:
        """Indices of spans in `group` with no ancestor in `group`."""
        inside = []
        out = []
        for i, (name, p) in enumerate(zip(self.names, self.parent)):
            mine = name in group
            inside.append(mine or (p >= 0 and inside[p]))
            if mine and not (p >= 0 and inside[p]):
                out.append(i)
        return out

    def total(self, group) -> float:
        return float(self.dur[self.outermost(group)].sum())

    def self_total(self, group) -> float:
        return float(sum(self.self_time[i] for i, n in enumerate(self.names)
                         if n in group))

    def roots(self) -> float:
        return float(sum(d for d, p in zip(self.dur, self.parent) if p < 0))

    def by_name(self) -> dict:
        """{span name: [calls, inclusive s, self s]} for the trace file."""
        out: dict = {}
        for name, d, s in zip(self.names, self.dur, self.self_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += float(d)
            row[2] += float(s)
        return out


PER_LAYER_UNITS = {
    "neighbors.knn.ms": "ms",
    "neighbors.knn.distance_evals": "count",
    "neighbors.knn.mb_computed": "MB",
    "neighbors.fps.ms": "ms",
    "autodiff.backward.ms": "ms",
    "autodiff.linear.ms": "ms",
    "autodiff.linear.gmac": "GMAC",
    "autodiff.linear.gmac_per_s": "GMAC/s",
    "autodiff.max_reduce.ms": "ms",
    "autodiff.other_ops.ms": "ms",
    "autodiff.tensors": "count",
    "lrf.frames.ms": "ms",
    "lrf.rir.ms": "ms",
    "lrf.fallbacks": "count",
    "network.forward.ms": "ms",
    "network.forward.self_ms": "ms",
    "nn.adam.ms": "ms",
    "nn.checkpoint.ms": "ms",
    "training.input_pipeline.ms": "ms",
    "training.loop.self_ms": "ms",
    "geometry.canonical_order.ms": "ms",
    "data.synth.ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.untraced.ms": "ms",
}


def layer_metrics(table: SpanTable, clouds: int, wall: float, tensors: int,
                  fallbacks: int) -> dict:
    """Per-cloud layer figures of one traced phase, in BENCHMARK.json units."""
    ms = 1e3 / clouds
    autodiff = {n for n in table.names if n.startswith("autodiff.")}
    top_ad = table.outermost(autodiff)
    ad_time: dict = {}
    for i in top_ad:
        ad_time[table.names[i]] = ad_time.get(table.names[i], 0.0) + table.dur[i]
    linear_s = ad_time.get("autodiff.linear", 0.0)
    max_s = ad_time.get("autodiff.max_reduce", 0.0)
    backward_s = ad_time.get("autodiff.backward", 0.0)
    other_s = sum(ad_time.values()) - linear_s - max_s - backward_s
    knn = table.outermost(KNN)
    evals = sum(table.work[i][0] for i in knn)
    knn_bytes = sum(table.work[i][1] for i in knn)
    macs = sum(table.work[i] for i in top_ad
               if table.names[i] == "autodiff.linear")
    return {
        "neighbors.knn.ms": table.total(KNN) * ms,
        "neighbors.knn.distance_evals": evals / clouds,
        "neighbors.knn.mb_computed": knn_bytes / 1e6 / clouds,
        "neighbors.fps.ms": table.total({"neighbors.fps_batch"}) * ms,
        "autodiff.backward.ms": backward_s * ms,
        "autodiff.linear.ms": linear_s * ms,
        "autodiff.linear.gmac": macs / 1e9 / clouds,
        "autodiff.linear.gmac_per_s": macs / 1e9 / linear_s if linear_s else 0.0,
        "autodiff.max_reduce.ms": max_s * ms,
        "autodiff.other_ops.ms": other_s * ms,
        "autodiff.tensors": tensors / clouds,
        "lrf.frames.ms": table.total({"lrf.compute_lrf_batch"}) * ms,
        "lrf.rir.ms": table.total({"lrf.rir_batch",
                                   "lrf.relative_rotation_batch"}) * ms,
        "lrf.fallbacks": fallbacks / clouds,
        "network.forward.ms": table.total(FORWARD) * ms,
        "network.forward.self_ms": table.self_total(FORWARD) * ms,
        "nn.adam.ms": table.total({"nn.adam_step"}) * ms,
        "nn.checkpoint.ms": table.total({"nn.save_checkpoint"}) * ms,
        "training.input_pipeline.ms": table.total({"training.prepared_points"}) * ms,
        "training.loop.self_ms": table.self_total(TRAIN_LOOPS) * ms,
        "geometry.canonical_order.ms": table.total({"geometry.canonical_order"}) * ms,
        "trace.untraced.ms": (wall - table.roots()) * ms,
    }
