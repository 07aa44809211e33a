"""One paper-scale classification training step: time per cloud and peak RSS.

    python3 demos/paper_scale_step.py --batch 4

Builds `paper_scale_config()` (1024 points, 512 references, k = 48) from
seed 0 and draws `--batch` Gaussian clouds from a seeded generator. It runs
the forward pass, the loss and the backward pass once to warm up, then
STEPS more times, with no optimizer update, and prints one JSON line: the
median step seconds divided by the batch size, the step times themselves,
and the process's peak resident set size (`ru_maxrss`) in MB. Peak RSS
counts the whole process, so it includes the interpreter and numpy, and
glibc's heap layout makes it depend on the order in which buffers are
allocated, not only on how many bytes are live. So one more untimed step
runs under `tracemalloc`, after peak RSS is read, and `traced_peak_mb` is
the most memory that step's own allocations held at once.
"""
import argparse
import json
import resource
import statistics
import time
import tracemalloc

import numpy as np

import aecnn.autodiff as ad
import aecnn.geometry as geo
from aecnn import Model
from aecnn.config import paper_scale_config
from aecnn.nn import zero_grads

STEPS = 3


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--batch", type=int, default=1)
    args = ap.parse_args(argv)
    if args.batch < 1:
        ap.error(f"--batch must be at least 1, got {args.batch}")

    cfg = paper_scale_config()
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(0)
    clouds = np.stack([
        geo.normalize(geo.PointCloud(rng.normal(size=(cfg.n_points, 3)))).points
        for _ in range(args.batch)])
    labels = np.arange(args.batch) % cfg.n_classes

    def step():
        logits, penalties = model.classify_batch(clouds)
        ad.backward(model.loss_terms(logits, labels, penalties))

    times = []
    for _ in range(STEPS + 1):
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
        zero_grads(model.params)
    steps = times[1:]
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    try:
        step()
        traced_peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print(json.dumps({
        "batch": args.batch,
        "step_s_per_cloud": round(statistics.median(steps) / args.batch, 4),
        "step_s": [round(t, 4) for t in steps],
        "peak_rss_mb": round(peak_rss, 1),
        "traced_peak_mb": round(traced_peak, 1),
    }))


if __name__ == "__main__":
    main()
