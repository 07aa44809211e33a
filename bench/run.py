"""Benchmark of the aecnn train and inference paths.

    python3 bench/run.py --workload desk-cls-train --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

A workload runs in one process with BLAS pinned to the CPUs it may use. It
sets up once, then repeats whole rounds until `--seconds` have passed, then
checks the outputs. Between rounds it starts SETUP_REPS cold set-ups, one
at a time, in fresh interpreters (setup_probe.py); their median is
`setup_s`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`, where an operation is one
batch (a training step or an inference batch). `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced rounds and
reports the per-layer metrics. The line before it carries the checks, the
SHA-256 digests of the logits and final weights, and the BLAS thread count.
A failed check exits with status 1; a checkout without `src/aecnn` exits
with status 2 and prints no result. `--workload all` runs every workload in
a fresh process, one after the other.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk-cls-train", "desk-seg-train", "paper-cls-infer")
SETUP_REPS = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin BLAS to the CPUs this process may use; must precede numpy import."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1]) if lines else {}
        print(json.dumps({"workload": name, "exit": proc.returncode, **result}))
        status = status or proc.returncode
    return status


def setup_probe(workload: str, seed: int) -> dict:
    """One cold set-up in a fresh interpreter; see setup_probe.py."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_rate(rounds) -> float:
    return statistics.median(r for rnd in rounds for r in rnd.rates)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aecnn" / "__init__.py").is_file():
        print(f"no aecnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from spans import PER_LAYER_UNITS, SYNTH, SpanTable, Tracer, layer_metrics
    from workloads import WORKLOADS, Check, digest
    import_s = time.perf_counter() - T_START

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    setup_tracer = Tracer() if args.trace else None
    with setup_tracer or contextlib.nullcontext():
        state = workload.setup(args.seed)
    own_setup_s = time.perf_counter() - T_START
    inputs = workload.inputs(state)

    # Cold set-ups run between rounds, spread over the run, so that their
    # median is not set by one slow moment of a shared machine.
    probes = [setup_probe(args.workload, args.seed)]
    probe_every = args.seconds / SETUP_REPS
    probe_s = 0.0
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    t_timed = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        rnd = workload.run_round(state, args.seed, OUT_DIR,
                                 tracer if use_trace else None)
        (traced if use_trace else plain).append(rnd)
        elapsed = time.perf_counter() - t_timed - probe_s
        if len(probes) < SETUP_REPS and elapsed >= len(probes) * probe_every:
            t0 = time.perf_counter()
            probes.append(setup_probe(args.workload, args.seed))
            probe_s += time.perf_counter() - t0
        if elapsed >= args.seconds and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < SETUP_REPS:
        probes.append(setup_probe(args.workload, args.seed))
    input_digests = {p["inputs"] for p in probes} | {digest({"inputs": inputs})}
    rounds = plain + traced

    checks, digests = workload.checks(state, args.seed, rounds)
    checks.insert(0, Check("same-seed-same-inputs", len(input_digests) == 1,
                           f"{SETUP_REPS + 1} processes, {len(input_digests)} "
                           "distinct inputs"))

    if args.trace:
        table = SpanTable(tracer.spans)
        clouds = sum(r.clouds for r in traced)
        metrics = layer_metrics(table, clouds, sum(r.wall for r in traced),
                                tracer.tensors, sum(r.fallbacks for r in traced))
        setup_table = SpanTable(setup_tracer.spans)
        metrics["data.synth.ms"] = setup_table.total(SYNTH) * 1e3 / len(inputs)
        metrics["trace.overhead_ratio"] = median_rate(traced) / median_rate(plain)
        report = {k: {"value": metrics[k], "unit": unit}
                  for k, unit in PER_LAYER_UNITS.items()}
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"per_layer": metrics, "spans": table.by_name()}, indent=1))
    else:
        report = {
            "clouds_per_s": {"value": median_rate(plain), "unit": "clouds/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes),
                        "unit": "s"},
        }

    correct = all(c.ok for c in checks)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "blas_threads": threads,
        "numpy": np.__version__, "rounds": len(rounds),
        "timed_segments": sum(len(r.rates) for r in rounds),
        "import_s": import_s, "own_setup_s": own_setup_s,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "digests": digests,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.batches for r in rounds),
        "failed": 0,
        "metrics": report,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
