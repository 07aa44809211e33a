"""Time one cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints one JSON line: the seconds from this script's first statement to
inputs and model ready (imports, synthetic data, model construction), and
the digest of the inputs. `run.py` starts several of these one after the
other and reports their median as `setup_s`; BLAS threads are inherited
from its environment.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, digest  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    state = workload.setup(int(sys.argv[2]))
    seconds = time.perf_counter() - T_START
    print(json.dumps({"setup_s": seconds,
                      "inputs": digest({"inputs": workload.inputs(state)})}))
