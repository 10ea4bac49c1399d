"""Time one set-up in a fresh interpreter: import snls, load the configs, build the inputs.

    python3 benchmarks/probe.py <workload> <seed> <scratch-dir>

Prints the elapsed seconds; run.py takes the median of several probes as setup_s.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports snls)

workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - T0)
