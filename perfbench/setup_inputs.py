"""Set-up step of one benchmark run, in a fresh interpreter.

Imports the CLI, as every ``guesswork`` invocation must, then writes the
workload's seeded input files, and prints the seconds both took and, after
them, the host slow-down that the compute gauge reads right afterwards.

Usage:
    python3 perfbench/setup_inputs.py WORKLOAD SEED DIRECTORY
"""

import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import guesswork.cli  # noqa: E402,F401  (the import is part of what set-up costs)
import workloads  # noqa: E402

GAUGE_REPEATS = 5


def main(argv: list[str]) -> int:
    workload, seed, directory = argv
    workloads.write(workloads.build(workload, int(seed)), Path(directory))
    elapsed = time.perf_counter() - STARTED

    import statistics

    from gauge import Gauge

    gauge = Gauge()
    print(elapsed, statistics.median(gauge.compute() for _ in range(GAUGE_REPEATS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
