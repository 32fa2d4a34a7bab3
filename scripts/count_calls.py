#!/usr/bin/env python3
"""Count the Python and C calls of every benchmark operation, to size a change's per-call cost.

Runs each ``solve --out`` and ``simulate --out`` operation of the three
workloads of ``perfbench/workloads.py`` at each seed (the operations of
``scripts/audit_outputs.py``) through ``guesswork.cli.main`` twice: a warm-up
call, then one call under ``sys.setprofile`` that counts the Python functions
and the C functions it enters.  It prints the Python, C and total calls of
each operation, and the Python calls into numpy's own files (wrappers such
as ``ndarray.max``'s ``_methods._amax`` or ``np.linalg.eigvalsh``, and the
helpers they call), then their sums.  The counts do not depend on how busy the
host is, so two checkouts can be compared with one run each:

    PYTHONPATH=src python scripts/count_calls.py --seeds 1
    PYTHONPATH=/path/to/other/checkout/src python scripts/count_calls.py --seeds 1
"""

import argparse
import collections
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
from audit_outputs import operations  # noqa: E402
from guesswork.cli import main as cli_main  # noqa: E402

NUMPY = os.path.dirname(numpy.__file__) + os.sep


def count(argv: list[str]) -> collections.Counter:
    """The ``call`` and ``c_call`` events of one ``cli.main(argv)`` after a warm-up
    call, and as ``numpy`` the ``call`` events of functions defined in numpy's files."""
    events = collections.Counter()

    def profile(frame, event, arg):
        events[event] += 1
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY):
            events["numpy"] += 1

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli_main(argv)
        sys.setprofile(profile)
        try:
            cli_main(argv)
        finally:
            sys.setprofile(None)  # its own c_call is counted too
    return events


def row(events: collections.Counter, label: str) -> str:
    counts = events["call"], events["c_call"], events["call"] + events["c_call"], events["numpy"]
    return " ".join(f"{n:>8}" for n in counts) + f"  {label}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    total = collections.Counter()
    print(f"{'python':>8} {'c':>8} {'calls':>8} {'numpy':>8}  operation")
    with tempfile.TemporaryDirectory() as name:
        for seed in args.seeds:
            for label, op_argv, _ in operations(Path(name), seed):
                events = count(op_argv)
                total += events
                print(row(events, label))
    print(row(total, "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
