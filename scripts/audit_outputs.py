#!/usr/bin/env python3
"""Digest what every benchmark operation shows, to audit that a change keeps its bytes.

Builds the instances of the three workloads of ``perfbench/workloads.py`` at
each seed, runs every ``solve --out`` and ``simulate --out`` operation that the
benchmark runs through ``guesswork.cli.main``, and prints one sha256 per
operation over its exit code, stdout, stderr and ``--out`` bytes (with the
temporary directory stripped from the text), then one over all of them.

It imports the ``guesswork`` on the import path, so the same script audits any
checkout; two runs that print the same total saw the same bytes:

    PYTHONPATH=src python scripts/audit_outputs.py --seeds 1 2 3
    PYTHONPATH=/path/to/other/checkout/src python scripts/audit_outputs.py --seeds 1 2 3
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from guesswork.cli import main as cli_main  # noqa: E402


def operations(directory: Path, seed: int):
    """(label, argv, out path) of each operation of the three workloads at ``seed``,
    in the order the benchmark runs them: every solve, then the simulates."""
    for workload in workloads.WORKLOADS:
        instances = workloads.build(workload, seed)
        here = directory / f"{workload}-{seed}"
        workloads.write(instances, here)
        for kind in ("solve", "simulate"):
            for inst in instances:
                if kind == "simulate" and not inst.simulate_samples:
                    continue
                out = here / f"{inst.name}.{kind}.json"
                argv = [kind, "--ensemble", str(workloads.ensemble_path(here, inst)),
                        "--cost", workloads.cost_arg(here, inst), "--out", str(out)]
                if kind == "simulate":
                    argv += ["--samples", str(inst.simulate_samples), "--seed", str(seed)]
                yield f"{workload} {seed} {kind} {inst.name}", argv, out


def digest(argv: list[str], out: Path, directory: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    text = f"{code}\n{stdout.getvalue()}\0{stderr.getvalue()}\0".replace(str(directory), "")
    return hashlib.sha256(text.encode() + (out.read_bytes() if out.exists() else b"")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for seed in args.seeds:
            for label, op_argv, out in operations(directory, seed):
                line = f"{digest(op_argv, out, directory)}  {label}"
                total.update(line.encode() + b"\n")
                print(line)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
