#!/usr/bin/env python3
"""Benchmark of the ``guesswork`` CLI on seeded workloads.

Every run writes the workload's inputs as JSON files, then calls
``guesswork solve --out`` and ``guesswork simulate --out`` in-process through
``guesswork.cli.main(argv)``, one call after the other (a closed loop with one
client), in whole passes over the workload's instances until ``--seconds``
are used.  After the timed loop a correctness gate checks every answer
against references that do not share the solver's code path.

The host is shared and its speed swings by up to a factor of two from one
stretch of seconds to the next, so every call is bracketed by fixed
calibration kernels (``gauge.py``) and the timing metrics are reported at the
reference host speed of those kernels.  The wall times are printed next to
them.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the run makes untraced passes for half the time, then as many
passes with the program's public functions wrapped in spans, and reports the
per-layer metrics; the spans are written to ``.perfbench/``.

Usage:
    python3 perfbench/run.py --workload qubit_exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Needs only numpy and the source tree: ``src/`` is put on ``sys.path``, so
nothing has to be installed.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_p50_s": "s",
    "solve_p90_s": "s",
    "solves_per_s": "1/s",
    "simulate_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "optimum_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


@dataclass
class Op:
    """One CLI call of a pass, with what its executions returned."""

    kind: str  # "solve" | "simulate"
    inst: object
    argv: list[str]
    out: Path
    times: list[float] = field(default_factory=list)
    kernels: list[tuple[float, float]] = field(default_factory=list)  # gauge around each call
    slowdowns: list[float] = field(default_factory=list)  # host slow-down at each call
    codes: list = field(default_factory=list)
    same_as_first: list[bool] = field(default_factory=list)
    first_text: str | None = None
    errors: list[str] = field(default_factory=list)


def build_ops(instances, directory: Path, seed: int, workloads) -> list[Op]:
    """A solve of every instance, then a simulate of those that ask for one."""
    ops = []
    for kind in ("solve", "simulate"):
        for inst in instances:
            if kind == "simulate" and not inst.simulate_samples:
                continue
            out = directory / f"{inst.name}.{kind}.json"
            argv = [kind, "--ensemble", str(workloads.ensemble_path(directory, inst)),
                    "--cost", workloads.cost_arg(directory, inst), "--out", str(out)]
            if kind == "simulate":
                argv += ["--samples", str(inst.simulate_samples), "--seed", str(seed)]
            ops.append(Op(kind, inst, argv, out))
    return ops


def run_pass(ops: list[Op], cli, gauge: Gauge, tracer=None, pass_index: int = 0) -> float:
    """One call of every op, each bracketed by the gauge; returns the summed call time."""
    busy = 0.0
    gauge.last = gauge.measure()
    for index, op in enumerate(ops):
        op.out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = (pass_index, index)
        sink = io.StringIO()
        code = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception as exc:  # a traceback is a failed operation
                op.errors.append(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        busy += elapsed
        op.times.append(elapsed)
        op.kernels.append(gauge.around())
        op.codes.append(code)
        text = op.out.read_text() if op.out.exists() else None
        if len(op.codes) == 1:
            op.first_text = text
        op.same_as_first.append(text == op.first_text)
    return busy


def warm_up(ops: list[Op], cli) -> None:
    """One untallied solve of the smallest instance, so lazy set-up is not timed."""
    op = min((op for op in ops if op.kind == "solve"), key=lambda op: op.inst.size)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(op.argv)


def run_passes(ops, cli, gauge: Gauge, budget: float,
               tracer=None) -> tuple[int, int]:
    """Whole passes until ``budget`` seconds are used.

    With a tracer, untraced and traced passes alternate, so both see the same
    machine state.  Returns the number of traced passes, and the peak resident
    kilobytes after the first pass: later passes repeat the same calls, so
    what they add is heap growth from fragmentation.
    """
    started = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(run_pass(ops, cli, gauge))
        if len(plain) == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            with tracer.installed():
                traced.append(run_pass(ops, cli, gauge, tracer, len(traced)))
        per_round = statistics.mean(plain) + (statistics.mean(traced) if traced else 0.0)
        if time.perf_counter() - started + per_round / 2 >= budget:
            return len(traced), rss_kb


def weigh_slowdowns(ops: list[Op]) -> None:
    """Each call's host slow-down, from the gauge's kernels around it.

    A solve is compute work: its slow-down is the compute kernel's.  A simulate
    runs the instance's solve and then the Monte Carlo, which makes and streams
    arrays of samples: the share of the call that the solve takes (the
    instance's median solve time over the simulate's) gets the compute
    kernel's slow-down, the rest the mean of both kernels.
    """
    solve_wall = {op.inst.name: statistics.median(op.times) for op in ops if op.kind == "solve"}
    for op in ops:
        share = 1.0
        if op.kind == "simulate":
            share = min(1.0, solve_wall[op.inst.name] / statistics.median(op.times))
        op.slowdowns = [share * c + (1 - share) * (c + m) / 2 for c, m in op.kernels]


def gate(ops: list[Op], reference, seed: int) -> tuple[int, int, list[str]]:
    """Check every execution; returns (attempted, failed, problem lines)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    refs, solve_values, problems = {}, {}, []
    attempted = failed = 0
    for op in ops:
        inst = op.inst
        if op.kind == "solve":
            ref = refs[inst.name] = reference.reference(inst)
        issues = list(op.errors)
        try:
            if op.first_text is None or op.codes[0] is None:
                issues.append(f"first call exited {op.codes[0]} with no output")
            elif op.kind == "solve":
                issues += reference.check_solve(inst, ref, op.codes[0], op.first_text, rng)
                solve_values[inst.name] = json.loads(op.first_text)["value"]
            else:
                issues += reference.check_simulate(
                    inst, solve_values.get(inst.name, float("nan")), op.codes[0], op.first_text
                )
        except Exception as exc:  # an output the checks cannot read is a wrong answer
            issues.append(f"check raised {exc!r}")
        expected = refs[inst.name].exit_code if op.kind == "solve" else 0
        for code, same in zip(op.codes, op.same_as_first):
            attempted += 1
            bad = bool(issues) or code != expected or not same
            failed += bad
        if any(not same for same in op.same_as_first):
            issues.append("output differs between passes")
        problems += [f"{op.kind} {inst.name}: {issue}" for issue in issues]
    return attempted, failed, problems


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
    }


def measure_setup(workload: str, seed: int, directory: Path,
                  repeats: int) -> tuple[list[float], list[float]]:
    """Seconds that fresh interpreters take to import the CLI and write the inputs,
    and the host slow-down in each interpreter just after its set-up."""
    times, slowdowns = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), workload, str(seed), str(directory)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        elapsed, slowdown = map(float, proc.stdout.split())
        times.append(elapsed)
        slowdowns.append(slowdown)
    return times, slowdowns


def gauged(op: Op) -> list[float]:
    """The op's call times over the run, each at the reference host speed."""
    return [t / s for t, s in zip(op.times, op.slowdowns)]


def end_to_end(ops: list[Op], setup: tuple[list[float], list[float]],
               rss_kb: int) -> tuple[dict, dict]:
    solves = [op for op in ops if op.kind == "solve"]
    sims = [op for op in ops if op.kind == "simulate"]
    solve_s = [statistics.median(gauged(op)) for op in solves]
    solve_codes = [c for op in solves for c in op.codes]
    values = {
        "setup_s": statistics.median(t / s for t, s in zip(*setup)),
        "solve_p50_s": statistics.median(solve_s),
        "solve_p90_s": statistics.quantiles(solve_s, n=10, method="inclusive")[-1],
        "solves_per_s": len(solves) / sum(solve_s),
        "simulate_samples_per_s": sum(op.inst.simulate_samples for op in sims)
        / sum(statistics.median(gauged(op)) for op in sims),
        "peak_rss_mb": rss_kb / 1024,
        "optimum_frac": solve_codes.count(0) / len(solve_codes),
    }
    passes = len(solves[0].times)
    per_instance = f"{len(solves)} instances x {passes} passes, per-instance medians"
    counts = {
        "setup_s": f"median of {len(setup[0])} set-ups",
        "solve_p50_s": per_instance,
        "solve_p90_s": per_instance,
        "solves_per_s": per_instance,
        "simulate_samples_per_s": f"{len(sims)} instances x {passes} passes, "
                                  "per-instance medians",
        "peak_rss_mb": "1 process",
        "optimum_frac": f"{len(solve_codes)} solves",
    }
    return values, counts


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    import guesswork.cli as cli  # cli.main is looked up per call, so traced passes see wrappers
    import reference
    import workloads

    instances = workloads.build(args.workload, args.seed)
    directory = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(
            args.workload, args.seed, directory, 1 if args.trace else SETUP_REPEATS
        )
        gauge = Gauge()
        ops = build_ops(instances, directory, args.seed, workloads)
        warm_up(ops, cli)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            traced, _ = run_passes(ops, cli, gauge, args.seconds, tracer)
        else:
            _, rss_kb = run_passes(ops, cli, gauge, args.seconds)
        weigh_slowdowns(ops)
        attempted, failed, problems = gate(ops, reference, args.seed)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment()))
    for problem in problems:
        print("FAIL " + problem)
    print(f"gate: {attempted} operations attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.6g}")
    slowdowns = [g for op in ops for g in op.slowdowns]
    print(f"host slow-down against the reference speed: median "
          f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}-"
          f"{max(slowdowns):.3f} over {len(slowdowns)} calls")
    for op in ops:
        print(f"  {op.kind:8s} {op.inst.name:22s} M={op.inst.size:<3d} "
              f"median {statistics.median(gauged(op)):.6f} s at reference speed, "
              f"{statistics.median(op.times):.6f} s wall, over {len(op.times)} calls, "
              f"exit {sorted(set(op.codes), key=str)}")
    if args.trace:
        unverified = {
            (p, i) for i, op in enumerate(ops) if op.kind == "solve"
            for p, code in enumerate(op.codes[1::2]) if code == 3
        }
        metrics = tracing.layer_metrics(tracer.spans, traced, unverified)
        # Passes alternate untraced (even) and traced (odd), each call at reference speed.
        pass_s = [sum(op.times[k] / op.slowdowns[k] for op in ops)
                  for k in range(2 * traced)]
        metrics["trace_overhead_frac"] = statistics.median(
            t / p for p, t in zip(pass_s[0::2], pass_s[1::2])
        ) - 1
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_file, {"workload": args.workload, "seed": args.seed,
                                  "passes": traced})
        print(f"{len(tracer.spans)} spans over {traced} traced passes -> {spans_file}")
        units = {name: layer_unit(name) for name in metrics}
        counts = {name: f"per pass, {traced} passes" for name in metrics}
        counts["trace_overhead_frac"] = f"median over {traced} untraced/traced pass pairs"
    else:
        metrics, counts = end_to_end(ops, setup, rss_kb)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:42s} {value:<14.6g} {units[name]:6s} ({counts[name]})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process, then one combined line."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["qubit_exact", "general_certify", "structured_large", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "guesswork" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'guesswork'}; run from a checkout",
              file=sys.stderr)
        return 2
    # Pinned before numpy loads, here and in every child process.
    os.environ.update(BLAS_THREADS)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
