"""Command-line interface: generate, solve, check, simulate.

Exit codes: 0 success (verified optimum), 2 invalid input, 3 result is only
an unverified upper bound, 4 internal numerical failure.  The environment
variable GUESSWORK_FACTORIAL_CAP overrides the enumeration cap (default 10),
the largest M at which ``solve`` and ``simulate`` run the exhaustive solvers;
only :func:`_cap` reads it (``check`` runs the closed form's relabeling
search at every M).  Up to the cap an exit 0 is always a verified optimum;
above it, a benevolent qubit ensemble's closed form is reported with
"condition verified no".  The solve first drops the coordinates that no
state uses (see :func:`guesswork.engine.solve`), so a qubit ensemble padded
with zero rows and columns gets the exit code and the stdout of the qubit ensemble.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .costs import _exponent, identity_cost
from .engine import simulate, solve
from .ensembles import (
    _antiprism_layout,
    antiprism_h_bound,
    constant_overlap_check,
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    generate_sic,
    is_uniform_prior,
)
from .errors import NumericalCheckError
from .operators import EIGEN_TOL
from .qap import DEFAULT_FACTORIAL_CAP, bloch_gram, find_benevolent_permutation, is_benevolent


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _cap() -> int:
    raw = os.environ.get("GUESSWORK_FACTORIAL_CAP", "")
    if not raw:
        return DEFAULT_FACTORIAL_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"GUESSWORK_FACTORIAL_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"GUESSWORK_FACTORIAL_CAP must be >= 1, got {cap}")
    return cap


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize.dumps(doc))
        handle.write("\n")


def _load_ensemble(path: str):
    return serialize.ensemble_from_json(_load_json(path))


def cmd_generate(args) -> int:
    lam = args.lam if args.lam == "pure" else float(args.lam)
    if args.family == "polygon_antiprism":
        ensemble = generate_polygon_antiprism(args.m, h=args.h, lam=lam)
    elif args.family == "sic":
        ensemble = generate_sic()
    elif args.family == "mub":
        ensemble = generate_mub()
    else:
        ensemble = generate_random_uniform_prior(args.m, args.dim, args.seed)
    _write_json(args.out, serialize.ensemble_to_json(ensemble))
    print(f"family             {args.family}")
    print(f"states (M)         {ensemble.size}")
    print(f"dim                {ensemble.dim}")
    print(f"uniform prior      {'yes' if is_uniform_prior(ensemble) else 'no'}")
    if args.family in ("polygon_antiprism", "sic", "mub"):
        h = {"sic": antiprism_h_bound(4), "mub": antiprism_h_bound(6)}.get(args.family, args.h)
        bound = antiprism_h_bound(ensemble.size)
        if h > bound + 1e-12:
            status = "above bound"
        elif abs(h - bound) <= 1e-12:
            status = "saturates bound"
        else:
            status = "within bound"
        print(f"height h           {_fmt(h)} ({status}; bound {_fmt(bound)})")
    print(f"wrote              {args.out}")
    return 0


def _load_and_solve(args):
    """Load the ensemble and cost named in ``args`` and run the solve pipeline."""
    ensemble = _load_ensemble(args.ensemble)
    if args.cost == "identity":
        cost = identity_cost(ensemble.size)
    else:
        cost = serialize.cost_from_json(_load_json(args.cost), size_hint=ensemble.size)
    return ensemble, cost, solve(ensemble, cost, args.tol, _cap())


def cmd_solve(args) -> int:
    _, _, report = _load_and_solve(args)
    numbering = " ".join(str(x) for x in report.optimal_numbering)
    if report.measurement is None:
        if report.method == "zigzag":
            print("no sweep ran above the enumeration cap: zig-zag bound")
        else:
            print("optimality condition failed at the best candidate numbering")
        print(f"unverified upper bound   {_fmt(report.value)}")
        print(f"candidate numbering      {numbering}")
    else:
        print(f"minimum guesswork    {_fmt(report.value)}")
        print(f"mean cost            {_fmt(report.mean_cost)}")
        print(f"trace-norm term      {_fmt(report.trace_norm_term)}")
        print(f"numbering            {numbering}")
        print(f"method               {report.method}")
        print(f"condition verified   {'yes' if report.condition_verified else 'no'}")
    if args.out:
        _write_json(args.out, serialize.report_to_json(report))
    return 3 if report.measurement is None else 0


def _recognize_antiprism(ensemble) -> tuple[float, float] | None:
    """Return (lambda, h) if the Bloch layout matches the canonical polygon/anti-prism,
    which has M >= 2 states, within 1e-8 of its own radius lambda."""
    bloch = ensemble.bloch
    m = ensemble.size
    radius = np.hypot(bloch[:, 0], bloch[:, 1])
    scale = float(radius.mean())
    tol = 1e-8 * scale
    if m < 2 or not scale > 0 or float(np.max(np.abs(radius - scale))) > tol:
        return None
    h = float(np.abs(bloch[:, 2]).mean()) / scale
    if float(np.max(np.abs(bloch - _antiprism_layout(m, h, scale)))) > tol:
        return None
    return scale, h


def cmd_check(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    print(f"states (M)           {ensemble.size}")
    print(f"dim                  {ensemble.dim}")
    print(f"uniform prior        {'yes' if is_uniform_prior(ensemble, args.tol) else 'no'}")
    if ensemble.dim != 2:
        print(f"bloch checks skipped (dim = {ensemble.dim})")
        return 0
    print(
        "constant overlap     "
        f"{'yes' if constant_overlap_check(ensemble, args.tol) else 'no'}"
    )
    gram = -bloch_gram(ensemble)
    gram = np.ldexp(gram, -_exponent(gram))  # benevolence is judged at the Gram's own scale
    report = is_benevolent(gram, args.tol)
    print(f"symmetric toeplitz   {'yes' if report.is_symmetric_toeplitz else 'no'}")
    print(f"property1_ok         {'yes' if report.property1_ok else 'no'}")
    print(f"property2_ok         {'yes' if report.property2_ok else 'no'}")
    if report.failing_index is not None:
        print(f"failing index        {report.failing_index}")
    witness = find_benevolent_permutation(gram, tol=args.tol)  # the identity first
    if witness is None:
        print("benevolent           no (no relabeling found)")
    elif report.is_benevolent:
        print("benevolent           yes (canonical labeling)")
    else:
        print(f"benevolent           yes (relabeling {' '.join(str(x) for x in witness)})")
    recognized = _recognize_antiprism(ensemble)
    if recognized is None:
        print("h-bound              skipped (not a canonical polygon/anti-prism layout)")
    else:
        _, h = recognized
        bound = antiprism_h_bound(ensemble.size)
        relation = "<=" if h <= bound + 1e-12 else ">"
        print(f"h-bound              h = {_fmt(h)} {relation} bound {_fmt(bound)}")
    return 0


def cmd_simulate(args) -> int:
    ensemble, cost, report = _load_and_solve(args)
    if report.measurement is None:
        print("no verified optimal measurement; nothing to simulate")
        return 3
    estimate, std_error = simulate(ensemble, cost, report.measurement, args.samples, args.seed)
    gap = estimate - report.value
    if math.isnan(std_error):
        z = None
    elif std_error == 0.0:
        z = 0.0 if gap == 0.0 else math.inf
    else:
        z = gap / std_error
    print(f"estimate             {_fmt(estimate)}")
    print(f"std error            {'unavailable' if math.isnan(std_error) else _fmt(std_error)}")
    print(f"analytic value       {_fmt(report.value)}")
    print(f"z-score              {'unavailable' if z is None else _fmt(z)}")
    if args.out:
        _write_json(
            args.out,
            {
                "estimate": estimate,
                "std_error": None if math.isnan(std_error) else std_error,
                "analytic": report.value,
                "z": None if z is None or math.isinf(z) else z,
                "samples": args.samples,
                "seed": args.seed,
            },
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guesswork",
        description="Minimum guesswork of quantum ensembles under balanced cost functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="generate an ensemble JSON file")
    gen.add_argument(
        "--family",
        required=True,
        choices=["polygon_antiprism", "sic", "mub", "random"],
    )
    gen.add_argument("--m", type=int, default=0, help="number of states M")
    gen.add_argument("--h", type=float, default=0.0, help="anti-prism height (Bloch units)")
    gen.add_argument(
        "--lambda",
        dest="lam",
        default="pure",
        help="Bloch radius scale, or 'pure' (default)",
    )
    gen.add_argument("--dim", type=int, default=2, help="dimension (random family)")
    gen.add_argument("--seed", type=int, default=0, help="seed (random family)")
    gen.add_argument("--out", required=True, help="output path for the ensemble JSON")
    gen.set_defaults(func=cmd_generate)

    # the options of solve and simulate, which both run the solve pipeline
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--ensemble", required=True, help="ensemble JSON path")
    problem.add_argument("--cost", default="identity", help="'identity' or a cost JSON path")
    problem.add_argument(
        "--tol",
        type=float,
        default=EIGEN_TOL,
        help="tolerance of the optimality condition, relative to the cost's scale",
    )

    solve = sub.add_parser("solve", parents=[problem], help="compute the minimum guesswork")
    solve.add_argument("--out", help="write the report JSON here")
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", help="report ensemble structure")
    check.add_argument("--ensemble", required=True, help="ensemble JSON path")
    check.add_argument("--tol", type=float, default=1e-10, help="structure tolerance")
    check.set_defaults(func=cmd_check)

    sim = sub.add_parser(
        "simulate", parents=[problem], help="Monte Carlo check of the optimal measurement"
    )
    sim.add_argument("--samples", type=int, default=100000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="write the estimate JSON here")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        print(f"error: --tol must be a finite positive number, got {tol!r}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except NumericalCheckError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
