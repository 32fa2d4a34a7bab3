"""Reference answers for the correctness gate, computed apart from the solver's path.

The program builds E(n) by gathering states and takes trace norms from
``eigvalsh``; the sweeps here build E(n) as a weight matrix times the states
and take trace norms from singular values.  Qubit instances within the
enumeration cap are also checked against the engine's ``tracenorm_argmax``,
which the CLI's qubit path (the QAP route) does not use.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import Instance

VALUE_TOL = 1e-9
PSD_TOL = 1e-10  # the CLI's default --tol
Z_LIMIT = 5.0
SAMPLED_NUMBERINGS = 2000
EXHAUSTIVE_LIMIT = 10  # largest M checked against an exhaustive sweep; the program's default cap


@dataclass
class Reference:
    """What a correct solve of one instance looks like."""

    exit_code: int
    value: float
    exact: bool  # value is the proved optimum (not only a sampled lower bound on it)


def _centered(inst: Instance) -> np.ndarray:
    values = np.asarray(inst.cost_values, dtype=float)
    return values - values.mean()


def effective_operators(inst: Instance, perms: np.ndarray) -> np.ndarray:
    """E(n) for each row n of ``perms`` (0-based labels, n(t) = perms[:, t])."""
    weights = np.zeros(perms.shape)
    weights[np.arange(perms.shape[0])[:, None], perms] = _centered(inst)[None, :]
    return 2 * np.tensordot(weights, inst.states, axes=(1, 0))


def trace_norms(ops: np.ndarray) -> np.ndarray:
    return np.linalg.svd(ops, compute_uv=False).sum(axis=-1)


def numbering_value(inst: Instance, numbering) -> float:
    """mean - ||E(n)||_1 / 2 for a 1-based numbering."""
    perm = np.asarray(numbering, dtype=np.intp)[None, :] - 1
    mean = float(np.mean(inst.cost_values))
    return mean - float(trace_norms(effective_operators(inst, perm))[0]) / 2


def _all_perms(m: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(m))), dtype=np.intp)


def _is_uniform_qubit(inst: Instance) -> bool:
    prior = np.trace(inst.states, axis1=1, axis2=2).real
    return inst.dim == 2 and float(np.max(np.abs(prior - 1 / inst.size))) <= 1e-10


def reference(inst: Instance) -> Reference:
    """Expected exit code and value of ``guesswork solve`` on ``inst``."""
    mean = float(np.mean(inst.cost_values))
    if inst.size > EXHAUSTIVE_LIMIT:
        # Above the cap only benevolent structure is solved exactly; the
        # sampled check in check_solve bounds the answer from the other side.
        return Reference(0, math.nan, exact=False)
    if _is_uniform_qubit(inst):
        import guesswork
        from guesswork.engine import tracenorm_argmax

        e = guesswork.validate(list(inst.states))
        c = guesswork.cost_function(inst.cost_values)
        _, norm = tracenorm_argmax(e, c)
        return Reference(0, c.mean - norm / 2, exact=True)
    perms = _all_perms(inst.size)
    ops = effective_operators(inst, perms)
    norms = trace_norms(ops)
    best = int(np.argmax(norms))
    eigenvalues, vectors = np.linalg.eigh(ops[best])
    magnitude = (vectors * np.abs(eigenvalues)) @ vectors.conj().T
    margin = float(np.linalg.eigvalsh(magnitude[None] - ops)[:, 0].min())
    return Reference(0 if margin >= -PSD_TOL else 3, mean - float(norms[best]) / 2, exact=True)


def check_solve(inst: Instance, ref: Reference, exit_code: int, text: str, rng) -> list[str]:
    """Problems with one ``solve --out`` result; an empty list means correct."""
    if exit_code != ref.exit_code:
        return [f"exit {exit_code}, expected {ref.exit_code}"]
    doc = json.loads(text)
    problems = []
    value = doc["value"]
    own = numbering_value(inst, doc["numbering"])
    if abs(own - value) > VALUE_TOL:
        problems.append(f"value {value!r} is not the value {own!r} of its own numbering")
    if ref.exact and abs(value - ref.value) > VALUE_TOL:
        problems.append(f"value {value!r}, reference {ref.value!r}")
    if inst.closed_form is not None and abs(value - inst.closed_form) > VALUE_TOL:
        problems.append(f"value {value!r}, closed form {inst.closed_form!r}")
    if not ref.exact:
        perms = np.argsort(rng.random((SAMPLED_NUMBERINGS, inst.size)), axis=1)
        mean = float(np.mean(inst.cost_values))
        sampled = mean - trace_norms(effective_operators(inst, perms)) / 2
        if float(sampled.min()) < value - VALUE_TOL:
            problems.append(f"a sampled numbering reaches {sampled.min()!r} < {value!r}")
    if exit_code == 0:
        problems += _check_measurement(inst, doc)
    return problems


def _check_measurement(inst: Instance, doc: dict) -> list[str]:
    from guesswork import cost_function, serialize, validate
    from guesswork.engine import guesswork_value

    measurement = serialize.measurement_from_json(doc["measurement"], inst.dim)
    e = validate(list(inst.states))
    achieved = guesswork_value(e, cost_function(inst.cost_values), measurement)
    if abs(achieved - doc["value"]) > VALUE_TOL:
        return [f"measurement achieves {achieved!r}, report says {doc['value']!r}"]
    return []


def check_simulate(inst: Instance, solve_value: float, exit_code: int, text: str) -> list[str]:
    """Problems with one ``simulate --out`` result against the checked solve value."""
    if exit_code != 0:
        return [f"simulate exit {exit_code}, expected 0"]
    doc = json.loads(text)
    problems = []
    if doc["samples"] != inst.simulate_samples:
        problems.append(f"simulated {doc['samples']} samples, asked {inst.simulate_samples}")
    if abs(doc["analytic"] - solve_value) > VALUE_TOL:
        problems.append(f"analytic {doc['analytic']!r}, solve gave {solve_value!r}")
    gap = abs(doc["estimate"] - doc["analytic"])
    if doc["std_error"] is None or gap > Z_LIMIT * doc["std_error"]:
        problems.append(f"estimate {doc['estimate']!r} is {gap!r} from the analytic value")
    return problems
