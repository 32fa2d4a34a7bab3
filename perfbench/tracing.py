"""Spans around the program's public functions, recorded from the benchmark's side.

``Tracer.installed()`` rebinds every public function of the seven layer
modules to a timing wrapper in every ``guesswork`` namespace that holds it,
including names brought in with ``from .x import y``, and puts the originals
back on exit.  Private helpers are not wrapped, so their time is the self
time of the public function that calls them.  Only traced runs import this
module.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "serialize", "ensembles", "costs", "operators", "engine", "qap")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Extra facts kept on a span, from the call's arguments and result.
ANNOTATE = {
    "qap.brute_force_solve": lambda a, k, r: _arg(a, k, 0, "inst").size,
    "engine.tracenorm_argmax": lambda a, k, r: len(_arg(a, k, 0, "e").states),
    "engine.condition_check": lambda a, k, r: bool(r),
    "qap.benevolent_solve": lambda a, k, r: r is not None,
    "engine.simulate": lambda a, k, r: int(_arg(a, k, 3, "samples")),
    "serialize.dumps": lambda a, k, r: len(r.encode()),
}

NUMBERING_FUNCTIONS = ("costs.require_numbering", "costs.compose", "costs.invert")


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Spans as [name, start, end, parent index, operation id, annotation]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), math.nan, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if annotate is not None:
                record[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"guesswork.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "guesswork" and not module_name.startswith("guesswork."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, handle)


def layer_metrics(spans: list[list], passes: int, unverified_ops: set) -> dict[str, float]:
    """Per-pass layer metrics derived from the spans of ``passes`` identical passes.

    ``unverified_ops`` holds the operation ids of solves that exited 3.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)  # inclusive seconds by function
    own = defaultdict(float)  # self seconds by function
    calls = defaultdict(int)
    extras = defaultdict(list)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    load = dump = 0.0
    tracenorm_by_op = defaultdict(int)
    for index, (name, start, end, parent, op, extra) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        total[name] += duration
        own[name] += duration - child_time[index]
        calls[name] += 1
        layer_self[layer] += duration - child_time[index]
        layer_calls[layer] += 1
        if extra is not None:
            extras[name].append(extra)
        if layer == "serialize" and (parent < 0 or not spans[parent][0].startswith("serialize.")):
            if name.endswith("_from_json"):
                load += duration
            else:
                dump += duration
        if name == "engine.tracenorm_argmax":
            tracenorm_by_op[tuple(op)] += 1

    def frac(name):
        values = extras[name]
        return sum(values) / len(values) if values else 0.0

    per_unverified = [tracenorm_by_op[op] for op in unverified_ops]
    metrics = {
        "qap.brute_force_solve_self_s": own["qap.brute_force_solve"],
        "qap.brute_force_calls": calls["qap.brute_force_solve"],
        "qap.numberings_evaluated": sum(math.factorial(m) for m in extras["qap.brute_force_solve"]),
        "qap.benevolent_solve_s": total["qap.benevolent_solve"],
        "qap.find_benevolent_permutation_self_s": own["qap.find_benevolent_permutation"],
        "qap.is_benevolent_calls": calls["qap.is_benevolent"],
        "engine.condition_check_self_s": own["engine.condition_check"],
        "engine.condition_check_calls": calls["engine.condition_check"],
        "engine.tracenorm_argmax_self_s": own["engine.tracenorm_argmax"],
        "engine.tracenorm_argmax_calls": calls["engine.tracenorm_argmax"],
        "engine.tracenorm_numberings": sum(
            math.factorial(m) for m in extras["engine.tracenorm_argmax"]
        ),
        "engine.min_guesswork_qubit_s": total["engine.min_guesswork_qubit"],
        "engine.min_guesswork_general_s": total["engine.min_guesswork_general"],
        "engine.measurement_s": total["engine.optimal_two_outcome_measurement"],
        "engine.zigzag_candidate_s": total["engine.zigzag_candidate"],
        "engine.simulate_self_s": own["engine.simulate"],
        "engine.simulate_samples": sum(extras["engine.simulate"]),
        "serialize.load_s": load,
        "serialize.dump_s": dump,
        "serialize.bytes_written": sum(extras["serialize.dumps"]),
        "ensembles.validate_s": total["ensembles.validate"],
        "ensembles.validate_calls": calls["ensembles.validate"],
        "cli.self_s": layer_self["cli"],
        "operators.self_s": layer_self["operators"],
        "operators.calls": layer_calls["operators"],
        "costs.numbering_calls": sum(calls[name] for name in NUMBERING_FUNCTIONS),
        "costs.self_s": layer_self["costs"],
    }
    metrics = {name: value / passes for name, value in metrics.items()}
    # Ratios are not scaled by the pass count.
    metrics["qap.benevolent_hit_frac"] = frac("qap.benevolent_solve")
    metrics["engine.condition_pass_frac"] = frac("engine.condition_check")
    metrics["engine.tracenorm_calls_per_unverified_solve"] = (
        sum(per_unverified) / len(per_unverified) if per_unverified else 0.0
    )
    return metrics
