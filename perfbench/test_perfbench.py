"""Self-test of the benchmark at smoke size (one pass per run).

Run from the repository root:
    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


_RESULTS: dict = {}


def _result(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _RESULTS:
        proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        _RESULTS[key] = json.loads(proc.stdout.splitlines()[-1])
    return _RESULTS[key]


def _check_result(result: dict, spec_metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = _result(workload, 0)
    _check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_match_spans(workload):
    metrics = {k: m["value"] for k, m in _result(workload, 1)["metrics"].items()}
    _check_result(_result(workload, 1), SPEC["per_layer"])
    doc = json.loads((ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.json").read_text())
    passes, spans = doc["passes"], doc["spans"]
    brute = [s[5] for s in spans if s[0] == "qap.brute_force_solve"]
    assert metrics["qap.brute_force_calls"] == len(brute) / passes
    assert metrics["qap.numberings_evaluated"] == sum(math.factorial(m) for m in brute) / passes
    sweeps = [s[5] for s in spans if s[0] == "engine.tracenorm_argmax"]
    assert metrics["engine.tracenorm_numberings"] == sum(math.factorial(m) for m in sweeps) / passes
    assert all(s[1] <= s[2] for s in spans)
    assert all(spans[s[3]][1] <= s[1] and s[2] <= spans[s[3]][2] for s in spans if s[3] >= 0)


def test_general_certify_bypasses_qap_and_sweeps_unverified_solves():
    metrics = {k: m["value"] for k, m in _result("general_certify", 1)["metrics"].items()}
    assert metrics["qap.brute_force_calls"] == 0
    assert metrics["qap.numberings_evaluated"] == 0
    assert metrics["engine.tracenorm_calls_per_unverified_solve"] >= 1


def test_tracer_restores_every_wrapped_function(tmp_path):
    import guesswork
    import guesswork.cli as cli

    modules = [m for n, m in sys.modules.items() if n == "guesswork" or n.startswith("guesswork.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    inst = workloads.build("structured_large", SEED)[0]
    workloads.write([inst], tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main is not before[("guesswork.cli", "main")]
        assert cli.tracenorm_argmax is not before[("guesswork.cli", "tracenorm_argmax")]
        assert guesswork.engine.benevolent_solve is not before[("guesswork.engine", "benevolent_solve")]
        argv = ["solve", "--ensemble", str(workloads.ensemble_path(tmp_path, inst))]
        assert cli.main(argv) == 0
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "serialize.ensemble_from_json", "ensembles.validate",
            "qap.benevolent_solve", "engine.min_guesswork_qubit"} <= names


def test_untraced_run_never_imports_the_tracer():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import run; "
        "assert run.main(['--workload', 'structured_large', '--seed', '7', '--seconds', '1']) == 0; "
        "assert 'tracing' not in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_seeded_inputs():
    for name in WORKLOADS:
        first, again = workloads.build(name, SEED), workloads.build(name, SEED)
        other = workloads.build(name, SEED + 1)
        assert [i.name for i in first] == [i.name for i in other]
        assert all((a.states == b.states).all() and a.cost == b.cost for a, b in zip(first, again))
        assert any((a.states != b.states).any() for a, b in zip(first, other))


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
