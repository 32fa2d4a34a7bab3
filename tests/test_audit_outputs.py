"""scripts/audit_outputs.py digests every benchmark operation the same way on each run."""

import os
import subprocess
import sys
from pathlib import Path

import guesswork

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "audit_outputs.py"


def test_the_audit_is_stable_and_covers_every_operation_of_a_seed():
    source = os.path.dirname(os.path.dirname(guesswork.__file__))
    env = {**os.environ, "PYTHONPATH": source}
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPT), "--seeds", "1"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    # 31 solves and 5 simulates over the three workloads, then the total
    assert len(lines) == 37
    assert lines[-1].endswith("  total")
    assert len({line.split("  ", 1)[1] for line in lines[:-1]}) == 36
