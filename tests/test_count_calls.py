"""scripts/count_calls.py counts the calls of every benchmark operation the same way on each run."""

import os
import subprocess
import sys
from pathlib import Path

import guesswork

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_calls.py"


def test_the_call_counts_repeat_and_cover_every_operation_of_a_seed():
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
    # a header, the 31 solves and 5 simulates of the three workloads, then the total
    assert len(lines) == 38
    assert lines[0].split() == ["python", "c", "calls", "numpy", "operation"]
    rows = [line.split(None, 4) for line in lines[1:]]
    assert rows[-1][4] == "total"
    assert len({row[4] for row in rows[:-1]}) == 36
    counts = [[int(n) for n in row[:4]] for row in rows]
    # numpy's Python calls are some of the Python calls: at least eigvalsh's
    # wrapper runs in each operation, as the CLI validates every ensemble
    assert all(
        python > 0 and c > 0 and calls == python + c and 0 < numpy < python
        for python, c, calls, numpy in counts
    )
    assert [sum(column) for column in zip(*counts[:-1])] == counts[-1]
