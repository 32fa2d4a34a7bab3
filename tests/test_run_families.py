"""scripts/run_families.py checks the paper's closed form against the exact solver."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_families.py"


@pytest.fixture
def families(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_families", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--m-max", "6"])
    return module


def test_the_closed_form_matches_the_exact_solver_on_every_row(families, capsys):
    assert families.main() == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda c, bloch: None,  # no benevolent structure found
        lambda c, bloch: ((1,) * c.size, 2.0),  # an objective above the exact one
    ],
)
def test_a_missed_row_exits_1(families, monkeypatch, capsys, closed_form):
    monkeypatch.setattr(families, "benevolent_solve", closed_form)
    assert families.main() == 1
    assert "misses the exact objective" in capsys.readouterr().err
