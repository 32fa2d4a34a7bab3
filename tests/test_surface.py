"""The library's settable values and source lines, counted as ROADMAP aim 2 counts them.

Over the eight modules below (not ``__init__``), every public function and
class defined in the module (name without a leading ``_``) counts: each
function's parameters, each public method's parameters except ``self``, and
each dataclass's fields.  The source lines are ``wc -l src/guesswork/*.py``,
``__init__`` included.  A change that adds a settable value or a line must
raise the expected count on purpose.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

MODULES = ("cli", "costs", "engine", "ensembles", "errors", "operators", "qap", "serialize")
SETTABLE_VALUES = 104
SOURCE_LINES = 2624


def settable_values(module) -> int:
    count = 0
    for name, obj in vars(module).items():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            count += len(inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if not method_name.startswith("_") and inspect.isfunction(method):
                    count += len(inspect.signature(method).parameters) - 1
            if dataclasses.is_dataclass(obj):
                count += len(dataclasses.fields(obj))
    return count


def test_settable_values_by_the_roadmap_rule():
    modules = [importlib.import_module(f"guesswork.{name}") for name in MODULES]
    assert sum(settable_values(module) for module in modules) == SETTABLE_VALUES


def test_source_lines_by_the_roadmap_count():
    package = Path(importlib.import_module("guesswork").__file__).parent
    assert sum(path.read_bytes().count(b"\n") for path in package.glob("*.py")) == SOURCE_LINES
