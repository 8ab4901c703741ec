"""The package names that the benchmark harness wraps must exist.

``perfbench/spans.py`` replaces each ``(module, attribute)`` of its
``WRAPPED`` table with a traced wrapper, through ``getattr`` on the module.
Some of those names are imported into a module only so that they can be
wrapped there, and a module that drops one breaks every traced benchmark
run.  The table is read from the file, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def wrapped() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of ``WRAPPED`` in ``perfbench/spans.py``."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets):
            return [(module, attribute) for module, attribute, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{SPANS} defines no WRAPPED table")


@pytest.mark.parametrize("module, attribute", wrapped())
def test_wrapped_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"gadkit.{module}"), attribute))
