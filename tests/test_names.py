"""Names that code outside the package reaches by name must exist.

``perfbench/tracer.py`` wraps package functions through ``getattr``, so a
pruned target would break ``perfbench/run.py --trace 1`` without failing
any other test.
"""

import ast
import importlib
from pathlib import Path

import bsc_estim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, function) pairs of the tracer's TARGETS, read from its
    source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(module.id, name.value)
                    for module, name in (pair.elts for pair in node.value.elts)]
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"bsc_estim.{module}"),
                                       name, None))]
    assert missing == []


def test_every_exported_name_exists():
    assert [name for name in bsc_estim.__all__ if not hasattr(bsc_estim, name)] == []
