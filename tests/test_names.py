"""Names that code outside the package reaches by name must exist.

``perfbench/tracer.py`` wraps package functions through ``getattr``, and
its ``LABELS`` read some of their arguments by position, so a pruned target
or a moved argument would break ``perfbench/run.py --trace 1`` without
failing any other test.
"""

import ast
import importlib
import inspect
from pathlib import Path

import bsc_estim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


# The leading parameters that a tracer label reads from ``args`` by position
# (``_arg(args, kwargs, i, name)`` or ``args[:4]``), in order.
POSITIONAL_READS = {
    "channel.draw_channel": ("params", "seed"),
    "snr._mc_samples": ("params", "cfg", "flavors", "trials"),
    "estimators.vector_estimate": ("est",),
    "experiments.write_csv": ("rows", "path"),
}


def _tracer_assignment(name: str) -> ast.expr:
    """Value of a top-level assignment in the tracer, read from its source
    without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} assignment in {TRACER}")


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, function) pairs of the tracer's TARGETS."""
    return [(module.id, name.value)
            for module, name in (pair.elts for pair in _tracer_assignment("TARGETS").elts)]


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"bsc_estim.{module}"),
                                       name, None))]
    assert missing == []


def test_positional_reads_keep_position_and_name():
    labelled = {key.value for key in _tracer_assignment("LABELS").keys}
    assert set(POSITIONAL_READS) <= labelled
    for target, names in POSITIONAL_READS.items():
        module, name = target.split(".")
        fn = getattr(importlib.import_module(f"bsc_estim.{module}"), name)
        params = list(inspect.signature(fn).parameters.values())[:len(names)]
        assert [p.name for p in params] == list(names), target
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), target


def test_every_exported_name_exists():
    assert [name for name in bsc_estim.__all__ if not hasattr(bsc_estim, name)] == []
