"""Names that code outside the package reaches by name must exist.

``perfbench/tracer.py`` wraps package functions through ``getattr``, and
its ``LABELS`` read some of their arguments by position and some fields of
their results, so a pruned target, a moved argument or a renamed result
field would break ``perfbench/run.py --trace 1`` without failing any other
test.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

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

# The fields of the returned object that a tracer label reads off its third
# parameter, the traced call's result.
RESULT_READS = {
    "estimators.vector_estimate": ("degenerate",),
    "channel.draw_channel": ("pilot_count",),
    "experiments.load_config": ("sweep_grid",),
}


def _tracer_tree() -> ast.Module:
    return ast.parse(TRACER.read_text(encoding="utf-8"))


def _tracer_assignment(name: str) -> ast.expr:
    """Value of a top-level assignment in the tracer, read from its source
    without importing it."""
    for node in _tracer_tree().body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} assignment in {TRACER}")


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, function) pairs of the tracer's TARGETS."""
    return [(module.id, name.value)
            for module, name in (pair.elts for pair in _tracer_assignment("TARGETS").elts)]


def _label_result_reads() -> dict[str, set[str]]:
    """Attributes each tracer label reads off its result parameter."""
    tree = _tracer_tree()
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    labels = _tracer_assignment("LABELS")
    reads = {}
    for key, value in zip(labels.keys, labels.values):
        label = functions[value.id] if isinstance(value, ast.Name) else value
        result = label.args.args[2].arg
        reads[key.value] = {node.attr for node in ast.walk(label)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == result}
    return reads


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


def test_result_reads_are_fields_of_the_returned_type():
    reads = {target: attrs for target, attrs in _label_result_reads().items() if attrs}
    assert reads == {target: set(attrs) for target, attrs in RESULT_READS.items()}
    for target, attrs in RESULT_READS.items():
        module, name = target.split(".")
        fn = getattr(importlib.import_module(f"bsc_estim.{module}"), name)
        returned = inspect.signature(fn, eval_str=True).return_annotation
        fields = {field.name for field in dataclasses.fields(returned)}
        assert set(attrs) <= fields, target


def test_every_exported_name_exists():
    assert len(set(bsc_estim.__all__)) == len(bsc_estim.__all__)
    assert [name for name in bsc_estim.__all__ if not hasattr(bsc_estim, name)] == []
    # and is the object its home module defines
    assert [name for name in bsc_estim.__all__ if name != "__version__"
            and getattr(bsc_estim, name) is not getattr(importlib.import_module(
                f"bsc_estim.{bsc_estim._EXPORTS[name]}"), name)] == []


def test_dir_lists_every_exported_name():
    assert set(bsc_estim.__all__) <= set(dir(bsc_estim))


def test_unexported_name_is_an_attribute_error():
    # the error that lets ``from bsc_estim import snr`` import the submodule
    with pytest.raises(AttributeError, match="no_such_name"):
        bsc_estim.no_such_name
