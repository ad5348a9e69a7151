import ast
import importlib
from pathlib import Path

import staircase

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    assert [name for name in staircase.__all__ if not hasattr(staircase, name)] == []


def _tracer_targets():
    """The TARGETS tuple of the benchmark's tracer, read without running it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_function_exists():
    # the traced benchmark wraps these names; a rename or deletion in src/
    # would break `bench/run.py --trace 1`
    missing = []
    for module_name, class_name, function in _tracer_targets():
        module = importlib.import_module("staircase." + module_name)
        if class_name is None:
            found = callable(getattr(module, function, None))
        else:
            # the tracer patches the class's own attribute, not an inherited one
            found = function in vars(getattr(module, class_name, object))
        if not found:
            missing.append((module_name, class_name, function))
    assert missing == []
