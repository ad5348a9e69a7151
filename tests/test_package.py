import ast
import importlib
import inspect
from pathlib import Path

import staircase
from staircase.series import ExactRing, JetRing

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def _conv_args_source():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_conv_args":
            return node
    raise AssertionError("bench/tracer.py defines no _conv_args")


def test_tracer_maps_conv_into_arguments_by_the_kernel_signature():
    # the tracer names conv_into's positional arguments by their place, so a
    # reordered kernel signature would silently corrupt its counters
    func = _conv_args_source()
    names = next(ast.literal_eval(node.value) for node in ast.walk(func)
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "names")
    read_with_default = {
        node.args[0].value for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get" and getattr(node.func.value, "id", None) == "values"}
    for kernel in (ExactRing.conv_into, JetRing.conv_into):
        params = tuple(inspect.signature(kernel).parameters)
        assert names[:len(params)] == params, kernel.__qualname__
        assert set(names[len(params):]) <= read_with_default, kernel.__qualname__


def _resolves(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_benchmark_imports_from_src_resolve():
    # the workloads and checks import from staircase inside functions; read
    # them without running, so a rename in src/ fails here and not only in
    # every operation of a benchmark run
    missing = []
    for script in ("workloads.py", "checks.py"):
        for node in ast.walk(ast.parse((BENCH / script).read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "staircase"):
                missing += [(script, node.module, alias.name) for alias in node.names
                            if not _resolves(node.module, alias.name)]
    assert missing == []


def test_benchmark_calls_bind():
    # meander-moments passes jet_order=1, and the workloads solve by position
    from staircase import feq, moments
    from staircase.series import jet_ring

    inspect.signature(moments.convergence_report).bind("full", 1, [64], jet_order=1)
    inspect.signature(feq.solve_series).bind("full", 64, jet_ring(1))
