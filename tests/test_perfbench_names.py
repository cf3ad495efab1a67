"""The benchmark wraps program functions by name and calls them with fixed
argument shapes; keep those names and shapes alive.  Reads perfbench/ only."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import sectorbalance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
INPUTS = PERFBENCH / "inputs.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_of_the_package():
    targets = _load_tracing().TARGETS
    missing = [
        f"{layer}.{name}"
        for layer, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sectorbalance.{layer}"), name, None))
    ]
    assert not missing, missing


def _gate_sizes():
    """The literal ``GATE_SIZES`` of perfbench/inputs.py, read without running it."""
    for node in ast.parse(INPUTS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GATE_SIZES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/inputs.py defines no GATE_SIZES")


# Placeholder arguments: binding checks only the call's shape, never its values.
_CALL_SHAPES = [
    ("sweep_grid", ("cfg", "angles", "axes"), {}),
    ("SolveRequest", (), {"cfg": "cfg", "fixed_angles": "fixed", "free_index": 0,
                          "bracket": "bracket"}),
    ("solve_pole_radius", ("angles", "theta0", "a", "case"), {}),
    ("scan_sign_change", ("f", "lo", "hi"), {}),
    ("case_residual", ("cfg", "angles"), {}),
]


@pytest.mark.parametrize("name, args, kwargs", _CALL_SHAPES,
                         ids=[name for name, _, _ in _CALL_SHAPES])
def test_benchmark_call_shapes_bind(name, args, kwargs):
    inspect.signature(getattr(sectorbalance, name)).bind(*args, **kwargs)


def test_gate_sizes_bind_to_run_checks():
    inspect.signature(sectorbalance.run_checks).bind(**_gate_sizes())
