"""The benchmark wraps program functions by name, calls them with fixed
argument shapes and runs fixed CLI requests; keep those names, shapes and
requests working.  Reads perfbench/ only."""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import sectorbalance
from sectorbalance.cli import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
INPUTS = PERFBENCH / "inputs.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_of_the_package():
    targets = _load(TRACING, "perfbench_tracing").TARGETS
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


def _as_config(argv):
    """Split a benchmark CLI call into a config document holding its circle
    and chords, and the rest of its flags."""
    doc, rest = {}, []
    args = iter(argv)
    for arg in args:
        if arg in ("--a", "--r0", "--theta0"):
            doc[arg[2:]] = float(next(args))
        elif arg.startswith("--chords="):
            doc["chords"] = [float(t) for t in arg[len("--chords="):].split(",")]
        else:
            rest.append(arg)
    return doc, rest


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_cli_calls_succeed_alike_from_flags_and_config(capsys, tmp_path, seed):
    path = tmp_path / "run.json"
    for call in _load(INPUTS, "perfbench_inputs").cli_inputs(seed):
        assert run_cli(list(call.argv)) == 0, call.argv
        out = capsys.readouterr().out
        doc, rest = _as_config(call.argv)
        assert sorted(doc) == ["a", "chords", "r0", "theta0"], call.argv
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli([*rest, "--config", str(path)]) == 0, call.argv
        assert capsys.readouterr().out == out, call.argv
