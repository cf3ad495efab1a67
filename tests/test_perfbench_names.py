"""The benchmark wraps program functions by name, calls them with fixed
argument shapes and runs fixed CLI requests; keep those names, shapes and
requests working.  Reads perfbench/ only."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
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


def test_every_benchmark_grid_matches_per_point_evaluation():
    from test_solver import _per_point_sweep

    gen = _load(INPUTS, "perfbench_inputs")
    cli_grids = dict.fromkeys(call.grid for call in gen.cli_inputs(1) if call.grid is not None)
    grids = [*gen.explore_inputs(1).grids, *cli_grids]
    assert len(cli_grids) == 2 and len(grids) == 24
    for g in grids:
        cfg = sectorbalance.CircleConfig(g.a, g.r0, g.theta0)
        axes = [sectorbalance.SweepAxis(ax.name, ax.lo, ax.hi, ax.count) for ax in g.axes]
        got = sectorbalance.sweep_grid(cfg, g.angles, axes).values
        expected = _per_point_sweep(cfg, g.angles, axes, None)
        assert [v.hex() for v in got] == [v.hex() for v in expected], g


# Applies one benchmark fault in a fresh interpreter (faults keep no undo) and
# reports what the program returns before and after it.
_FAULT_PROBE = """
import json, sys
sys.path[:0] = sys.argv[2:]
import faults
from sectorbalance import ChordFan, CircleConfig, SolverError, SweepAxis
from sectorbalance import conditions, geometry, solver

cfg = CircleConfig(2.0, 0.6, 0.3)
fans = [(-0.2, 1.1), (-0.2, 0.3, 0.8), (0.0, 0.8, 1.3, 2.0)]


def observe():
    seen = {
        "case_residual": [conditions.case_residual(cfg, fan).residual for fan in fans],
        "residual_general": [conditions.residual_general(cfg, ChordFan(fan)).residual
                             for fan in fans],
        "sectors": geometry.area_report(
            cfg, geometry.build_partition(ChordFan(fans[0]))).sector_areas,
    }
    try:
        seen["pole_radius"] = solver.solve_pole_radius((-0.7, 0.7), 0.0, 1.0).root
    except SolverError:
        seen["pole_radius"] = "SolverError"
    try:
        solver.sweep_grid(cfg, fans[0], [SweepAxis("r0", 0.0, 0.5, 3)])
        seen["sweep"] = "returned"
    except RuntimeError as exc:
        seen["sweep"] = str(exc)
    return seen


before = observe()
faults.apply(sys.argv[1])
print(json.dumps({"before": before, "after": observe()}))
"""


def _under_fault(name: str) -> tuple[dict, dict]:
    src = Path(sectorbalance.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE, name, str(src), str(PERFBENCH)],
                          capture_output=True, text=True, check=True, timeout=120)
    seen = json.loads(done.stdout)
    return seen["before"], seen["after"]


def test_residual_shift_reaches_every_two_to_four_chord_residual_and_the_pole_solve():
    before, after = _under_fault("residual-shift")
    shift = 1e-7 * 2.0**2
    for key in ("case_residual", "residual_general"):
        assert [b - a for a, b in zip(before[key], after[key])] == pytest.approx(
            [shift] * 3, rel=1e-6), key
    assert isinstance(before["pole_radius"], float)
    assert after["pole_radius"] == "SolverError"


def test_swap_areas_swaps_the_first_two_sectors():
    before, after = _under_fault("swap-areas")
    s1, s2, *rest = before["sectors"]
    assert after["sectors"] == [s2, s1, *rest]


def test_sweep_raises_makes_every_sweep_raise():
    before, after = _under_fault("sweep-raises")
    assert (before["sweep"], after["sweep"]) == ("returned", "injected fault")
