"""Spans around the program's public functions, kept in memory.

The benchmark wraps the functions from outside; the program itself is not
changed.  A function must be replaced in every module that holds a
reference to it: ``solver`` does ``from .oracle import quadrature_residual``,
so a wrapper placed only on ``oracle`` would never see the cross-check.

A span is ``(id, parent id, name, start ns, end ns, work)``, where work is
the samples a Monte Carlo call was asked for (its ``spec.samples``), the
points a sweep evaluated or the characters a report writer produced, and 0
elsewhere.  A layer's self time is the summed duration of its spans minus
the part covered by their child spans.  ``radial_distance`` and ``substituted_angle`` are left unwrapped:
they are called several times inside every closed form, and their time
counts as self time of whichever function called them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped by the tracer, grouped by layer.
TARGETS = {
    "geometry": ("sector_area_closed", "area_report", "build_partition", "opposite_pair_sum"),
    "conditions": ("case_residual", "residual_four", "residual_six", "residual_eight",
                   "residual_general", "special_case_four", "special_case_six",
                   "special_case_eight"),
    "oracle": ("quadrature_area", "quadrature_report", "quadrature_residual", "montecarlo_area"),
    "solver": ("find_root", "scan_sign_change", "feasible_interval", "solve_free_angle",
               "solve_pole_radius", "sweep_grid"),
    "verify": ("run_checks", "check_oracle_equivalence", "check_total_area",
               "check_pair_identity", "check_centered_conditions", "check_pizza_cancellation",
               "check_four_sector_axis", "check_six_sector_audit", "check_solver_soundness",
               "check_determinism"),
    "serialize": ("write_report", "read_config", "write_config"),
    "render": ("render_svg",),
    "cli": ("run_cli",),
}

# verify function -> the name its CheckResult carries.
CHECK_NAMES = {
    "check_oracle_equivalence": "oracle_equivalence",
    "check_total_area": "total_area_identity",
    "check_pair_identity": "opposite_pair_identity",
    "check_centered_conditions": "centered_conditions",
    "check_pizza_cancellation": "pizza_cancellation",
    "check_four_sector_axis": "four_sector_axis_balance",
    "check_six_sector_audit": "six_sector_erratum_audit",
    "check_solver_soundness": "solver_soundness",
    "check_determinism": "output_determinism",
}
ORACLE_EQUIVALENCE_BOUND_S = 10.0

_QUADRATURE = {"quadrature_area", "quadrature_report", "quadrature_residual"}
_SOLVES = {"solve_free_angle", "solve_pole_radius"}
_LAYER_OF = {name: layer for layer, names in TARGETS.items() for name in names}

# Additive per-layer metrics, computed from spans and counters.
ADDITIVE = (
    "oracle.montecarlo.s", "oracle.montecarlo.samples",
    "oracle.quadrature.s", "oracle.quadrature.sectors",
    "geometry.sector_area_closed.calls", "geometry.closed_forms.s",
    "conditions.case_residual.calls", "conditions.case_residual.s",
    "conditions.residual_general.calls",
    "solver.sweep_grid.s", "solver.sweep.points", "solver.sweep.nan_points",
    "solver.find_root.s", "solver.find_root.evals", "solver.scan_sign_change.evals",
    "solver.crosscheck.s",
    *(f"verify.{name}.s" for name in CHECK_NAMES.values()),
    "serialize.write_report.s", "serialize.bytes",
    "render.render_svg.s",
)


def replace_everywhere(module, name: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Replace ``module.name`` in every loaded module of the package that holds it.

    Returns the ``(module, attribute, original)`` triples needed to undo it.
    """
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    undo = []
    package = module.__name__.split(".")[0]
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Tracer:
    """Records spans and counters while installed; call ``take()`` per pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list = []

    def install(self) -> None:
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"sectorbalance.{layer}")
            for name in names:
                self._undo += replace_everywhere(module, name, lambda fn, n=name: self._wrap(n, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def take(self):
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _counting(self, f, key: str):
        counts = self.counts

        def counted(x):
            counts[key] += 1
            return f(x)

        return counted

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if name in ("find_root", "scan_sign_change"):
                args = (tracer._counting(args[0], f"solver.{name}.evals"), *args[1:])
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            work = 0
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, work))
            if name == "montecarlo_area":
                work = inspect.signature(fn).bind(*args, **kwargs).arguments["spec"].samples
            elif name == "sweep_grid":
                work = len(result.values)
                tracer.counts["solver.sweep.nan_points"] += sum(1 for v in result.values if v != v)
            elif name == "write_report":
                work = len(result.encode())
            if work:
                tracer.spans[-1] = (sid, parent, name, start, end, work)
            return result

        traced.__wrapped__ = fn
        return traced


def aggregate(spans, counts) -> dict[str, float]:
    """Additive per-layer numbers from one process's spans of one pass."""
    child_ns: dict[int, int] = defaultdict(int)
    name_of = {}
    for sid, parent, name, start, end, _ in spans:
        child_ns[parent] += end - start
        name_of[sid] = name
    out = dict.fromkeys(ADDITIVE, 0.0)
    calls = Counter()
    for sid, parent, name, start, end, work in spans:
        dur = (end - start) * 1e-9
        self_s = dur - child_ns.get(sid, 0) * 1e-9
        calls[name] += 1
        layer = _LAYER_OF[name]
        if name == "montecarlo_area":
            out["oracle.montecarlo.s"] += self_s
            out["oracle.montecarlo.samples"] += work
        elif name in _QUADRATURE:
            out["oracle.quadrature.s"] += self_s
            if name == "quadrature_residual" and name_of.get(parent) in _SOLVES:
                out["solver.crosscheck.s"] += dur
        elif layer == "geometry":
            out["geometry.closed_forms.s"] += self_s
        elif layer == "conditions":
            out["conditions.case_residual.s"] += self_s
        elif name == "sweep_grid":
            out["solver.sweep_grid.s"] += self_s
            out["solver.sweep.points"] += work
        elif name == "find_root":
            out["solver.find_root.s"] += self_s
        elif name in CHECK_NAMES:
            out[f"verify.{CHECK_NAMES[name]}.s"] += dur
        elif name == "write_report":
            out["serialize.write_report.s"] += dur
            out["serialize.bytes"] += work
        elif name == "render_svg":
            out["render.render_svg.s"] += dur
    out["oracle.quadrature.sectors"] = calls["quadrature_area"]
    out["geometry.sector_area_closed.calls"] = calls["sector_area_closed"]
    out["conditions.case_residual.calls"] = calls["case_residual"]
    out["conditions.residual_general.calls"] = calls["residual_general"]
    for key in ("solver.sweep.nan_points", "solver.find_root.evals",
                "solver.scan_sign_change.evals"):
        out[key] = counts.get(key, 0)
    return out


def work_under(spans, name: str, ancestor: str) -> int:
    """Work of the ``name`` spans that ran inside an ``ancestor`` span."""
    parent_of = {span[0]: span[1] for span in spans}
    name_of = {span[0]: span[2] for span in spans}
    total = 0
    for sid, parent, span_name, _, _, work in spans:
        if span_name != name:
            continue
        while parent and name_of.get(parent) != ancestor:
            parent = parent_of.get(parent, 0)
        if parent:
            total += work
    return total


def add(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def derived(per_pass: dict[str, float]) -> dict[str, float]:
    """Ratios and headroom; 0 where the layer did no work in the pass."""
    out = dict(per_pass)
    samples = per_pass["oracle.montecarlo.samples"]
    sectors = per_pass["oracle.quadrature.sectors"]
    out["oracle.montecarlo.ns_per_sample"] = (
        per_pass["oracle.montecarlo.s"] / samples * 1e9 if samples else 0.0)
    out["oracle.quadrature.us_per_sector"] = (
        per_pass["oracle.quadrature.s"] / sectors * 1e6 if sectors else 0.0)
    elapsed = per_pass["verify.oracle_equivalence.s"]
    out["verify.oracle_equivalence.headroom_s"] = (
        ORACLE_EQUIVALENCE_BOUND_S - elapsed if elapsed else 0.0)
    return out
