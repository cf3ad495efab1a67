"""Command-line front end: areas, residual, solve, sweep, render, verify.

Exit codes: 0 success, 1 usage error, 2 domain error (invalid circle, fan,
or interval), 3 solver or tolerance failure.  Angles are radians unless
``--degrees`` is given, which converts command-line angle flags at the
boundary; reports always use radians.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

from .conditions import (
    CASE_EIGHT,
    CASE_FOUR,
    CASE_GENERAL,
    CASE_SIX,
    VARIANT_AS_PRINTED,
    VARIANT_CORRECTED,
    case_residual,
    resolve_case,
    residual_six,
)
from .geometry import (
    AreaReport,
    ChordFan,
    CircleConfig,
    DomainError,
    area_report,
    build_partition,
)
from .oracle import (
    MonteCarloSpec,
    QuadratureError,
    QuadratureSpec,
    default_quadrature_spec,
    montecarlo_area,
    quadrature_report,
    quadrature_residual,
)
from .render import render_svg
from .serialize import ConfigError, Report, RunConfig, _config_fields, write_report
from .solver import (
    DEFAULT_ROOT_TOL,
    SolveRequest,
    SolverError,
    SweepAxis,
    free_angle_brackets,
    solve_free_angle,
    solve_pole_radius,
    sweep_grid,
)
from .verify import run_checks

_CLI_CASES = {
    "four": CASE_FOUR,
    "six": CASE_SIX,
    "eight": CASE_EIGHT,
    "general": CASE_GENERAL,
}

_DEG = math.pi / 180.0


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for domain errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _parse_grid_axis(text: str) -> SweepAxis:
    head, sep, tail = text.partition("=")
    parts = tail.split(":")
    if not sep or len(parts) != 3:
        raise ConfigError(f"--grid expects axis=lo:hi:n, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--grid expects numeric lo:hi:n, got {text!r}") from exc
    return SweepAxis(name=head, lo=lo, hi=hi, count=count)


def _add_circle_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, help="circle radius")
    p.add_argument("--r0", type=float, help="pole-to-centre distance (default 0)")
    p.add_argument("--theta0", type=float, help="direction of the centre from the pole (default 0)")
    p.add_argument("--chords", help="comma-separated chord base angles")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--degrees", action="store_true", help="interpret angle flags in degrees")


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _resolved_inputs(args) -> RunConfig:
    """Merge defaults, the config file's fields and the flags given, in that
    order, into one run request; only the merged request is validated."""
    fields = {"a": None, "r0": 0.0, "theta0": 0.0, "chords": None,
              "mode": "closed", "tol": None, "seed": 0}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        fields.update(_config_fields(text))

    scale = _DEG if args.degrees else 1.0
    flags = {name: getattr(args, name, None) for name in fields}  # each flag's dest is a field
    if args.theta0 is not None:
        flags["theta0"] = args.theta0 * scale
    if args.chords is not None:
        flags["chords"] = tuple(t * scale for t in _parse_floats(args.chords, "--chords"))
    fields.update((name, value) for name, value in flags.items() if value is not None)

    if fields["a"] is None:
        raise ConfigError("missing circle radius: pass --a or --config")
    if fields["chords"] is None:
        raise ConfigError("missing chord angles: pass --chords or --config")
    return RunConfig(CircleConfig(fields["a"], fields["r0"], fields["theta0"]),
                     fields["chords"], fields["mode"], fields["tol"], fields["seed"])


def _quad_spec(rc: RunConfig) -> QuadratureSpec:
    return default_quadrature_spec(rc.circle) if rc.tol is None else QuadratureSpec(abs_tol=rc.tol)


def _circle_fields(rc: RunConfig) -> dict:
    cfg = rc.circle
    return {"a": cfg.a, "r0": cfg.r0, "theta0": cfg.theta0, "chords": list(rc.chords)}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write --out file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_report(args, payload: dict, header: tuple[str, ...], rows) -> None:
    """Write ``payload`` as JSON, or ``rows`` under ``header`` as CSV.

    A row that is a dict is one of the payload's records, read by header key.
    """
    rows = tuple(tuple(row[key] for key in header) if isinstance(row, dict) else row
                 for row in rows)
    _emit(write_report(Report(payload, header, rows), args.format), args.out)


def _case_tag(args) -> str | None:
    return _CLI_CASES[args.case] if args.case else None


def _cmd_areas(args) -> int:
    rc = _resolved_inputs(args)
    part = build_partition(ChordFan(rc.chords))

    payload = {"command": "areas", "mode": rc.mode, **_circle_fields(rc)}
    extras = itertools.repeat({})
    if rc.mode == "montecarlo":
        spec = MonteCarloSpec(samples=args.samples, seed=rc.seed)
        estimates = montecarlo_area(rc.circle, part, spec)
        payload["samples"] = spec.samples
        payload["seed"] = spec.seed
        report = AreaReport.from_areas(est for est, _ in estimates)
        extras = ({"stderr": se} for _, se in estimates)
    elif rc.mode == "quadrature":
        report = quadrature_report(rc.circle, part, _quad_spec(rc))
    else:  # closed
        report = area_report(rc.circle, part)

    sectors = zip(part.sectors, report.sector_areas, extras)
    payload["sectors"] = [
        {"index": i, "theta_lo": lo, "theta_hi": hi, "area": area, **extra,
         "parity": "odd" if i % 2 else "even"}
        for i, ((lo, hi), area, extra) in enumerate(sectors, start=1)
    ]
    payload["odd_sum"] = report.odd_sum
    payload["even_sum"] = report.even_sum
    payload["total"] = report.total
    # Monte Carlo's stderr key stays JSON-only.
    _emit_report(args, payload, ("index", "theta_lo", "theta_hi", "area", "parity"),
                 payload["sectors"])
    return 0


def _cmd_residual(args) -> int:
    rc = _resolved_inputs(args)
    cfg, chords, mode = rc.circle, rc.chords, rc.mode
    closed = case_residual(cfg, chords, _case_tag(args))
    if mode not in ("closed", "quadrature"):
        raise ConfigError(f"residual does not support mode {mode!r}")
    # The closed forms' domain errors name their cause more precisely than
    # the quadrature's, so they are raised first.
    printed = (residual_six(cfg, *chords, variant=VARIANT_AS_PRINTED)
               if args.audit and closed.case_tag == CASE_SIX else None)
    quad = (quadrature_residual(cfg, chords, _quad_spec(rc))
            if mode == "quadrature" or args.audit else None)
    value = quad if mode == "quadrature" else closed.residual

    payload = {
        "command": "residual",
        "case": closed.case_tag,
        "variant": closed.variant,
        "mode": mode,
        **_circle_fields(rc),
        "residual": value,
    }
    rows = [(closed.case_tag, closed.variant, value)]
    if args.audit:
        audit = {VARIANT_CORRECTED: closed.residual, "quadrature": quad}
        if printed is not None:
            audit[VARIANT_AS_PRINTED] = printed.residual
        payload["audit"] = audit
        rows.extend((closed.case_tag, variant, v) for variant, v in audit.items())
    _emit_report(args, payload, ("case", "variant", "residual"), rows)
    return 0


def _cmd_solve(args) -> int:
    rc = _resolved_inputs(args)
    cfg, chords = rc.circle, rc.chords
    case_tag = resolve_case(_case_tag(args), len(chords))
    tol = rc.tol if rc.tol is not None else DEFAULT_ROOT_TOL
    scale = _DEG if args.degrees else 1.0

    if args.free_index is not None:
        k = args.free_index
        if not 1 <= k <= len(chords):
            raise ConfigError(f"--free-index must be in 1..{len(chords)}, got {k}")
        fixed = chords[: k - 1] + chords[k:]
        if args.bracket is not None:
            ends = _parse_floats(args.bracket, "--bracket")
            if len(ends) != 2:
                raise ConfigError(f"--bracket expects lo,hi, got {args.bracket!r}")
            bracket = (ends[0] * scale, ends[1] * scale)
        else:
            bracket = free_angle_brackets(cfg, fixed, k - 1)[0]  # the lowest root
        outcome = solve_free_angle(
            SolveRequest(cfg=cfg, fixed_angles=fixed, free_index=k - 1,
                         bracket=bracket, tol=tol, case_tag=case_tag)
        )
        free_name = f"theta{k}"
    else:
        outcome = solve_pole_radius(chords, cfg.theta0, cfg.a, case_tag, tol)
        free_name, bracket = "r0", None

    payload = {
        "command": "solve",
        "case": case_tag,
        "free_parameter": free_name,
        "bracket": list(bracket) if bracket else None,
        **_circle_fields(rc),
        "root": outcome.root,
        "residual_at_root": outcome.residual_at_root,
        "iterations": outcome.iterations,
        "oracle_check": outcome.oracle_check,
    }
    _emit_report(args, payload,
                 ("free_parameter", "root", "residual_at_root", "iterations", "oracle_check"),
                 [payload])
    return 0


def _cmd_sweep(args) -> int:
    rc = _resolved_inputs(args)
    case_tag = _case_tag(args)
    if not args.grid:
        raise ConfigError("sweep needs at least one --grid axis=lo:hi:n")
    axes = []
    for text in args.grid:
        ax = _parse_grid_axis(text)
        if args.degrees and ax.name.startswith("theta"):
            ax = SweepAxis(name=ax.name, lo=ax.lo * _DEG, hi=ax.hi * _DEG, count=ax.count)
        axes.append(ax)
    grid = sweep_grid(rc.circle, rc.chords, axes, case_tag)

    payload = {
        "command": "sweep",
        "case": resolve_case(case_tag, len(rc.chords)),
        **_circle_fields(rc),
        "axes": [{"name": ax.name, "lo": ax.lo, "hi": ax.hi, "count": ax.count}
                 for ax in grid.axes],
        "values": list(grid.values),
    }
    # Axis names may repeat, so the CSV rows cannot be read from dicts.
    coords = itertools.product(*(ax.grid_values() for ax in grid.axes))
    _emit_report(args, payload, tuple(ax.name for ax in grid.axes) + ("residual",),
                 [(*point, value) for point, value in zip(coords, grid.values)])
    return 0


def _cmd_render(args) -> int:
    rc = _resolved_inputs(args)
    part = build_partition(ChordFan(rc.chords))
    _emit(render_svg(rc.circle, part, area_report(rc.circle, part)), args.out)
    return 0


def _cmd_verify(args) -> int:
    trials = args.trials
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    spec = MonteCarloSpec(samples=args.samples, seed=args.seed if args.seed is not None else 0)
    results = run_checks(
        seed=spec.seed,
        trials=trials,
        poles=max(4, trials // 10),
        solver_trials=max(5, trials // 20),
        mc_samples=spec.samples,
    )
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}", file=sys.stderr)
    payload = {
        "command": "verify",
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit_report(args, payload, ("name", "passed", "detail"), payload["checks"])
    return 0 if payload["passed"] else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="sectorbalance",
                     description="Sector areas and equal-area balance conditions "
                                 "for chord fans through an interior pole.")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_areas = sub.add_parser("areas", help="per-sector areas and alternating sums")
    _add_circle_opts(p_areas)
    _add_output_opts(p_areas)
    p_areas.add_argument("--mode", choices=("closed", "quadrature", "montecarlo"))
    p_areas.add_argument("--tol", type=float, help="quadrature absolute tolerance")
    p_areas.add_argument("--seed", type=int, help="Monte Carlo seed")
    p_areas.add_argument("--samples", type=int, default=1_000_000)
    p_areas.set_defaults(handler=_cmd_areas)

    p_res = sub.add_parser("residual", help="balance residual of a fan")
    _add_circle_opts(p_res)
    _add_output_opts(p_res)
    p_res.add_argument("--case", choices=tuple(_CLI_CASES))
    p_res.add_argument("--mode", choices=("closed", "quadrature"))
    p_res.add_argument("--tol", type=float, help="quadrature absolute tolerance")
    p_res.add_argument("--audit", action="store_true",
                       help="add corrected/as-printed/quadrature comparison")
    p_res.set_defaults(handler=_cmd_residual)

    p_solve = sub.add_parser("solve", help="solve for a balancing angle or pole radius")
    _add_circle_opts(p_solve)
    _add_output_opts(p_solve)
    p_solve.add_argument("--case", choices=tuple(_CLI_CASES))
    p_solve.add_argument("--free-index", type=int, dest="free_index",
                         help="1-based chord angle to free; reports the lowest root unless "
                              "--bracket is given; omit to solve for r0, which needs an "
                              "even chord count")
    p_solve.add_argument("--bracket",
                         help="lo,hi bracket for the freed angle (default: the lowest "
                              "of the exact brackets of the feasible interval)")
    p_solve.add_argument("--tol", type=float, help=f"root tolerance (default {DEFAULT_ROOT_TOL:g})")
    p_solve.set_defaults(handler=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="residual grid over r0/theta0/theta<k> axes")
    _add_circle_opts(p_sweep)
    _add_output_opts(p_sweep)
    p_sweep.add_argument("--case", choices=tuple(_CLI_CASES))
    p_sweep.add_argument("--grid", action="append",
                         help="axis=lo:hi:n (repeatable; axes r0, theta0, theta<k>)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_render = sub.add_parser("render", help="standalone SVG diagram of the fan")
    _add_circle_opts(p_render)
    p_render.add_argument("--out", help="write the SVG here instead of stdout")
    p_render.set_defaults(handler=_cmd_render)

    p_verify = sub.add_parser("verify", help="run the oracle-equivalence and audit battery")
    _add_output_opts(p_verify)
    p_verify.add_argument("--seed", type=int, help="battery seed (default 0)")
    p_verify.add_argument("--trials", type=int, default=1000,
                          help="randomized trials per identity check")
    p_verify.add_argument("--samples", type=int, default=1_000_000,
                          help="Monte Carlo samples per pole")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"sectorbalance: error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"sectorbalance: domain error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"sectorbalance: solver error: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"sectorbalance: quadrature error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())
