"""Self-verification battery: oracle equivalence, identities, and the audit.

Each check pits the closed forms against an independent route (adaptive
quadrature, Monte Carlo, or an exact identity) at a pinned tolerance and
reports one pass/fail result.  The battery is the CI gate behind the
``verify`` subcommand; all randomness is seeded, so outcomes are
reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

from .conditions import (
    CASE_FOUR,
    VARIANT_AS_PRINTED,
    residual_eight,
    residual_four,
    residual_six,
)
from .geometry import (
    ChordFan,
    CircleConfig,
    area_report,
    build_partition,
    opposite_pair_sum,
    sector_area_closed,
)
from .oracle import (
    MonteCarloSpec,
    default_quadrature_spec,
    montecarlo_area,
    quadrature_area,
    quadrature_residual,
)
from .solver import (
    SolveRequest,
    SolverError,
    find_root,
    free_angle_brackets,
    solve_free_angle,
    solve_pole_radius,
)

PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_circle(rng: random.Random, max_offset: float = 0.95) -> CircleConfig:
    a = rng.uniform(0.5, 2.0)
    return CircleConfig(a=a, r0=rng.uniform(0.0, max_offset) * a, theta0=rng.uniform(-PI, PI))


def random_fan(rng: random.Random, n: int | None = None) -> ChordFan:
    """Random valid fan with sector widths bounded away from zero."""
    if n is None:
        n = rng.randint(1, 6)
    t1 = rng.uniform(-PI, PI)
    if n == 1:
        return ChordFan((t1,))
    span = rng.uniform(0.2, 0.97 * PI)
    while True:
        inner = sorted(rng.uniform(0.0, span) for _ in range(n - 2))
        offsets = [0.0, *inner, span]
        if min(b - a for a, b in zip(offsets, offsets[1:])) >= 0.02:
            return ChordFan(tuple(t1 + o for o in offsets))


def check_oracle_equivalence(seed: int, trials: int) -> CheckResult:
    rng = random.Random(f"{seed}:oracle")
    worst = 0.0
    started = time.perf_counter()
    for _ in range(trials):
        cfg = random_circle(rng)
        fan = random_fan(rng)
        spec = default_quadrature_spec(cfg)
        for lo, hi in build_partition(fan).sectors:
            closed = sector_area_closed(cfg, lo, hi)
            quad = quadrature_area(cfg, lo, hi, spec)
            worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-9 and elapsed <= 10.0
    return CheckResult(
        "oracle_equivalence",
        passed,
        f"worst sector relative gap {worst:.3e} over {trials} configs ({elapsed:.2f}s)",
    )


def check_total_area(seed: int, trials: int) -> CheckResult:
    rng = random.Random(f"{seed}:total")
    worst = 0.0
    for _ in range(trials):
        cfg = random_circle(rng)
        report = area_report(cfg, build_partition(random_fan(rng)))
        disk = PI * cfg.a * cfg.a
        worst = max(worst, abs(report.total - disk) / disk)
    passed = worst <= 1e-10
    return CheckResult("total_area_identity", passed, f"worst relative defect {worst:.3e}")


def check_pair_identity(seed: int, trials: int) -> CheckResult:
    rng = random.Random(f"{seed}:pairs")
    worst = 0.0
    for _ in range(trials):
        cfg = random_circle(rng)
        ta = rng.uniform(-PI, PI)
        tb = ta + rng.uniform(0.05, PI - 0.05)
        pair = opposite_pair_sum(cfg, ta, tb)
        two = sector_area_closed(cfg, ta, tb) + sector_area_closed(cfg, ta + PI, tb + PI)
        worst = max(worst, abs(pair - two) / abs(pair))
    passed = worst <= 1e-12
    return CheckResult("opposite_pair_identity", passed, f"worst relative gap {worst:.3e}")


def check_centered_conditions(seed: int, trials: int) -> CheckResult:
    rng = random.Random(f"{seed}:centered")
    worst = 0.0
    for _ in range(trials):
        a = rng.uniform(0.5, 2.0)
        cfg = CircleConfig(a=a, r0=0.0, theta0=rng.uniform(-PI, PI))
        t1 = rng.uniform(-PI, PI)
        w1 = rng.uniform(0.05, 0.5 * PI - 0.1)
        t2 = t1 + w1
        t3 = t2 + rng.uniform(0.05, 0.3)
        t4 = t3 + (0.5 * PI - w1)
        worst = max(worst, abs(residual_eight(cfg, t1, t2, t3, t4).residual) / (a * a))
        worst = max(worst, abs(residual_four(cfg, t1, t1 + 0.5 * PI).residual) / (a * a))
    passed = worst <= 1e-12
    return CheckResult("centered_conditions", passed, f"worst |residual|/a^2 = {worst:.3e}")


def _pizza_fan(t1: float) -> tuple[float, float, float, float]:
    return (t1, t1 + 0.25 * PI, t1 + 0.5 * PI, t1 + 0.75 * PI)


# Family-wise false-alarm rate of the Monte Carlo z-score test: the chance
# that correct code fails the check on some seed.
PIZZA_FAMILY_ALPHA = 1e-3


def check_pizza_cancellation(seed: int, poles: int, mc_samples: int) -> CheckResult:
    """The pizza theorem's eight-sector residual on random poles, and each
    sector's Monte Carlo estimate as a z-score against its closed form.

    The z-scores are statistical, so a small count error is invisible: one
    sample counted in the wrong sector moves that sector's |z| by
    ``1/sqrt(mc_samples * p * (1 - p))``, about 3e-3 at 1e6 samples and
    ``p = 1/8`` (0.05 if each of a pole's 16 shards is one sample off),
    against a bound near 4.85.  Only the exact-count tests of the Monte
    Carlo screen in the tier-1 suite catch errors of that size.
    """
    rng = random.Random(f"{seed}:pizza")
    worst_res = 0.0
    worst_z = 0.0
    z_scores = 0
    for i in range(poles):
        cfg = random_circle(rng)
        fan = _pizza_fan(rng.uniform(-PI, PI))
        a2 = cfg.a * cfg.a
        worst_res = max(worst_res, abs(residual_eight(cfg, *fan).residual) / a2)
        part = build_partition(ChordFan(fan))
        closed = area_report(cfg, part).sector_areas
        spec = MonteCarloSpec(samples=mc_samples, seed=(seed + i) % 2**64)
        estimates = montecarlo_area(cfg, part, spec)
        disk = PI * a2
        for (est, _), ref in zip(estimates, closed):
            # The standard error of the reference area, which is never 0, not
            # the estimate's, which is 0 when a sector gets no sample or all.
            p = ref / disk
            se = disk * math.sqrt(p * (1.0 - p) / mc_samples)
            worst_z = max(worst_z, abs(est - ref) / se)
            z_scores += 1
    # Bonferroni: each two-sided |z| test runs at PIZZA_FAMILY_ALPHA / z_scores.
    z_bound = NormalDist().inv_cdf(1.0 - PIZZA_FAMILY_ALPHA / (2 * max(z_scores, 1)))
    passed = worst_res <= 1e-10 and worst_z <= z_bound
    return CheckResult(
        "pizza_cancellation",
        passed,
        f"worst |residual|/a^2 = {worst_res:.3e}, worst Monte Carlo |z| = {worst_z:.2f} "
        f"<= {z_bound:.2f} (Bonferroni over {z_scores} sectors at family-wise "
        f"{PIZZA_FAMILY_ALPHA:g}; {poles} poles, {mc_samples} samples each)",
    )


def check_four_sector_axis(seed: int, poles: int) -> CheckResult:
    rng = random.Random(f"{seed}:axis")
    worst_res = 0.0
    worst_quad = 0.0
    for _ in range(poles):
        cfg = random_circle(rng)
        a2 = cfg.a * cfg.a
        t1 = cfg.theta0
        t2 = cfg.theta0 + 0.5 * PI
        worst_res = max(worst_res, abs(residual_four(cfg, t1, t2).residual) / a2)
        worst_quad = max(worst_quad, abs(quadrature_residual(cfg, (t1, t2))) / a2)
    passed = worst_res <= 1e-10 and worst_quad <= 1e-9
    return CheckResult(
        "four_sector_axis_balance",
        passed,
        f"worst closed {worst_res:.3e}, worst quadrature {worst_quad:.3e} (per a^2)",
    )


def check_six_sector_audit(seed: int) -> CheckResult:
    theta0 = 0.3
    worst_corr = 0.0
    worst_quad = 0.0
    worst_dev = 0.0
    for gamma in (0.2, 0.5, 1.0):
        for r0 in (0.2, 0.5, 0.8):
            cfg = CircleConfig(a=1.0, r0=r0, theta0=theta0)
            angles = (theta0 - gamma, theta0, theta0 + gamma)
            corrected = residual_six(cfg, *angles).residual
            printed = residual_six(cfg, *angles, variant=VARIANT_AS_PRINTED).residual
            quad = quadrature_residual(cfg, angles)
            worst_corr = max(worst_corr, abs(corrected))
            worst_quad = max(worst_quad, abs(quad))
            worst_dev = max(
                worst_dev, abs((printed - quad) - r0 * r0 * math.sin(2.0 * gamma))
            )
    passed = worst_corr <= 1e-10 and worst_quad <= 1e-9 and worst_dev <= 1e-9
    return CheckResult(
        "six_sector_erratum_audit",
        passed,
        f"worst corrected {worst_corr:.3e}, quadrature {worst_quad:.3e}, "
        f"as-printed deviation from r0^2*sin(2g) {worst_dev:.3e}",
    )


def check_solver_soundness(seed: int, trials: int) -> CheckResult:
    rng = random.Random(f"{seed}:solver")
    worst_res = 0.0
    worst_quad = 0.0
    solved = 0
    attempts = 0
    failures = []
    while solved < trials and attempts < 100 * trials:
        attempts += 1
        cfg = random_circle(rng)
        fixed = tuple(sorted(rng.uniform(0.0, 0.6 * PI) for _ in range(3)))
        if min(b - a for a, b in zip(fixed, fixed[1:])) < 0.05:
            continue
        # Only a fan without a root is skipped; a root the solve rejects, or
        # fails to refine, is a fault the check must report.
        try:
            bracket = free_angle_brackets(cfg, fixed, 3)[0]
        except SolverError:
            continue
        try:
            outcome = solve_free_angle(
                SolveRequest(cfg=cfg, fixed_angles=fixed, free_index=3, bracket=bracket)
            )
        except SolverError as exc:
            failures.append(str(exc))
            continue
        a2 = cfg.a * cfg.a
        # The public residual, outside the try: a fault in it must raise, not skip.
        residual = residual_eight(cfg, *fixed, outcome.root).residual
        worst_res = max(worst_res, abs(residual) / a2)
        worst_quad = max(worst_quad, abs(outcome.oracle_check) / a2)
        solved += 1

    # Analytic pole-radius inversion vs. numeric bracketed solving.
    worst_gap = 0.0
    instances = [(0.5 * PI - 0.1, 0.0, 1.0)]
    while len(instances) < 10:
        instances.append(
            (0.5 * PI - rng.uniform(0.02, 0.3), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        )
    for width, theta0, a in instances:
        t1 = theta0 - 0.5 * width
        t2 = theta0 + 0.5 * width
        analytic = solve_pole_radius((t1, t2), theta0, a, CASE_FOUR)

        def g(r0: float) -> float:
            return residual_four(CircleConfig(a=a, r0=r0, theta0=theta0), t1, t2).residual

        numeric, _, _ = find_root(g, 0.0, (1.0 - 1e-9) * a, xtol=1e-13, ftol=1e-15 * a * a)
        worst_gap = max(worst_gap, abs(analytic.root - numeric))

    passed = (
        solved == trials
        and not failures
        and worst_res <= 1e-10
        and worst_quad <= 1e-8
        and worst_gap <= 1e-10
    )
    detail = (f"{solved}/{trials} bracketed roots (worst closed {worst_res:.3e}, quadrature "
              f"{worst_quad:.3e} per a^2), analytic vs numeric radius gap {worst_gap:.3e}")
    if failures:
        detail += f"; {len(failures)} bracketed solves failed, first: {failures[0]}"
    return CheckResult("solver_soundness", passed, detail)


def check_determinism(seed: int) -> CheckResult:
    from .cli import run_cli  # deferred: cli imports this module at load time

    argv_sets = {
        "json": ["areas", "--a", "1.2", "--r0", "0.4", "--theta0", "0.3",
                 "--chords", "0.1,0.9,1.4", "--format", "json"],
        "csv": ["areas", "--a", "1.2", "--r0", "0.4", "--theta0", "0.3",
                "--chords", "0.1,0.9,1.4", "--format", "csv"],
        "svg": ["render", "--a", "1.2", "--r0", "0.4", "--theta0", "0.3",
                "--chords", "0.1,0.9,1.4"],
        "montecarlo": ["areas", "--a", "1.0", "--r0", "0.5", "--theta0", "0.0",
                       "--chords", "0,1.2", "--mode", "montecarlo",
                       "--samples", "100000", "--seed", str(seed)],
    }
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in argv_sets.items():
            outputs = []
            for run in (0, 1):
                path = Path(tmp) / f"{label}-{run}.out"
                code = run_cli([*argv, "--out", str(path)])
                if code != 0:
                    mismatches.append(f"{label} exited {code}")
                    break
                outputs.append(path.read_bytes())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                mismatches.append(label)
    passed = not mismatches
    detail = "byte-identical JSON, CSV, SVG, and Monte Carlo reruns" if passed else (
        "mismatch in: " + ", ".join(mismatches)
    )
    return CheckResult("output_determinism", passed, detail)


def run_checks(
    seed: int = 0,
    trials: int = 1000,
    poles: int = 100,
    solver_trials: int = 50,
    mc_samples: int = 1_000_000,
) -> list[CheckResult]:
    """Run the whole battery; scaled-down sizes keep the same coverage."""
    checks = [
        check_oracle_equivalence(seed, trials),
        check_total_area(seed, trials),
        check_pair_identity(seed, trials),
        check_centered_conditions(seed, min(poles, trials)),
        check_pizza_cancellation(seed, poles, mc_samples),
        check_four_sector_axis(seed, poles),
        check_six_sector_audit(seed),
        check_solver_soundness(seed, solver_trials),
        check_determinism(seed),
    ]
    return checks
