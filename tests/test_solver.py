import dataclasses
import itertools
import math
import random
import sys

import pytest

from sectorbalance import (
    CASE_EIGHT,
    CASE_FOUR,
    CASE_GENERAL,
    CASE_SIX,
    CircleConfig,
    DomainError,
    ResidualGrid,
    SolveRequest,
    SolverError,
    SweepAxis,
    case_residual,
    feasible_interval,
    find_root,
    free_angle_brackets,
    residual_four,
    residual_eight,
    scan_sign_change,
    solve_free_angle,
    solve_pole_radius,
    sweep_grid,
)
from sectorbalance import solver
from sectorbalance.conditions import _residual_value
from sectorbalance.verify import random_circle, random_fan

PI = math.pi


class TestFindRoot:
    def test_linear_function(self):
        root, froot, iters = find_root(lambda x: 2.0 * x - 1.0, 0.0, 2.0, xtol=1e-13, ftol=1e-14)
        assert root == pytest.approx(0.5, abs=1e-13)
        assert abs(froot) <= 1e-14
        assert iters >= 1

    def test_endpoint_zero_short_circuits(self):
        root, froot, iters = find_root(lambda x: x, 0.0, 1.0, xtol=1e-12, ftol=1e-12)
        assert (root, froot, iters) == (0.0, 0.0, 0)

    def test_no_sign_change_raises(self):
        with pytest.raises(SolverError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, ftol=1e-12)

    def test_max_iter_exceeded(self):
        with pytest.raises(SolverError):
            find_root(math.cos, 0.0, 3.0, xtol=1e-300, ftol=1e-300, max_iter=3)

    def test_stops_at_neighbouring_doubles(self):
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x <= 1.0 else 2.0

        with pytest.raises(SolverError,
                           match=r"\[1.0, 1.0000000000000002\] is at float resolution"):
            find_root(step, 1.0, math.nextafter(1.0, 2.0), xtol=1e-300, ftol=0.5)
        assert len(calls) == 3

    def test_cubic(self):
        root, _, _ = find_root(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-14, ftol=1e-14)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("f, expected", [
        (lambda x: x - 1.0, (1.0, 0.0, 0)),
        (lambda x: x - 0.001, (0.0, -0.001, 0)),
        (lambda x: x - 0.999, (1.0, 1.0 - 0.999, 0)),
    ], ids=["hi-is-zero", "lo-within-ftol", "hi-within-ftol"])
    def test_returns_at_a_bracket_end_without_iterating(self, f, expected):
        assert find_root(f, 0.0, 1.0, xtol=1e-12, ftol=0.01) == expected

    def test_bracket_narrowed_to_xtol_raises(self):
        with pytest.raises(SolverError, match="bracket narrowed to"):
            find_root(lambda x: x**3 - 0.3, -1.0, 2.0, xtol=0.5, ftol=1e-300)


class TestScanSignChange:
    def test_finds_bracket(self):
        lo, hi = scan_sign_change(lambda x: x - 0.37, 0.0, 1.0)
        assert lo <= 0.37 <= hi

    def test_no_change_raises(self):
        with pytest.raises(SolverError):
            scan_sign_change(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_handles_exact_zero_sample(self):
        lo, hi = scan_sign_change(lambda x: x, -1.0, 1.0, points=5)
        assert lo <= 0.0 <= hi

    def test_zero_only_at_the_last_sample(self):
        assert scan_sign_change(lambda x: x - 1.0, 0.0, 1.0, points=5) == (0.75, 1.0)

    @pytest.mark.parametrize("lo, hi, points, message", [
        (0.0, 1.0, 1, "at least two points"),
        (1.0, 0.0, 5, "invalid scan range"),
    ], ids=["one-point", "reversed"])
    def test_unusable_scan_raises(self, lo, hi, points, message):
        with pytest.raises(SolverError, match=message):
            scan_sign_change(lambda x: x, lo, hi, points=points)


def _eager_scan(f, lo, hi, points=64):
    """Reference: the scan that evaluates every sample before it looks for a change."""
    if points < 2:
        raise SolverError("scan needs at least two points")
    if not lo < hi:
        raise SolverError(f"invalid scan range [{lo!r}, {hi!r}]")
    step = (hi - lo) / (points - 1)
    xs = [lo + i * step for i in range(points)]
    fs = [f(x) for x in xs]
    for i in range(points - 1):
        if fs[i] == 0.0 or (fs[i] > 0.0) != (fs[i + 1] > 0.0):
            return xs[i], xs[i + 1]
    if fs[-1] == 0.0:
        return xs[-2], xs[-1]
    raise SolverError(f"no sign change found scanning [{lo!r}, {hi!r}] with {points} points")


def _scan_cases(seed, count):
    """(kind, f, lo, hi, points): seeded monotone, oscillating, zero-hitting and signless f."""
    rng = random.Random(seed)
    for _ in range(count):
        lo = rng.uniform(-3.0, 3.0)
        hi = lo + rng.uniform(0.1, 4.0)
        points = rng.choice([2, 3, 5, 17, 64])
        step = (hi - lo) / (points - 1)
        xs = [lo + i * step for i in range(points)]
        c = rng.uniform(lo - 1.0, hi + 1.0)
        k, phase = rng.uniform(1.0, 12.0), rng.uniform(0.0, 2.0 * PI)
        sign = rng.choice([-1.0, 1.0])
        zeros = {"first": xs[0], "middle": xs[points // 2], "last": xs[-1],
                 "random": rng.choice(xs)}
        yield "increasing", lambda x, c=c: x - c, lo, hi, points
        yield "decreasing", lambda x, c=c: c - x, lo, hi, points
        yield "oscillating", lambda x, k=k, p=phase: math.sin(k * x + p), lo, hi, points
        yield "no change", lambda x, c=c, s=sign: s * (1.0 + (x - c) ** 2), lo, hi, points
        for where, z in zeros.items():
            # A zero crossed at a sample, and a zero touched at a sample without a change.
            yield f"crossing at {where}", lambda x, z=z, s=sign: s * (x - z), lo, hi, points
            yield (f"touching at {where}",
                   lambda x, z=z, s=sign: 0.0 if x == z else s * (1.0 + x * x), lo, hi, points)


def _outcome(scan, f, lo, hi, points):
    try:
        return scan(f, lo, hi, points)
    except SolverError as exc:
        return str(exc)


class TestScanStopsAtTheFirstChange:
    """``scan_sign_change`` returns what the eager scan returns and evaluates no sample past it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_eager_scan(self, seed):
        kinds = set()
        for kind, f, lo, hi, points in _scan_cases(seed, 40):
            kinds.add(kind)
            expected = _outcome(_eager_scan, f, lo, hi, points)
            assert _outcome(scan_sign_change, f, lo, hi, points) == expected, (kind, lo, hi, points)
        assert len(kinds) == 12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_calls_f_only_up_to_the_bracket(self, seed):
        for kind, f, lo, hi, points in _scan_cases(seed, 40):
            calls = []

            def counted(x, f=f):
                calls.append(x)
                return f(x)

            step = (hi - lo) / (points - 1)
            xs = [lo + i * step for i in range(points)]
            outcome = _outcome(scan_sign_change, counted, lo, hi, points)
            assert calls == xs[:len(calls)], kind
            if isinstance(outcome, str):
                assert len(calls) == points, kind
                continue
            i = xs.index(outcome[0])
            # A zero at x_i brackets on its own; a sign change, or the zero at
            # the last sample after a non-zero x_{n-2}, needs f(x_{i+1}) too.
            expected = i + 1 if f(xs[i]) == 0.0 else i + 2
            assert len(calls) == expected, kind

    def test_sign_change_at_pair_i_takes_i_plus_two_calls(self):
        xs = [0.0 + i * (1.0 / 63) for i in range(64)]
        for i in range(63):
            calls = []

            def f(x, root=0.5 * (xs[i] + xs[i + 1])):
                calls.append(x)
                return x - root

            assert scan_sign_change(f, 0.0, 1.0) == (xs[i], xs[i + 1])
            assert len(calls) == i + 2

    def test_two_points(self):
        assert scan_sign_change(lambda x: x - 0.5, 0.0, 1.0, points=2) == (0.0, 1.0)
        assert scan_sign_change(lambda x: 0.0 if x == 0.0 else 1.0, 0.0, 1.0, points=2) == (
            0.0, 1.0)
        assert scan_sign_change(lambda x: x - 1.0, 0.0, 1.0, points=2) == (0.0, 1.0)
        with pytest.raises(SolverError, match="with 2 points"):
            scan_sign_change(lambda x: 1.0 + x, 0.0, 1.0, points=2)

    def test_f_that_raises_past_the_first_change_is_not_reached(self):
        xs = [0.0 + i * (1.0 / 63) for i in range(64)]

        def f(x):
            if x > xs[11]:
                raise ZeroDivisionError("evaluated past the bracket")
            return x - 0.5 * (xs[10] + xs[11])

        with pytest.raises(ZeroDivisionError):
            _eager_scan(f, 0.0, 1.0)
        assert scan_sign_change(f, 0.0, 1.0) == (xs[10], xs[11])


class TestFeasibleInterval:
    def test_middle_slot(self):
        assert feasible_interval((0.0, 1.0), 1) == (0.0, 1.0)

    def test_first_slot(self):
        lo, hi = feasible_interval((1.0, 2.0), 0)
        assert lo == pytest.approx(2.0 - PI)
        assert hi == 1.0

    def test_last_slot(self):
        lo, hi = feasible_interval((1.0, 2.0), 2)
        assert lo == 2.0
        assert hi == pytest.approx(1.0 + PI)

    def test_empty_fixed_raises(self):
        with pytest.raises(SolverError):
            feasible_interval((), 0)

    def test_unordered_neighbours_leave_no_room(self):
        with pytest.raises(SolverError, match="leave no room at slot 1"):
            feasible_interval((1.0, 0.5), 1)

    @pytest.mark.parametrize("free_index", [-1, 3])
    def test_slot_outside_the_fan_is_domain_error(self, free_index):
        with pytest.raises(DomainError, match="out of range for 2 fixed angles"):
            feasible_interval((0.0, 1.0), free_index)


def _spread_fan(rng, n):
    """n increasing angles spanning 0.3..0.95 pi, with gaps of at least 0.03."""
    t1 = rng.uniform(-PI, PI)
    if n == 1:
        return (t1,)
    while True:
        span = rng.uniform(0.3, 0.95 * PI)
        offsets = [0.0, *sorted(rng.uniform(0.0, span) for _ in range(n - 2)), span]
        if min(b - a for a, b in zip(offsets, offsets[1:])) >= 0.03:
            return tuple(t1 + o for o in offsets)


def _search_range(fixed, k):
    lo, hi = feasible_interval(fixed, k)
    margin = 4.0 * math.ulp(max(abs(lo), abs(hi)) + PI)
    return lo + margin, hi - margin


def _bracket_cases(seed, counts, fans_per_count):
    """(cfg, fixed, k) for every slot of seeded fans, r0 at 0, random and 0.95a."""
    rng = random.Random(seed)
    for n in counts:
        for _ in range(fans_per_count):
            fan = _spread_fan(rng, n)
            a = rng.uniform(0.5, 2.0)
            theta0 = rng.uniform(-PI, PI)
            for rho in (0.0, rng.uniform(0.05, 0.9), 0.95):
                cfg = CircleConfig(a, rho * a, theta0)
                for k in range(n):
                    yield cfg, fan[:k] + fan[k + 1:], k


def _residual_at(cfg, fixed, k, t):
    return _residual_value(cfg.a, cfg.r0, cfg.theta0, fixed[:k] + (t,) + fixed[k:])


def _check_against_dense_sample(cfg, fixed, k):
    """Assert one bracket per sign change of a 4000-point sample; return the count."""
    lo, hi = _search_range(fixed, k)
    step = (hi - lo) / 3999
    dense = [_residual_at(cfg, fixed, k, lo + i * step) for i in range(4000)]
    try:
        brackets = free_angle_brackets(cfg, fixed, k)
    except SolverError as exc:
        assert "no sign change" in str(exc)
        brackets = ()
    if len(fixed) % 2 == 0 and cfg.r0 == 0.0:
        # A centred pole balances every odd fan: the residual is 0.0
        # everywhere, so every piece is a bracket.
        assert set(dense) == {0.0}
        assert brackets[0][0] == lo and brackets[-1][1] == hi
        return len(brackets)
    assert 0.0 not in dense
    changes = sum((f0 > 0.0) != (f1 > 0.0) for f0, f1 in zip(dense, dense[1:]))
    assert len(brackets) == changes, (cfg, fixed, k)
    for x0, x1 in brackets:
        assert lo <= x0 < x1 <= hi
        f0, f1 = _residual_at(cfg, fixed, k, x0), _residual_at(cfg, fixed, k, x1)
        assert f0 == 0.0 or f1 == 0.0 or (f0 > 0.0) != (f1 > 0.0)
    assert list(brackets) == sorted(brackets)
    return len(brackets)


class TestFreeAngleBrackets:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_one_bracket_per_dense_sign_change(self, n):
        for cfg, fixed, k in _bracket_cases(500 + n, [n], 2):
            _check_against_dense_sample(cfg, fixed, k)

    def test_one_bracket_per_dense_sign_change_near_a_two_root_fan(self):
        # Random fans hold two roots in one slot only rarely, so perturb one that does.
        rng = random.Random(2021)
        counts = []
        for _ in range(40):
            a = rng.uniform(0.5, 2.0)
            cfg = CircleConfig(a, rng.uniform(0.3, 0.9) * a, 0.1 + rng.uniform(-0.3, 0.3))
            fixed = (-0.4 + rng.uniform(-0.1, 0.1), 0.3 + rng.uniform(-0.1, 0.1))
            counts.append(_check_against_dense_sample(cfg, fixed, 2))
        assert counts.count(2) >= 10

    def test_single_chord_has_no_feasible_interval(self):
        with pytest.raises(SolverError, match="single free chord"):
            free_angle_brackets(CircleConfig(1.0, 0.5, 0.0), (), 0)

    def test_slot_narrower_than_the_margins_is_solver_error(self):
        with pytest.raises(SolverError, match="no room at slot 1"):
            free_angle_brackets(CircleConfig(1.0, 0.3, 0.0), (0.0, 1e-15), 1)

    def test_at_most_three_evaluations_and_one_bracket_per_monotone_piece(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _residual_value(*args)

        monkeypatch.setattr(solver, "_residual_value", counted)
        for cfg, fixed, k in _bracket_cases(77, range(2, 10), 3):
            calls.clear()
            try:
                brackets = free_angle_brackets(cfg, fixed, k)
            except SolverError:
                brackets = ()
            assert 2 <= len(calls) <= 3
            assert len(brackets) <= (2 if len(fixed) % 2 == 0 else 1)

    def test_even_fans_bracketed_exactly_where_the_scan_finds_a_root(self):
        outcomes = []
        for cfg, fixed, k in _bracket_cases(31, (2, 4, 6, 8), 6):
            lo, hi = _search_range(fixed, k)
            try:
                scan_sign_change(lambda t: _residual_at(cfg, fixed, k, t), lo, hi)
                scanned = True
            except SolverError:
                scanned = False
            try:
                bracketed = len(free_angle_brackets(cfg, fixed, k)) == 1
            except SolverError:
                bracketed = False
            assert bracketed == scanned, (cfg, fixed, k)
            outcomes.append(scanned)
        assert True in outcomes and False in outcomes

    def test_two_roots_of_an_odd_fan_lowest_first(self):
        cfg = CircleConfig(1.0, 0.5, 0.1)
        brackets = free_angle_brackets(cfg, (-0.4, 0.3), 2)
        assert len(brackets) == 2
        roots = [
            solve_free_angle(SolveRequest(cfg=cfg, fixed_angles=(-0.4, 0.3), free_index=2,
                                          bracket=bracket)).root
            for bracket in brackets
        ]
        assert roots[0] == pytest.approx(0.857199632513, abs=1e-9)
        assert roots[1] == pytest.approx(2.484393021077, abs=1e-9)

    @pytest.mark.parametrize("turns", [0, -3, 10**6, -10**9])
    def test_split_at_the_extremum_whatever_the_turns_of_theta0(self, turns):
        # The residual depends on theta0 only modulo a full turn.
        cfg = CircleConfig(1.0, 0.5, 0.1 + 2 * PI * turns)
        brackets = free_angle_brackets(cfg, (-0.4, 0.3), 2)
        assert len(brackets) == 2
        assert brackets[0][1] == pytest.approx(0.1 + PI / 2, abs=1e-6)

    def test_overflowing_angle_difference_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            free_angle_brackets(CircleConfig(1.0, 0.5, 1e308), (0.0,), 1)


class TestSolveFreeAngle:
    def test_root_below_float_resolution_is_solver_error(self, monkeypatch):
        # At 2e6 one ulp moves the residual by more than tol*a^2 = 1e-11, so
        # the search ends at two neighbouring doubles, not at max_iter.
        cfg, fixed = CircleConfig(1.0, 0.3, 0.0), (2e6, 2000001.0, 2000002.0)
        (bracket,) = free_angle_brackets(cfg, fixed, 3)
        calls = []

        def counted(*args):
            calls.append(args)
            return _residual_value(*args)

        monkeypatch.setattr(solver, "_residual_value", counted)
        with pytest.raises(SolverError, match="at float resolution"):
            solve_free_angle(SolveRequest(cfg=cfg, fixed_angles=fixed, free_index=3,
                                          bracket=bracket))
        assert len(calls) < 40

    def test_centered_eight_sector_root_is_analytic(self):
        # At r0 = 0 the balancing fourth angle is t3 + pi/2 - (t2 - t1).
        cfg = CircleConfig(1.0, 0.0, 0.0)
        t1, t2, t3 = 0.0, 0.4, 0.9
        expected = t3 + PI / 2 - (t2 - t1)
        outcome = solve_free_angle(
            SolveRequest(cfg=cfg, fixed_angles=(t1, t2, t3), free_index=3,
                         bracket=(0.95, 2.8))
        )
        assert outcome.root == pytest.approx(expected, abs=1e-11)
        assert abs(outcome.residual_at_root) <= 1e-11
        assert abs(outcome.oracle_check) <= 1e-9

    def test_offset_instance_frozen_root(self):
        # Frozen from bisection on the residual, confirmed by quadrature.
        cfg = CircleConfig(1.0, 0.5, 0.2)
        outcome = solve_free_angle(
            SolveRequest(cfg=cfg, fixed_angles=(0.0, 0.8, 1.3), free_index=3,
                         bracket=(1.3 + 1e-9, PI - 1e-9))
        )
        assert outcome.root == pytest.approx(2.078924155611765, abs=1e-9)
        assert abs(outcome.residual_at_root) <= 1e-10
        assert abs(outcome.oracle_check) <= 1e-9
        assert outcome.iterations >= 1

    def test_case_tag_controls_dispatch(self):
        cfg = CircleConfig(1.0, 0.3, 0.1)
        outcome = solve_free_angle(
            SolveRequest(cfg=cfg, fixed_angles=(0.0,), free_index=1,
                         bracket=(1.2, 2.2), case_tag=CASE_FOUR)
        )
        assert abs(residual_four(cfg, 0.0, outcome.root).residual) <= 1e-11

    def test_no_sign_change_raises(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        with pytest.raises(SolverError):
            solve_free_angle(
                SolveRequest(cfg=cfg, fixed_angles=(0.0, 0.4, 0.9), free_index=3,
                             bracket=(0.95, 1.2))
            )

    def test_invalid_bracket_ordering_raises(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        with pytest.raises(SolverError):
            solve_free_angle(
                SolveRequest(cfg=cfg, fixed_angles=(0.0, 0.4, 0.9), free_index=3,
                             bracket=(0.5, 2.0))  # 0.5 < t3, ordering broken
            )

    def test_unreachable_tolerance_raises(self):
        cfg = CircleConfig(1.0, 0.5, 0.2)
        with pytest.raises(SolverError):
            solve_free_angle(
                SolveRequest(cfg=cfg, fixed_angles=(0.0, 0.8, 1.3), free_index=3,
                             bracket=(1.3 + 1e-9, PI - 1e-9), tol=1e-300)
            )

    def test_quadrature_disagreement_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(solver, "quadrature_residual", lambda cfg, angles: 1.0)
        with pytest.raises(SolverError, match="quadrature cross-check"):
            solve_free_angle(SolveRequest(cfg=CircleConfig(1.0, 0.3, 0.1), fixed_angles=(0.0,),
                                          free_index=1, bracket=(1.2, 2.2)))

    def test_iteration_cap_belongs_to_find_root(self):
        assert "max_iter" not in {field.name for field in dataclasses.fields(SolveRequest)}

    def test_request_validation(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            SolveRequest(cfg=cfg, fixed_angles=(0.0,), free_index=5, bracket=(0.1, 0.2))
        with pytest.raises(DomainError):
            SolveRequest(cfg=cfg, fixed_angles=(0.0,), free_index=1, bracket=(0.2, 0.1))
        with pytest.raises(DomainError):
            SolveRequest(cfg=cfg, fixed_angles=(0.0,), free_index=1, bracket=(0.1, 0.2), tol=-1.0)


class TestSolvePoleRadius:
    def test_four_sector_reference_instance(self):
        width = PI / 2 - 0.1
        outcome = solve_pole_radius((-width / 2, width / 2), 0.0, 1.0, CASE_FOUR)
        assert outcome.root == pytest.approx(0.31702064891745718, abs=1e-12)
        assert abs(outcome.residual_at_root) <= 1e-13
        assert abs(outcome.oracle_check) <= 1e-10
        assert outcome.iterations == 0

    def test_quarter_width_gives_centered_solution(self):
        outcome = solve_pole_radius((0.3, 0.3 + PI / 2), 0.0, 1.0, CASE_FOUR)
        assert outcome.root == pytest.approx(0.0, abs=1e-12)

    def test_matches_numeric_root(self):
        rng = random.Random(4242)
        for _ in range(10):
            width = PI / 2 - rng.uniform(0.02, 0.3)
            theta0 = rng.uniform(-1.0, 1.0)
            a = rng.uniform(0.5, 2.0)
            t1, t2 = theta0 - width / 2, theta0 + width / 2
            analytic = solve_pole_radius((t1, t2), theta0, a, CASE_FOUR)

            def f(r0):
                return residual_four(CircleConfig(a, r0, theta0), t1, t2).residual

            numeric, _, _ = find_root(f, 0.0, (1 - 1e-9) * a, xtol=1e-13,
                                      ftol=1e-15 * a * a)
            assert analytic.root == pytest.approx(numeric, abs=1e-10)

    def test_eight_sector_case(self):
        theta0 = 0.2
        t1, t2 = theta0 - 0.5, theta0 - 0.1
        t3 = theta0 + 0.1
        t4 = t3 + (PI / 2 - (t2 - t1)) - 0.08  # shrink widths: L < 0
        outcome = solve_pole_radius((t1, t2, t3, t4), theta0, 1.0, CASE_EIGHT)
        assert abs(residual_eight(CircleConfig(1.0, outcome.root, theta0),
                                  t1, t2, t3, t4).residual) <= 1e-12

    def test_no_interior_solution_negative_ratio(self):
        # Width above pi/2 makes -2L/K negative.
        with pytest.raises(SolverError, match="no interior solution"):
            solve_pole_radius((-0.9, 0.9), 0.0, 1.0, CASE_FOUR)

    def test_no_interior_solution_ratio_past_one(self):
        # A very narrow fan needs r0 > a to balance: -2L/K lands past one.
        with pytest.raises(SolverError, match="no interior solution"):
            solve_pole_radius((-0.15, 0.15), 0.0, 1.0, CASE_FOUR)

    def test_degenerate_sine_sum(self):
        # Pizza fan: K telescopes to zero, the residual never depends on r0.
        fan = (0.1, 0.1 + PI / 4, 0.1 + PI / 2, 0.1 + 3 * PI / 4)
        with pytest.raises(SolverError, match="degenerate"):
            solve_pole_radius(fan, 0.5, 1.0, CASE_EIGHT)

    def test_rejects_wrong_case(self):
        with pytest.raises(DomainError):
            solve_pole_radius((0.0, 0.5, 1.0), 0.0, 1.0, CASE_SIX)
        with pytest.raises(DomainError):
            solve_pole_radius((0.0, 0.5, 1.0), 0.0, 1.0, CASE_FOUR)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # NaN used to skip both root checks; -1 and 0 failed them with a
        # misleading solver error about the inverted radius.
        with pytest.raises(DomainError, match="^tol must be positive"):
            solve_pole_radius((-0.6, 0.6), 0.0, 1.0, CASE_FOUR, tol)

    @pytest.mark.parametrize("n", [6, 8])
    def test_every_even_count_matches_numeric_root(self, n):
        rng = random.Random(f"pole-radius:{n}")
        roots = 0
        for _ in range(200):
            cfg = random_circle(rng)
            angles = random_fan(rng, n).base_angles
            a, theta0 = cfg.a, cfg.theta0
            try:
                analytic = solve_pole_radius(angles, theta0, a)
            except SolverError as exc:
                assert "no interior solution" in str(exc)
                continue

            def f(r0):
                return case_residual(CircleConfig(a, r0, theta0), angles).residual

            numeric, _, _ = find_root(f, 0.0, (1.0 - 1e-9) * a, xtol=1e-13,
                                      ftol=1e-15 * a * a)
            assert abs(analytic.root - numeric) <= 1e-13 * a
            roots += 1
        assert roots >= 20  # a draw that inverts nothing would prove nothing

    def test_case_is_inferred(self):
        width = PI / 2 - 0.1
        angles = (-width / 2, width / 2)
        assert solve_pole_radius(angles, 0.0, 1.0) == solve_pole_radius(angles, 0.0, 1.0,
                                                                          CASE_FOUR)

    @pytest.mark.parametrize("case_tag", [None, CASE_GENERAL, CASE_SIX])
    def test_odd_chord_count_is_domain_error(self, case_tag):
        with pytest.raises(DomainError, match="needs an even chord count, got 3"):
            solve_pole_radius((-0.5, 0.0, 0.5), 0.0, 1.0, case_tag)

    def test_quadrature_disagreement_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(solver, "quadrature_residual", lambda cfg, angles: 1.0)
        with pytest.raises(SolverError, match="fails the residual check"):
            solve_pole_radius((-0.6, 0.6), 0.0, 1.0, CASE_FOUR)


@pytest.mark.parametrize("solve", [
    lambda: solve_pole_radius((-0.6, 0.6), 0.0, 1.0, CASE_FOUR),
    lambda: solve_free_angle(SolveRequest(cfg=CircleConfig(1.0, 0.3, 0.1), fixed_angles=(0.0,),
                                          free_index=1, bracket=(1.2, 2.2))),
], ids=["pole-radius", "free-angle"])
def test_both_solves_reject_a_root_by_one_rule(monkeypatch, solve):
    monkeypatch.setattr(solver, "quadrature_residual", lambda cfg, angles: 1.0)
    with pytest.raises(SolverError,
                       match=r"^root \S+ fails the residual check: closed=\S+, "
                             r"quadrature cross-check=1\.0$"):
        solve()


class TestSweepGrid:
    def test_single_cell_equals_direct_call(self):
        cfg = CircleConfig(1.0, 0.4, 0.2)
        angles = (0.0, 0.7)
        grid = sweep_grid(cfg, angles, [SweepAxis("r0", 0.4, 0.4, 1)])
        assert grid.values == (case_residual(cfg, angles).residual,)

    def test_pizza_fan_r0_axis_all_zero(self):
        cfg = CircleConfig(1.0, 0.0, 0.9)
        fan = (0.1, 0.1 + PI / 4, 0.1 + PI / 2, 0.1 + 3 * PI / 4)
        grid = sweep_grid(cfg, fan, [SweepAxis("r0", 0.0, 0.9, 10)])
        assert len(grid.values) == 10
        assert all(abs(v) <= 1e-10 for v in grid.values)

    def test_zero_contour_through_quarter_turn_at_center(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        t1 = 0.3
        axes = [SweepAxis("r0", 0.0, 0.6, 3),
                SweepAxis("theta2", t1 + PI / 2 - 0.2, t1 + PI / 2 + 0.2, 41)]
        grid = sweep_grid(cfg, (t1, t1 + 0.5), axes, CASE_FOUR)
        # Row r0 = 0: residual is a^2*(t2 - t1 - pi/2); the middle column sits
        # on the zero contour.
        row = grid.values[:41]
        assert row[20] == pytest.approx(0.0, abs=1e-12)
        assert row[0] < 0.0 < row[-1]

    def test_row_major_layout(self):
        cfg = CircleConfig(1.0, 0.1, 0.0)
        axes = [SweepAxis("r0", 0.1, 0.3, 2), SweepAxis("theta0", -0.2, 0.2, 3)]
        grid = sweep_grid(cfg, (0.0, 0.8), axes)
        assert len(grid.values) == 6
        direct = case_residual(CircleConfig(1.0, 0.3, 0.2), (0.0, 0.8)).residual
        assert grid.values[1 * 3 + 2] == direct

    def test_infeasible_points_marked_nan(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        grid = sweep_grid(cfg, (0.0, 0.8), [SweepAxis("r0", 0.5, 1.5, 3)])
        assert not math.isnan(grid.values[0])
        assert math.isnan(grid.values[1]) == (1.0 >= 1.0)
        assert math.isnan(grid.values[2])

    def test_angle_axis_can_break_ordering(self):
        cfg = CircleConfig(1.0, 0.2, 0.0)
        grid = sweep_grid(cfg, (0.0, 0.8), [SweepAxis("theta2", -0.5, 0.5, 3)])
        assert math.isnan(grid.values[0])  # theta2 < theta1
        assert math.isnan(grid.values[1])  # coincident chords
        assert not math.isnan(grid.values[2])

    def test_deterministic(self):
        cfg = CircleConfig(1.0, 0.3, 0.4)
        axes = [SweepAxis("theta1", -0.4, 0.4, 7), SweepAxis("r0", 0.0, 0.9, 5)]
        first = sweep_grid(cfg, (0.0, 0.9), axes)
        second = sweep_grid(cfg, (0.0, 0.9), axes)
        assert first == second

    def test_validation(self):
        cfg = CircleConfig(1.0, 0.3, 0.4)
        with pytest.raises(DomainError):
            sweep_grid(cfg, (0.0, 0.9), [])
        with pytest.raises(DomainError):
            sweep_grid(cfg, (0.0, 0.9), [SweepAxis("theta3", 0.0, 1.0, 2)])
        with pytest.raises(DomainError):
            SweepAxis("bogus", 0.0, 1.0, 2)
        with pytest.raises(DomainError):
            SweepAxis("r0", 0.0, 1.0, 0)
        with pytest.raises(DomainError):
            ResidualGrid(axes=(SweepAxis("r0", 0.0, 1.0, 3),), values=(0.0,))

    def test_axis_whose_width_overflows_is_domain_error(self):
        # Its step would be inf, and its grid values [nan, inf, inf].
        with pytest.raises(DomainError, match="hi - lo overflows"):
            SweepAxis("theta0", -1e308, 1e308, 3)

    @pytest.mark.parametrize("angles", [(0.0, 1.0), (0.0, 0.5, 1.0)])
    def test_point_whose_angle_difference_overflows_is_nan(self, angles):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        axes = [SweepAxis("theta0", -1.7e308, 0.0, 2)]
        values = sweep_grid(cfg, angles, axes).values
        assert math.isnan(values[0]) == (len(angles) % 2 == 0)
        assert values[1] == case_residual(cfg, angles).residual
        # The top value of this axis rounds past the largest float to inf.
        top = SweepAxis("theta0", 0.0, sys.float_info.max, 4)
        assert top.grid_values()[-1] == math.inf
        values = sweep_grid(cfg, angles, [top]).values
        even = len(angles) % 2 == 0  # 2*(t - theta0) overflows already at 2/3 of the top
        assert [math.isnan(v) for v in values] == [False, False, even, True]

    def test_unknown_case_tag_is_domain_error(self):
        # Not a grid of NaN: the tag is checked once, before any point.
        cfg = CircleConfig(1.0, 0.2, 0.0)
        with pytest.raises(DomainError, match="^unknown case tag 'nonsense'$"):
            sweep_grid(cfg, (0.0, 1.0), [SweepAxis("r0", 0.0, 0.5, 3)], "nonsense")

    def test_random_cells_match_direct_evaluation(self):
        rng = random.Random(9090)
        cfg = random_circle(rng)
        axes = [SweepAxis("theta0", -1.0, 1.0, 4), SweepAxis("r0", 0.0, 0.9 * cfg.a, 3)]
        angles = (0.0, 0.5, 1.0, 1.4)
        grid = sweep_grid(cfg, angles, axes)
        theta0s = axes[0].grid_values()
        r0s = axes[1].grid_values()
        for i, theta0 in enumerate(theta0s):
            for j, r0 in enumerate(r0s):
                expected = residual_eight(
                    CircleConfig(cfg.a, r0, theta0), *angles
                ).residual
                assert grid.values[i * 3 + j] == expected


def _per_point_sweep(cfg, base, axes, case_tag):
    """sweep_grid's contract written out: one CircleConfig and case_residual per point."""
    values = []
    for combo in itertools.product(*(ax.grid_values() for ax in axes)):
        r0, theta0, angles = cfg.r0, cfg.theta0, list(base)
        for ax, value in zip(axes, combo):
            if ax.name == "r0":
                r0 = value
            elif ax.name == "theta0":
                theta0 = value
            else:
                angles[int(ax.name[5:]) - 1] = value
        try:
            values.append(case_residual(CircleConfig(cfg.a, r0, theta0), tuple(angles),
                                        case_tag).residual)
        except DomainError:
            values.append(math.nan)
    return values


def _random_axis(rng, cfg, base):
    """One axis that may leave the domain: r0 across 0 and a, any theta0, or a
    chord angle past its neighbours and past the half-turn."""
    count = rng.choice((1, 2, 4, 7))
    kind = rng.randrange(3)
    if kind == 0:
        lo, hi = rng.choice(((0.0, cfg.a), (0.0, 1.1 * cfg.a), (-0.3 * cfg.a, 0.8 * cfg.a),
                             (0, 1)))
        return SweepAxis("r0", lo, hi, count)
    if kind == 1:
        lo = rng.choice((-4, rng.uniform(-4.0, 4.0)))
        return SweepAxis("theta0", lo, lo + rng.choice((2, rng.uniform(0.0, 3.0))), count)
    k = rng.randint(1, len(base))
    lo = base[k - 1] - rng.uniform(0.0, 2.0)
    hi = base[k - 1] + rng.uniform(0.0, 2.0)
    if rng.random() < 0.25:
        lo, hi = math.floor(lo), math.ceil(hi)
    return SweepAxis(f"theta{k}", lo, hi, count)


class TestSweepMatchesPerPointResidual:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_bit_identical_with_nan_placement(self, n):
        rng = random.Random(1000 + n)
        tags = [None, CASE_GENERAL] + ([{2: CASE_FOUR, 3: CASE_SIX, 4: CASE_EIGHT}[n]]
                                       if 2 <= n <= 4 else [])
        nan_points = 0
        for trial in range(24):
            cfg = random_circle(rng)
            start = rng.uniform(-1.0, 1.0)
            base = sorted(start + rng.uniform(0.0, 3.3) for _ in range(n))
            if n > 1 and trial % 4 == 3:  # a template fan that is itself invalid
                base = base[::-1] if trial % 8 == 3 else base[:-1] + [base[0] + 3.3]
            axes = [_random_axis(rng, cfg, base) for _ in range(rng.randint(1, 3))]
            tag = tags[trial % len(tags)]
            expected = _per_point_sweep(cfg, base, axes, tag)
            got = sweep_grid(cfg, base, axes, tag).values
            assert [v.hex() for v in got] == [v.hex() for v in expected], (cfg, base, axes, tag)
            nan_points += sum(math.isnan(v) for v in expected)
        assert nan_points > 0

    @staticmethod
    def _assert_matches(cfg, base, axes, tag=None):
        expected = _per_point_sweep(cfg, base, axes, tag)
        got = sweep_grid(cfg, base, axes, tag).values
        assert [v.hex() for v in got] == [v.hex() for v in expected], (cfg, base, axes, tag)
        return got

    @pytest.mark.parametrize("base", [(0.1, 0.9), (0.1, 0.9, 1.7), (0.1, 0.5, 0.9, 1.7)])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_r0_axis_first_middle_or_last(self, base, position):
        cfg = CircleConfig(1.3, 0.2, 0.4)
        axes = [SweepAxis("theta0", -1.0, 2.0, 4), SweepAxis("theta2", 0.3, 1.2, 3)]
        axes.insert(position, SweepAxis("r0", 0.0, 1.4, 5))
        self._assert_matches(cfg, base, axes)

    @pytest.mark.parametrize("name, lo, hi", [("r0", 0.0, 0.9), ("theta0", -1.0, 1.5),
                                              ("theta2", 0.3, 1.2)])
    def test_later_of_two_axes_on_one_slot_wins(self, name, lo, hi):
        cfg = CircleConfig(1.0, 0.3, 0.2)
        base = (0.1, 0.7, 1.4)
        first, second = SweepAxis(name, lo, hi, 3), SweepAxis(name, lo + 0.05, hi + 0.1, 4)
        got = self._assert_matches(cfg, base, [first, SweepAxis("theta3", 1.0, 1.6, 2), second])
        alone = sweep_grid(cfg, base, [SweepAxis("theta3", 1.0, 1.6, 2), second]).values
        assert [v.hex() for v in got] == [v.hex() for v in alone] * 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_three_axis_r0_theta0_chord_grid(self, n):
        cfg = CircleConfig(0.8, 0.1, -0.3)
        base = tuple(0.2 + 0.5 * i for i in range(n))
        axes = [SweepAxis("r0", 0.0, 0.85, 6), SweepAxis("theta0", -2.0, 1.0, 5),
                SweepAxis(f"theta{n}", base[-1] - 0.7, base[-1] + 1.0, 7)]
        values = self._assert_matches(cfg, base, axes, CASE_GENERAL)
        assert any(math.isnan(v) for v in values) and not all(math.isnan(v) for v in values)

    @pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (-0.5, -0.1), (2.0, 2.0)])
    def test_every_r0_outside_the_disk_gives_all_nan(self, lo, hi):
        cfg = CircleConfig(1.0, 0.3, 0.2)
        axes = [SweepAxis("theta0", -1.0, 1.0, 3), SweepAxis("r0", lo, hi, 4)]
        values = self._assert_matches(cfg, (0.1, 0.7, 1.4), axes)
        assert all(math.isnan(v) for v in values)

    @pytest.mark.parametrize("base", [(0.9, 0.1), (0.0, 1.0, 3.2), (0.5, 0.5)])
    def test_invalid_template_fan_swept_over_r0_and_theta0_gives_all_nan(self, base):
        cfg = CircleConfig(1.0, 0.3, 0.2)
        axes = [SweepAxis("r0", 0.0, 0.9, 3), SweepAxis("theta0", -1.0, 1.0, 4)]
        values = self._assert_matches(cfg, base, axes)
        assert len(values) == 12 and all(math.isnan(v) for v in values)

    @pytest.mark.parametrize("base", [(0.0, 1.0), (0.0, 0.5, 1.0)])
    def test_theta0_axis_whose_top_value_rounds_to_inf(self, base):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        top = SweepAxis("theta0", 0.0, sys.float_info.max, 4)
        assert top.grid_values()[-1] == math.inf
        values = self._assert_matches(cfg, base, [SweepAxis("r0", 0.0, 0.9, 3), top,
                                                  SweepAxis("theta1", -0.5, 0.2, 2)])
        # Row-major, theta0 has stride 2: index 3 of it is 6 + 8*i + j.
        assert all(math.isnan(values[8 * i + 6 + j]) for i in range(3) for j in range(2))


@pytest.mark.parametrize("base", [(-1.7, 0.8), (-0.5, 0.8, 1.5)])
def test_sweep_checks_each_fan_once_and_phases_each_valid_pair_once(monkeypatch, base):
    """On an r0 x theta0 x theta<k> grid the fan check runs per fan and the phase
    terms per (fan, theta0), never per point."""
    calls = {"check_fan": 0, "_phase_terms": 0}

    def counting(name):
        fn = getattr(solver, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    cfg = CircleConfig(1.0, 0.2, 0.1)
    # theta2 = 0.4 and 1.0 keep the fan valid; 1.6 breaks its half-turn span or its order.
    axes = [SweepAxis("r0", 0.0, 0.8, 5), SweepAxis("theta0", -1.0, 1.0, 4),
            SweepAxis("theta2", 0.4, 1.6, 3)]
    values = sweep_grid(cfg, base, axes).values
    assert [v.hex() for v in values] == [v.hex() for v in _per_point_sweep(cfg, base, axes, None)]
    assert calls["check_fan"] == 3
    assert calls["_phase_terms"] <= 2 * 4
