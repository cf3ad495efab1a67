"""Root finding and parameter sweeps over the balance residuals.

Covers three ways of hunting balanced configurations: bracketed root
refinement in one free boundary angle, analytic inversion for the pole
radius of any fan with an even chord count, and dense residual grids for
downstream contour extraction, which check each distinct fan once and form
its phase terms once per ``theta0``, with ``r0`` innermost.  Every reported
root is cross-checked against the quadrature oracle before it is returned;
the cross-check integrates only the n odd sectors that the residual reads.
Each search computes only what its answer reads: :func:`scan_sign_change`
stops at the first bracketing pair of samples, and
:func:`free_angle_brackets` needs at most three residual values.

The brackets for a free angle are exact, not sampled.  With
``u = t - theta0``, the residual's derivative in one chord angle ``t`` is
``+-(a^2 + r0^2*cos 2u)`` for an even chord count, which never vanishes, and
``+-2*r0*cos u*sqrt(a^2 - r0^2*sin^2 u)`` for an odd one, which changes sign
only where ``cos u = 0``.  So the residual is monotone on the whole feasible
interval, or on the two pieces either side of ``theta0 + pi/2 + m*pi``, and
:func:`free_angle_brackets` finds every root from its values at the ends.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .conditions import _odd_bracket, _phase_terms, _residual_value, case_residual, resolve_case
from .geometry import CircleConfig, DomainError, check_fan
from .oracle import quadrature_residual

# Default ``tol`` of the free-angle and pole-radius solves.
DEFAULT_ROOT_TOL = 1e-11

# Sine sums smaller than this leave the residual essentially independent of
# the pole radius, so no finite inversion is meaningful.
_DEGENERATE_K = 1e-12

_AXIS_NAME = re.compile(r"^(r0|theta0|theta[1-9][0-9]*)$")


class SolverError(RuntimeError):
    """Raised when a bracket is unusable or a tolerance cannot be met."""


@dataclass(frozen=True)
class SolveRequest:
    """One-dimensional root search: free one base angle, hold the rest fixed.

    ``free_index`` is the 0-based slot the freed angle occupies among all
    base angles; ``fixed_angles`` lists the others in increasing order.
    ``tol`` bounds both the bracket width and the residual at the root
    (the latter scaled by a^2).
    """

    cfg: CircleConfig
    fixed_angles: tuple[float, ...]
    free_index: int
    bracket: tuple[float, float]
    tol: float = DEFAULT_ROOT_TOL
    case_tag: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_angles", tuple(float(t) for t in self.fixed_angles))
        object.__setattr__(self, "bracket", (float(self.bracket[0]), float(self.bracket[1])))
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if not self.bracket[0] < self.bracket[1]:
            raise DomainError(f"bracket must be ordered, got {self.bracket!r}")
        if not 0 <= self.free_index <= len(self.fixed_angles):
            raise DomainError(
                f"free_index {self.free_index} out of range for {len(self.fixed_angles)} fixed angles"
            )

    def angles_with(self, value: float) -> tuple[float, ...]:
        k = self.free_index
        return self.fixed_angles[:k] + (value,) + self.fixed_angles[k:]


@dataclass(frozen=True)
class SolveOutcome:
    """A root, the residual it achieves, and the quadrature cross-check."""

    root: float
    residual_at_root: float
    iterations: int
    oracle_check: float


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: ``r0``, ``theta0``, or ``theta<k>`` (1-based chord)."""

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if not _AXIS_NAME.match(self.name):
            raise DomainError(f"unknown sweep axis {self.name!r} (use r0, theta0, or theta<k>)")
        if self.count < 1:
            raise DomainError(f"axis {self.name!r} needs count >= 1, got {self.count}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise DomainError(f"axis {self.name!r} range must be ordered and finite")
        if not math.isfinite(self.hi - self.lo):
            raise DomainError(f"axis {self.name!r} range is too wide: hi - lo overflows")

    def grid_values(self) -> list[float]:
        if self.count == 1:
            return [self.lo]
        step = (self.hi - self.lo) / (self.count - 1)
        return [self.lo + i * step for i in range(self.count)]


@dataclass(frozen=True)
class ResidualGrid:
    """Dense residual evaluation in row-major order over the axes.

    Grid points whose parameters violate the case preconditions hold NaN,
    the reserved not-a-value marker; they are never silently dropped, so
    ``len(values)`` always equals the product of the axis counts.
    """

    axes: tuple[SweepAxis, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        expected = math.prod(ax.count for ax in self.axes)
        if len(self.values) != expected:
            raise DomainError(
                f"grid holds {len(self.values)} values but axes imply {expected}"
            )


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float,
    ftol: float,
    max_iter: int = 200,
) -> tuple[float, float, int]:
    """Safeguarded hybrid root refinement on a sign-change bracket.

    Tries a secant step from the two most recent evaluations and falls back
    to bisection whenever the candidate leaves the current bracket.  Stops
    as soon as ``|f| <= ftol``, and fails if the bracket first narrows to
    ``xtol``, or to two neighbouring doubles with none between them.
    Returns ``(root, f(root), iterations)``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SolverError(f"invalid bracket [{lo!r}, {hi!r}]")
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo, 0.0, 0
    if fb == 0.0:
        return hi, 0.0, 0
    if (fa > 0.0) == (fb > 0.0):
        raise SolverError(
            f"no sign change in bracket [{lo!r}, {hi!r}]: f(lo)={fa!r}, f(hi)={fb!r}"
        )
    if abs(fa) <= ftol:
        return lo, fa, 0
    if abs(fb) <= ftol:
        return hi, fb, 0

    a, b = lo, hi
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for iteration in range(1, max_iter + 1):
        x_new = None
        if f_cur != f_prev:
            secant = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
            if a < secant < b:
                x_new = secant
        if x_new is None:
            x_new = 0.5 * (a + b)
        f_new = f(x_new)
        if abs(f_new) <= ftol:
            return x_new, f_new, iteration
        if (f_new > 0.0) == (fa > 0.0):
            a, fa = x_new, f_new
        else:
            b, fb = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        # Both ends were checked against ftol when they were evaluated.
        if b - a <= xtol:
            raise SolverError(
                f"bracket narrowed to {b - a!r} but |residual|={min(abs(fa), abs(fb))!r} "
                f"stays above {ftol!r}"
            )
        if not a < 0.5 * (a + b) < b:
            raise SolverError(
                f"bracket [{a!r}, {b!r}] is at float resolution but |residual|="
                f"{min(abs(fa), abs(fb))!r} stays above {ftol!r}"
            )
    raise SolverError(f"max iterations ({max_iter}) exceeded")


def scan_sign_change(
    f: Callable[[float], float], lo: float, hi: float, points: int = 64
) -> tuple[float, float]:
    """Uniform scan for a sign-change sub-bracket.

    Convenience heuristic: it only inspects ``points`` samples, so a sign
    change squeezed between neighbouring samples can be missed.  Samples
    ``lo + i*step`` are evaluated in order, and the scan stops at the first
    pair ``(x_i, x_{i+1})`` that brackets a root: ``f(x_i) == 0.0`` (after
    ``i + 1`` calls of ``f``) or a sign change (after ``i + 2``).  A zero at
    the last sample returns the last pair.  ``f`` is never called past the
    bracket it returns.
    """
    if points < 2:
        raise SolverError("scan needs at least two points")
    if not lo < hi:
        raise SolverError(f"invalid scan range [{lo!r}, {hi!r}]")
    step = (hi - lo) / (points - 1)
    xs = [lo + i * step for i in range(points)]
    f_prev = f(xs[0])
    for i in range(points - 1):
        if f_prev == 0.0:
            return xs[i], xs[i + 1]
        f_next = f(xs[i + 1])
        if (f_prev > 0.0) != (f_next > 0.0):
            return xs[i], xs[i + 1]
        f_prev = f_next
    if f_prev == 0.0:
        return xs[-2], xs[-1]
    raise SolverError(f"no sign change found scanning [{lo!r}, {hi!r}] with {points} points")


def feasible_interval(
    fixed_angles: Sequence[float], free_index: int
) -> tuple[float, float]:
    """Open interval of values the freed angle may take beside ``fixed_angles``.

    Bounded by the neighbouring fixed angles and by the half-turn window of
    the whole fan.  Raises when there are no fixed angles (the freed angle
    would be unconstrained) or when ``free_index`` is outside
    ``0..len(fixed_angles)``.
    """
    fixed = tuple(float(t) for t in fixed_angles)
    if not fixed:
        raise SolverError("cannot infer a bracket for a fan with a single free chord")
    if not 0 <= free_index <= len(fixed):
        raise DomainError(f"free_index {free_index} out of range for {len(fixed)} fixed angles")
    lo = fixed[free_index - 1] if free_index >= 1 else fixed[-1] - math.pi
    hi = fixed[free_index] if free_index < len(fixed) else fixed[0] + math.pi
    if not lo < hi:
        raise SolverError(f"fixed angles leave no room at slot {free_index}")
    return lo, hi


def free_angle_brackets(
    cfg: CircleConfig, fixed_angles: Sequence[float], free_index: int
) -> tuple[tuple[float, float], ...]:
    """Every sign-change bracket of the residual in the freed angle, lowest first.

    The search range is :func:`feasible_interval` pulled in from both ends
    by ``4*ulp(max(|lo|, |hi|) + pi)``, a few roundings of the largest value
    the fan check forms.  So both ends stay valid fans (the ``+ pi`` covers
    the half-turn span test when the angles are small), and only a root
    closer than that to a neighbouring chord or the half-turn edge is left
    out.  For an odd chord count the range is split at the one residual
    extremum ``theta0 + pi/2 + m*pi`` that falls inside, if any; each piece
    is then monotone (see the module docstring), so a piece holds a root
    exactly when its end values change sign or one is 0.0.  Takes at most
    three residual evaluations.  Raises :class:`SolverError` when no piece
    holds a root.
    """
    fixed = tuple(float(t) for t in fixed_angles)
    lo, hi = feasible_interval(fixed, free_index)
    margin = 4.0 * math.ulp(max(abs(lo), abs(hi)) + math.pi)
    lo, hi = lo + margin, hi - margin
    if not lo < hi:
        raise SolverError(f"fixed angles leave no room at slot {free_index}")
    a, r0, theta0 = cfg.a, cfg.r0, cfg.theta0
    head, tail = fixed[:free_index], fixed[free_index:]
    ends = [lo, hi]
    values = [_residual_value(a, r0, theta0, head + (t,) + tail) for t in ends]
    if len(fixed) % 2 == 0:  # odd chord count
        # The end values are finite, so lo - theta0 is too.
        turn = math.ceil((lo - theta0 - 0.5 * math.pi) / math.pi)
        split = theta0 + (0.5 + turn) * math.pi
        if lo < split < hi:
            ends.insert(1, split)
            values.insert(1, _residual_value(a, r0, theta0, head + (split,) + tail))
    brackets = tuple(
        (x0, x1)
        for x0, x1, f0, f1 in zip(ends, ends[1:], values, values[1:])
        if f0 == 0.0 or f1 == 0.0 or (f0 > 0.0) != (f1 > 0.0)
    )
    if not brackets:
        raise SolverError(
            f"no sign change of the residual over [{lo!r}, {hi!r}] at slot {free_index}"
        )
    return brackets


def _accepted(cfg: CircleConfig, angles: tuple[float, ...], root: float, residual: float,
              iterations: int, tol: float) -> SolveOutcome:
    """The one acceptance rule of every solve: ``root`` stands only if |``residual``| <= tol*a^2
    and the quadrature residual of ``angles`` is within 100*tol*a^2, else :class:`SolverError`."""
    oracle = quadrature_residual(cfg, angles)
    a2 = cfg.a * cfg.a
    if abs(residual) > tol * a2 or abs(oracle) > 100.0 * tol * a2:
        raise SolverError(f"root {root!r} fails the residual check: closed={residual!r}, "
                          f"quadrature cross-check={oracle!r}")
    return SolveOutcome(root, residual, iterations, oracle)


def solve_free_angle(req: SolveRequest) -> SolveOutcome:
    """Refine one boundary angle to a balance root inside ``req.bracket``.

    The residual must change sign over the bracket and the fan must stay
    validly ordered at both bracket ends (the feasible set in the freed
    angle is an interval, so interior points are then valid too).
    """
    lo, hi = req.bracket
    for end in (lo, hi):
        try:
            check_fan(req.angles_with(end))
        except DomainError as exc:
            raise SolverError(f"ordering violated inside bracket at {end!r}: {exc}") from exc

    # Every point of the bracket is a valid fan, so f needs no check of its own.
    resolve_case(req.case_tag, len(req.fixed_angles) + 1)
    cfg = req.cfg

    def f(value: float) -> float:
        return _residual_value(cfg.a, cfg.r0, cfg.theta0, req.angles_with(value))

    root, froot, iterations = find_root(f, lo, hi, xtol=req.tol, ftol=req.tol * (cfg.a * cfg.a))
    return _accepted(cfg, req.angles_with(root), root, froot, iterations, req.tol)


def solve_pole_radius(
    angles: Sequence[float],
    theta0: float,
    a: float,
    case_tag: str | None = None,
    tol: float = DEFAULT_ROOT_TOL,
) -> SolveOutcome:
    """Pole radius that balances a fixed fan, by analytic inversion.

    For any even chord count the residual is ``(r0^2/2)*K + a^2*L``, with
    ``K`` the alternating sine sum and ``L`` the angular deficit (odd widths
    minus pi/2), so the root is ``r0 = a*sqrt(-2L/K)`` whenever
    ``0 <= -2L/K < 1``.  ``case_tag`` is checked against the chord count, or
    inferred from it when None.  An odd chord count is a domain error: its
    residual is not of this form.  Degenerate sine sums (condition
    independent of r0) and ratios outside the unit interval are reported as
    solver failures.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    base = tuple(float(t) for t in angles)
    case_tag = resolve_case(case_tag, len(base))
    check_fan(base)
    if len(base) % 2:
        raise DomainError(f"pole-radius inversion needs an even chord count, got {len(base)}")
    K, L = _phase_terms(theta0, base)  # even n: K and L do not depend on r0
    if abs(K) <= _DEGENERATE_K:
        raise SolverError(
            f"degenerate configuration: sine sum K={K!r} makes the residual independent of r0"
        )
    ratio = -2.0 * L / K
    if not 0.0 <= ratio < 1.0:
        raise SolverError(f"no interior solution: -2L/K = {ratio!r} falls outside [0, 1)")
    r0 = a * math.sqrt(ratio)
    cfg = CircleConfig(a=a, r0=r0, theta0=theta0)
    return _accepted(cfg, base, r0, case_residual(cfg, base, case_tag).residual, 0, tol)


def _level(start: tuple[float, ...], axes: list[tuple[int, int, list[float]]]
           ) -> list[tuple[int, tuple[float, ...]]]:
    """``(row-major offset, values)`` of every combination of one loop level's axes.

    Each axis is ``(slot in start, stride, grid values)``, in axis order, so
    of two axes on one slot the later wins; no axis gives ``[(0, start)]``.
    """
    point = list(start)
    slots = [slot for slot, _, _ in axes]
    out = []
    for combo in itertools.product(*([(i * stride, value) for i, value in enumerate(values)]
                                     for _, stride, values in axes)):
        offset = 0
        for slot, (part, value) in zip(slots, combo):
            offset += part
            point[slot] = value
        out.append((offset, tuple(point)))
    return out


def sweep_grid(
    cfg: CircleConfig,
    base_angles: Sequence[float],
    axes: Sequence[SweepAxis],
    case_tag: str | None = None,
) -> ResidualGrid:
    """Corrected residual over the cartesian product of the axes, row-major.

    Axis values override the template's ``r0``, ``theta0``, or one base
    angle per grid point; points violating the case preconditions are
    recorded as NaN.  The loops run in the order the residual reads its
    inputs: each distinct fan once (one :func:`check_fan`), within it each
    ``theta0`` once (one :func:`_phase_terms`), and within that each ``r0``,
    which costs only the rest of :func:`_residual_value`'s arithmetic.  So
    every value is bit-identical to evaluating the point on its own.
    """
    axes = tuple(axes)
    if not axes:
        raise DomainError("sweep needs at least one axis")
    base = tuple(float(t) for t in base_angles)
    resolve_case(case_tag, len(base))
    # Split the axes by the input they move; each writes one slot of its level's point.
    r0_axes, theta0_axes, angle_axes = [], [], []
    size = stride = math.prod(ax.count for ax in axes)
    for ax in axes:
        stride //= ax.count
        values = [float(v) for v in ax.grid_values()]
        if ax.name == "r0":
            r0_axes.append((0, stride, values))
        elif ax.name == "theta0":
            theta0_axes.append((0, stride, values))
        else:
            k = int(ax.name[5:])
            if k > len(base):
                raise DomainError(f"axis {ax.name!r} exceeds the {len(base)} base angles")
            angle_axes.append((k - 1, stride, values))
    a = cfg.a
    a2 = a * a
    half_a2 = 0.5 * a * a
    odd = len(base) % 2
    # Per pole radius in [0, a): its offset, 0.5*r0*r0 and r0/a, as _residual_value forms them.
    poles = [(offset, 0.5 * r0 * r0, r0 / a)
             for offset, (r0,) in _level((cfg.r0,), r0_axes) if 0.0 <= r0 < a]
    phases = [(offset, theta0) for offset, (theta0,) in _level((cfg.theta0,), theta0_axes)]

    values = [math.nan] * size
    for fan_offset, angles in _level(base, angle_axes):
        try:
            check_fan(angles)
        except DomainError:
            continue
        for phase_offset, theta0 in phases:
            # Raises where t - theta0 overflows, or theta0 rounded to inf at
            # the top of its axis; those points stay NaN.
            try:
                terms = _phase_terms(theta0, angles)
            except DomainError:
                continue
            offset = fan_offset + phase_offset
            if odd:
                for pole_offset, _, rho in poles:
                    values[offset + pole_offset] = half_a2 * _odd_bracket(rho, terms)
            else:
                k_sum, deficit = terms
                shift = a2 * deficit
                for pole_offset, half_r0_sq, _ in poles:
                    values[offset + pole_offset] = half_r0_sq * k_sum + shift
    return ResidualGrid(axes=axes, values=tuple(values))
