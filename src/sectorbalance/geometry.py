"""Closed-form sector areas of a disk viewed from an interior pole.

A circle of radius ``a`` whose centre sits at polar coordinates
``(r0, theta0)`` relative to the pole has the polar boundary

    r(theta) = r0*cos(theta - theta0) + sqrt(a^2 - r0^2*sin^2(theta - theta0))

as long as the pole lies strictly inside (``0 <= r0 < a``).  A fan of n
concurrent chords through the pole cuts the disk into 2n sectors, and the
area of the sector between two rays is the polar integral
``(1/2) * Int r(theta)^2 dtheta``.  This module evaluates that integral
through an exact antiderivative and assembles per-sector reports with the
alternating (odd/even) area sums.  It also owns the two decisions under every
result: which base angles form a valid fan (:func:`check_fan`) and where each
sector starts and ends (:attr:`SectorPartition.sectors`).

All boundary angles are unwrapped real numbers: they increase monotonically
and are never reduced modulo 2*pi internally, which keeps interval lengths
and telescoping identities free of branch-cut artifacts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NoReturn, Sequence

TWO_PI = 2.0 * math.pi

# Absolute slack applied when checking a span against an exact half or full
# turn: sums like (theta + pi) carry at most a few ulp of rounding.
_TURN_SLACK = 1e-12


class DomainError(ValueError):
    """Raised when a circle, fan, partition, or interval is out of domain."""


@dataclass(frozen=True)
class CircleConfig:
    """Circle of radius ``a`` with centre at ``(r0, theta0)`` from the pole.

    The pole must lie strictly inside the circle, i.e. ``0 <= r0 < a``.
    The disk area ``pi*a^2`` must be finite and ``a^2`` a normal double, so
    about ``1.5e-154 <= a <= 7.5e153``; outside that range every area and
    residual would overflow to inf/NaN or lose its digits to underflow.
    ``theta0`` is stored as given; it is only reduced for display purposes.
    """

    a: float
    r0: float
    theta0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"radius a must be finite and positive, got {self.a!r}")
        if not (math.isfinite(math.pi * self.a * self.a) and self.a * self.a >= sys.float_info.min):
            raise DomainError(
                "radius a must keep pi*a^2 finite and a^2 normal "
                f"(about 1.5e-154 <= a <= 7.5e153), got {self.a!r}"
            )
        if not (math.isfinite(self.r0) and 0.0 <= self.r0 < self.a):
            raise DomainError(
                f"pole offset r0 must satisfy 0 <= r0 < a, got r0={self.r0!r}, a={self.a!r}"
            )
        if not math.isfinite(self.theta0):
            raise DomainError(f"theta0 must be finite, got {self.theta0!r}")


def _reject_fan(angles: Sequence[float], problem: str) -> NoReturn:
    for t in angles:
        if not math.isfinite(t):
            raise DomainError(f"chord angles must be finite, got {t!r}")
    raise DomainError(f"chord angles must {problem}")


def check_fan(angles: Sequence[float]) -> None:
    """Raise :class:`DomainError` unless ``angles`` are valid chord base angles.

    A fan needs at least one angle, strictly increasing, spanning less than
    a half-turn.  NaN and +-inf always fail the order or span test, so
    finiteness is looked at only on the way to the error.
    """
    if not angles:
        raise DomainError("a chord fan needs at least one base angle")
    for lo, hi in zip(angles, angles[1:]):
        if not hi > lo:
            _reject_fan(angles, f"be strictly increasing, got {lo!r} before {hi!r}")
    span = angles[-1] - angles[0]
    if not span < math.pi:
        _reject_fan(angles, f"span less than a half-turn, got span {span!r}")


@dataclass(frozen=True)
class ChordFan:
    """n >= 1 chord base angles, strictly increasing within one open half-turn.

    Each chord joins the boundary points at ``phi`` and ``phi + pi`` as seen
    from the pole; confining all base angles to a window narrower than pi
    guarantees the chords are pairwise distinct.
    """

    base_angles: tuple[float, ...]

    def __post_init__(self) -> None:
        angles = tuple(float(t) for t in self.base_angles)
        object.__setattr__(self, "base_angles", angles)
        check_fan(angles)

    @property
    def n(self) -> int:
        return len(self.base_angles)


@dataclass(frozen=True)
class SectorPartition:
    """2n sector boundary angles with antipodal closure.

    Boundary ``n + i`` is boundary ``i`` plus pi, so opposite boundaries are
    the two ends of one chord.
    """

    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        b = tuple(float(t) for t in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if len(b) < 2 or len(b) % 2 != 0:
            raise DomainError(f"partition needs an even number (>= 2) of boundaries, got {len(b)}")
        for lo, hi in zip(b, b[1:]):
            if not hi > lo:
                raise DomainError("partition boundaries must be strictly increasing")
        if b[-1] - b[0] >= TWO_PI:
            raise DomainError("partition boundaries must span less than a full turn")
        n = len(b) // 2
        for i in range(n):
            # build_partition rounds t + pi to the nearest double, which is off
            # by up to half an ulp of the antipode: more than the slack past 1.6e4.
            if abs(b[n + i] - b[i] - math.pi) > max(_TURN_SLACK, math.ulp(b[n + i])):
                raise DomainError(
                    f"boundary {n + i + 1} must be boundary {i + 1} plus pi "
                    f"(got difference {b[n + i] - b[i]!r})"
                )

    @property
    def sector_count(self) -> int:
        return len(self.boundaries)

    @property
    def sectors(self) -> tuple[tuple[float, float], ...]:
        """The ``(lo, hi)`` interval of every sector, in boundary order.

        The last sector wraps from the final boundary back to the first
        boundary plus a full turn, so the sectors cover the disk exactly once.
        """
        b = self.boundaries
        return tuple(zip(b, b[1:] + (b[0] + TWO_PI,)))


@dataclass(frozen=True)
class AreaReport:
    """Per-sector areas plus the alternating sums.

    Sector 1 spans the first boundary interval; ``odd_sum`` collects sectors
    1, 3, 5, ... and ``even_sum`` the rest (1-based labels).
    """

    sector_areas: tuple[float, ...]
    odd_sum: float
    even_sum: float
    total: float

    @classmethod
    def from_areas(cls, areas: Iterable[float]) -> AreaReport:
        """Report for sector areas given in boundary order."""
        areas = tuple(areas)
        odd = math.fsum(areas[0::2])
        even = math.fsum(areas[1::2])
        return cls(sector_areas=areas, odd_sum=odd, even_sum=even, total=odd + even)


def radial_distance(cfg: CircleConfig, theta: float) -> float:
    """Distance from the pole to the circle along the ray at ``theta``.

    Strictly positive and 2*pi-periodic; the radicand is bounded below by
    ``a^2 - r0^2 > 0``, so no domain checks are needed per call.
    """
    u = theta - cfg.theta0
    s = cfg.r0 * math.sin(u)
    return cfg.r0 * math.cos(u) + math.sqrt(cfg.a * cfg.a - s * s)


def substituted_angle(cfg: CircleConfig, theta: float) -> float:
    """Auxiliary angle ``x = arcsin((r0/a)*sin(theta - theta0))``.

    Principal branch; ``|x| < pi/2`` because ``r0/a < 1``.  Antipodal rays
    give opposite values: ``x(theta + pi) = -x(theta)``.
    """
    return math.asin((cfg.r0 / cfg.a) * math.sin(theta - cfg.theta0))


def _check_phases(theta0: float, angles: tuple[float, ...], scale: float) -> None:
    """Raise :class:`DomainError` if ``scale*(t - theta0)`` overflows for some angle.

    Called only once ``math.sin`` has raised, so a valid fan pays nothing.
    """
    for t in angles:
        if not math.isfinite(scale * (t - theta0)):
            raise DomainError(
                f"chord angle {t!r} lies too far from theta0 {theta0!r}: "
                "the closed form's angle difference overflows"
            )


def _check_interval(theta_a: float, theta_b: float) -> float:
    """Validate an unwrapped angular interval; returns its width."""
    if not (math.isfinite(theta_a) and math.isfinite(theta_b)):
        raise DomainError("interval endpoints must be finite")
    delta = theta_b - theta_a
    if not delta > 0.0:
        raise DomainError(f"need theta_a < theta_b, got [{theta_a!r}, {theta_b!r}]")
    # Only the rounding of forming the far end, as in theta_a + 2*pi.
    slack = max(_TURN_SLACK, 0.5 * math.ulp(max(abs(theta_a), abs(theta_b))))
    if delta > TWO_PI + slack:
        raise DomainError(f"interval width {delta!r} exceeds a full turn")
    return delta


def sector_area_closed(cfg: CircleConfig, theta_a: float, theta_b: float) -> float:
    """Exact area of the sector between the rays at ``theta_a`` and ``theta_b``.

    Evaluates the antiderivative of ``(1/2) r(theta)^2``:

        S = (a^2/2)*(tb - ta)
          + (r0^2/4)*[sin 2(tb - theta0) - sin 2(ta - theta0)]
          + (a^2/2)*[(xb - xa) + (sin 2xb - sin 2xa)/2]

    with ``x* = substituted_angle(cfg, theta*)``.  The form is additive over
    subdivisions, continuous at r0 = 0 (where all x* vanish), and yields
    pi*a^2 over a full turn.
    """
    delta = _check_interval(theta_a, theta_b)
    a2 = cfg.a * cfg.a
    try:
        xa = substituted_angle(cfg, theta_a)
        xb = substituted_angle(cfg, theta_b)
        harmonic = math.sin(2.0 * (theta_b - cfg.theta0)) - math.sin(2.0 * (theta_a - cfg.theta0))
    except ValueError:
        # math.sin raises only on an infinite argument.
        _check_phases(cfg.theta0, (theta_a, theta_b), 2.0)
        raise
    radical = (xb - xa) + 0.5 * (math.sin(2.0 * xb) - math.sin(2.0 * xa))
    return 0.5 * a2 * delta + 0.25 * cfg.r0 * cfg.r0 * harmonic + 0.5 * a2 * radical


def build_partition(fan: ChordFan) -> SectorPartition:
    """Sector boundaries induced by a chord fan: the base angles, then their antipodes."""
    base = fan.base_angles
    return SectorPartition(base + tuple(t + math.pi for t in base))


def area_report(cfg: CircleConfig, part: SectorPartition) -> AreaReport:
    """All 2n sector areas, over :attr:`SectorPartition.sectors`, and their alternating sums."""
    return AreaReport.from_areas(sector_area_closed(cfg, lo, hi) for lo, hi in part.sectors)


def opposite_pair_sum(cfg: CircleConfig, theta_a: float, theta_b: float) -> float:
    """Combined area of the sector on [theta_a, theta_b] and its antipode.

    Equals ``a^2*delta + r0^2*sin(delta)*cos(theta_a + theta_b - 2*theta0)``:
    the arcsine terms of the two sectors cancel by antipodal antisymmetry.
    Requires ``delta < pi`` so that the two sectors do not overlap.
    """
    delta = _check_interval(theta_a, theta_b)
    if delta >= math.pi:
        raise DomainError(f"pair width must be below a half-turn, got {delta!r}")
    return cfg.a * cfg.a * delta + cfg.r0 * cfg.r0 * math.sin(delta) * math.cos(
        theta_a + theta_b - 2.0 * cfg.theta0
    )
