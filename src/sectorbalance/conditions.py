"""Balance residuals and the equal-area predicates for chord fans.

The balance residual of a fan is the odd-sector area sum minus half the disk
area; it vanishes exactly when the alternating sector sums are equal.  With
base angles ``t_1 < ... < t_n`` and the alternating sign ``s_i = (-1)^i``,
one closed form serves every chord count and costs O(n):

    even n:  (r0^2/2)*K + a^2*L,  K = sum s_i*sin 2(t_i-theta0),
                                  L = sum s_i*t_i - pi/2
    odd n:   (a^2/2) * sum s_i*(2x_i + sin 2x_i),
             x_i = arcsin((r0/a)*sin(t_i-theta0))

For even n the arcsine terms of opposite sectors cancel; for odd n they
persist, so equal spacing alone does not balance the fan.  The closed form
splits where ``r0`` enters: :func:`_phase_terms` depends only on ``theta0``
and the fan (``K`` and ``L``, or the sines ``sin(t_i - theta0)``), and
:func:`_odd_bracket` takes those sines and ``r0/a`` to the arcsine bracket,
so a sweep forms the phase terms once per (fan, ``theta0``).  Two, three, and
four chords (four, six, and eight sectors) keep their own case tags and
entry points; every other count is the ``general-n`` case.
:func:`residual_general` instead sums the 2n per-sector areas, an
independent route kept to cross-check the closed form.

The six-sector case ships in two variants.  The default ``corrected`` form
is validated against the quadrature oracle.  The ``as-printed`` form is a
legacy transcription kept only for auditing: it carries an extra
``(r0^2/2)`` trigonometric term that actually telescopes to zero and scales
the arcsine bracket by ``(a/r0)^2`` instead of ``a^2/2``, which makes it
dimensionally inconsistent and undefined at ``r0 = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .geometry import (
    ChordFan,
    CircleConfig,
    DomainError,
    _check_phases,
    area_report,
    build_partition,
    check_fan,
)

CASE_FOUR = "four"
CASE_SIX = "six"
CASE_EIGHT = "eight"
CASE_GENERAL = "general-n"

VARIANT_CORRECTED = "corrected"
VARIANT_AS_PRINTED = "as-printed"

# Default tolerance for the equal-area predicates (radians / dimensionless).
DEFAULT_PREDICATE_TOL = 1e-9


@dataclass(frozen=True)
class ResidualReport:
    """Balance residual together with the inputs that produced it."""

    case_tag: str
    variant: str
    residual: float
    cfg: CircleConfig
    angles: tuple[float, ...]


class FourSectorCheck(NamedTuple):
    width_ok: bool
    sine_ok: bool


class SixSectorCheck(NamedTuple):
    sine_ok: bool
    bracket_ok: bool


class EightSectorCheck(NamedTuple):
    width_ok: bool
    sine_ok: bool
    #: cos(t4-t2) - tan(t1+t3-2*theta0)*cos(t3-t1); None when the tangent
    #: argument sits on a pole of tan and the form is indeterminate.
    tan_form: Optional[float]


def _phase_terms(theta0: float, angles: tuple[float, ...]) -> tuple[float, float] | list[float]:
    """The part of the closed-form residual that ``r0`` does not reach, in O(n).

    Even n returns ``(K, L)``; odd n returns ``[sin(t_i - theta0)]``, which
    :func:`_odd_bracket` turns into the arcsine bracket for one ``r0/a``.
    The accumulation order is fixed (chord pairs in turn), so the two- and
    four-chord residuals round exactly as their written-out formulas.
    Raises :class:`DomainError` where ``t - theta0`` (or twice it) overflows.
    """
    sin = math.sin
    n = len(angles)
    try:
        if n % 2 == 0:
            lo, hi = angles[0], angles[1]
            k_sum = sin(2.0 * (hi - theta0)) - sin(2.0 * (lo - theta0))
            width = hi - lo
            for i in range(2, n, 2):
                lo, hi = angles[i], angles[i + 1]
                k_sum += sin(2.0 * (hi - theta0))
                k_sum -= sin(2.0 * (lo - theta0))
                width += hi - lo
            return k_sum, width - 0.5 * math.pi
        sines = []  # a loop, not a comprehension: cheaper on the short fans that dominate
        for t in angles:
            sines.append(sin(t - theta0))
        return sines
    except ValueError:
        # math.sin raises only on an infinite argument.
        _check_phases(theta0, angles, 1.0 if n % 2 else 2.0)
        raise


def _odd_bracket(rho: float, sines: list[float]) -> float:
    """The arcsine bracket ``sum s_i*(2x_i + sin 2x_i)`` of an odd fan; ``rho = r0/a``.

    ``sines`` are :func:`_phase_terms`' ``sin(t_i - theta0)``.  The order is
    fixed (the even-indexed x ascending, then the odd-indexed x descending,
    then the sines from t_n down to t_1), so the three-chord residual rounds
    exactly as its written-out formula.
    """
    sin = math.sin
    asin = math.asin
    xs = []
    for s in sines:
        xs.append(asin(rho * s))
    n = len(xs)
    # Start from x_2 itself, not 0.0 + x_2, to keep the sign of a zero.
    x_sum = xs[1] if n > 1 else 0.0
    for i in range(3, n, 2):
        x_sum += xs[i]
    for i in range(n - 1, -1, -2):
        x_sum -= xs[i]
    bracket = 2.0 * x_sum
    for i in range(n - 1, 0, -2):
        bracket -= sin(2.0 * xs[i])
        bracket += sin(2.0 * xs[i - 1])
    return bracket - sin(2.0 * xs[0])


def _residual_value(a: float, r0: float, theta0: float, angles: tuple[float, ...]) -> float:
    """Corrected balance residual of an already validated fan and pole ``0 <= r0 < a``."""
    terms = _phase_terms(theta0, angles)
    if len(angles) % 2:
        return 0.5 * a * a * _odd_bracket(r0 / a, terms)
    k_sum, deficit = terms
    return 0.5 * r0 * r0 * k_sum + a * a * deficit


def _corrected(cfg: CircleConfig, angles: tuple[float, ...], case_tag: str) -> ResidualReport:
    """The corrected report of a fan, built here and nowhere else: fan check, then closed form."""
    check_fan(angles)
    value = _residual_value(cfg.a, cfg.r0, cfg.theta0, angles)
    return ResidualReport(case_tag, VARIANT_CORRECTED, value, cfg, angles)


def residual_eight(
    cfg: CircleConfig, t1: float, t2: float, t3: float, t4: float
) -> ResidualReport:
    """Four-chord balance residual.

    ``(r0^2/2)[sin 2(t2-theta0) - sin 2(t1-theta0) + sin 2(t4-theta0)
    - sin 2(t3-theta0)] + a^2*(t2 - t1 + t4 - t3 - pi/2)``; zero exactly when
    the odd and even sector sums are equal.
    """
    return _corrected(cfg, (t1, t2, t3, t4), CASE_EIGHT)


def residual_four(cfg: CircleConfig, t1: float, t2: float) -> ResidualReport:
    """Two-chord balance residual.

    ``(r0^2/2)[sin 2(t2-theta0) - sin 2(t1-theta0)] + a^2*(t2 - t1 - pi/2)``.
    """
    return _corrected(cfg, (t1, t2), CASE_FOUR)


def residual_six(
    cfg: CircleConfig,
    t1: float,
    t2: float,
    t3: float,
    variant: str = VARIANT_CORRECTED,
) -> ResidualReport:
    """Three-chord balance residual, corrected by default.

    corrected:   (a^2/2) * bracket
    as-printed:  (r0^2/2)[sin 2(t3-theta0) - sin 2(t1-theta0)] + (a/r0)^2 * bracket

    where ``bracket = 2(x2-x3-x1) - sin 2x3 + sin 2x2 - sin 2x1``.  The
    as-printed variant exists for audit comparisons only and is a domain
    error at r0 = 0 and wherever ``(a/r0)^2`` overflows.
    """
    angles = (t1, t2, t3)
    if variant == VARIANT_CORRECTED:
        return _corrected(cfg, angles, CASE_SIX)
    check_fan(angles)
    bracket = _odd_bracket(cfg.r0 / cfg.a, _phase_terms(cfg.theta0, angles))
    if variant != VARIANT_AS_PRINTED:
        raise DomainError(f"unknown residual variant {variant!r}")
    if cfg.r0 == 0.0:
        raise DomainError("as-printed six-sector residual is undefined at r0 = 0")
    try:
        scale = (cfg.a / cfg.r0) ** 2  # inf, not OverflowError, once a/r0 is already inf
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise DomainError(
            f"as-printed six-sector residual is undefined at r0 = {cfg.r0!r}: (a/r0)^2 overflows"
        )
    sines = _phase_terms(cfg.theta0, (t1, t3))[0]
    value = 0.5 * cfg.r0 * cfg.r0 * sines + scale * bracket
    return ResidualReport(CASE_SIX, variant, value, cfg, angles)


def residual_general(cfg: CircleConfig, fan: ChordFan) -> ResidualReport:
    """Balance residual for any chord count, summed from the 2n sector areas.

    Slower than the closed form that :func:`case_residual` uses, and
    independent of it, so it serves as the cross-check.  It builds the
    antipodal partition, so it raises on some fans whose span lies within
    rounding of a half-turn; the closed form accepts them.
    """
    report = area_report(cfg, build_partition(fan))
    value = report.odd_sum - 0.5 * math.pi * cfg.a * cfg.a
    return ResidualReport(CASE_GENERAL, VARIANT_CORRECTED, value, cfg, fan.base_angles)


_CASE_SIZES = {CASE_FOUR: 2, CASE_SIX: 3, CASE_EIGHT: 4}
_CASE_BY_SIZE = {size: tag for tag, size in _CASE_SIZES.items()}


def resolve_case(case_tag: str | None, n: int) -> str:
    """The case tag that :func:`case_residual` uses for ``n`` base angles.

    ``None`` infers it: two, three, and four angles map to ``four``,
    ``six``, and ``eight``, any other count to ``general-n``.  An explicit
    tag must be known and, unless it is ``general-n``, match ``n``.
    """
    if case_tag is None:
        return _CASE_BY_SIZE.get(n, CASE_GENERAL)
    if case_tag == CASE_GENERAL:
        return case_tag
    expected = _CASE_SIZES.get(case_tag)
    if expected is None:
        raise DomainError(f"unknown case tag {case_tag!r}")
    if n != expected:
        raise DomainError(f"case {case_tag!r} takes {expected} base angles, got {n}")
    return case_tag


def case_residual(
    cfg: CircleConfig, angles: tuple[float, ...], case_tag: str | None = None
) -> ResidualReport:
    """Dispatch to the residual for ``case_tag``, inferring it from ``len(angles)``.

    Two, three, and four base angles go through :func:`residual_four`,
    :func:`residual_six`, and :func:`residual_eight`; any other count (or an
    explicit ``general-n``) evaluates the same closed form once
    :func:`check_fan` accepts the angles.
    """
    angles = tuple(map(float, angles))
    case_tag = resolve_case(case_tag, len(angles))
    if case_tag == CASE_FOUR:
        return residual_four(cfg, *angles)
    if case_tag == CASE_SIX:
        return residual_six(cfg, *angles)
    if case_tag == CASE_EIGHT:
        return residual_eight(cfg, *angles)
    return _corrected(cfg, angles, CASE_GENERAL)


def special_case_eight(
    cfg: CircleConfig,
    t1: float,
    t2: float,
    t3: float,
    t4: float,
    tol: float = DEFAULT_PREDICATE_TOL,
) -> EightSectorCheck:
    """Sufficient equal-area conditions for four chords.

    Checks the width condition ``(t2-t1)+(t4-t3) = pi/2`` and the sine
    condition ``sin 2(t4-theta0) + sin 2(t2-theta0) = sin 2(t3-theta0)
    + sin 2(t1-theta0)``; both true force the residual to vanish.  Also
    evaluates the equivalent tangent form
    ``cos(t4-t2) - tan(t1+t3-2*theta0)*cos(t3-t1)``, reporting None when
    ``t1+t3-2*theta0`` falls on a pole of the tangent.
    """
    check_fan((t1, t2, t3, t4))
    k_sum, deficit = _phase_terms(cfg.theta0, (t1, t2, t3, t4))
    width_ok = abs(deficit) <= tol
    sine_ok = abs(k_sum) <= tol
    arg = t1 + t3 - 2.0 * cfg.theta0
    if abs(math.remainder(arg - 0.5 * math.pi, math.pi)) <= tol:
        tan_form: Optional[float] = None
    else:
        tan_form = math.cos(t4 - t2) - math.tan(arg) * math.cos(t3 - t1)
    return EightSectorCheck(width_ok, sine_ok, tan_form)


def special_case_four(
    cfg: CircleConfig, t1: float, t2: float, tol: float = DEFAULT_PREDICATE_TOL
) -> FourSectorCheck:
    """Sufficient equal-area conditions for two chords: quarter-turn width and matched sines."""
    check_fan((t1, t2))
    k_sum, deficit = _phase_terms(cfg.theta0, (t1, t2))
    return FourSectorCheck(abs(deficit) <= tol, abs(k_sum) <= tol)


def special_case_six(
    cfg: CircleConfig,
    t1: float,
    t2: float,
    t3: float,
    tol: float = DEFAULT_PREDICATE_TOL,
) -> SixSectorCheck:
    """Equal-area conditions for three chords.

    The arcsine bracket alone controls the corrected residual, so
    ``bracket_ok`` implies balance; the sine condition is reported for
    completeness but is not necessary under the corrected form (mirror
    fans balance with it false).
    """
    check_fan((t1, t2, t3))
    sine_ok = abs(_phase_terms(cfg.theta0, (t1, t3))[0]) <= tol
    bracket_ok = abs(_odd_bracket(cfg.r0 / cfg.a, _phase_terms(cfg.theta0, (t1, t2, t3)))) <= tol
    return SixSectorCheck(sine_ok, bracket_ok)
