"""Independent reference for checking the program's outputs.

Sector areas are the polar integral ``(1/2) Int r(theta)^2 dtheta``, taken
here by mpmath quadrature at 20 significant digits from the boundary

    r(theta) = r0*cos(theta - theta0) + sqrt(a^2 - r0^2*sin^2(theta - theta0)).

Nothing here imports ``sectorbalance``: the reference shares no code, and in
particular no antiderivative, with the program it checks.  Besides the
integrals, it states the properties of the method that hold exactly:

* the 2n sector areas add up to ``pi*a^2``;
* at ``r0 = 0`` the residual is ``(a^2/2)*(sum of odd-sector widths) - pi*a^2/2``,
  which for an even chord count is ``a^2*(odd widths in one half-turn - pi/2)``;
* an equally spaced fan of an even number (n >= 4) of chords has zero
  residual at every pole;
* a fan is feasible exactly when ``0 <= r0 < a``, its angles strictly
  increase and span less than a half-turn; every other point is NaN.
"""

from __future__ import annotations

import math

import mpmath

DPS = 20

# Absolute tolerances, in units of a^2.  The closed forms carry rounding of a
# few 1e-16 * a^2; a residual shifted by 1e-7 * a^2 fails every one of these.
VALUE_TOL = 1e-10      # closed-form areas and residuals against the integral
ROOT_TOL = 1e-9        # residual of the reference at a reported root
BALANCED_TOL = 1e-11   # residual of an equally spaced even fan
TOTAL_TOL = 1e-11      # relative defect of the summed areas
# Monte Carlo estimates lie within this many standard errors of the exact
# area.  A two-sided normal tail beyond 6.5 sigma has probability 8e-11, so
# the chance of one false alarm over every sector of a run is negligible.
MC_Z = 6.5


def feasible(a: float, r0: float, theta0: float, angles) -> bool:
    values = (a, r0, theta0, *angles)
    if not all(math.isfinite(v) for v in values):
        return False
    if not (a > 0.0 and 0.0 <= r0 < a):
        return False
    if any(not hi > lo for lo, hi in zip(angles, angles[1:])):
        return False
    return angles[-1] - angles[0] < math.pi


def sector_bounds(angles) -> list[tuple[float, float]]:
    """The 2n sector intervals (1-based sector i is entry i - 1)."""
    b = list(angles) + [t + math.pi for t in angles]
    uppers = b[1:] + [b[0] + 2.0 * math.pi]
    return list(zip(b, uppers))


def _integrand(a, r0, theta0):
    a = mpmath.mpf(a)
    r0 = mpmath.mpf(r0)
    theta0 = mpmath.mpf(theta0)

    def half_r_squared(theta):
        u = theta - theta0
        s = r0 * mpmath.sin(u)
        r = r0 * mpmath.cos(u) + mpmath.sqrt(a * a - s * s)
        return r * r / 2

    return half_r_squared


def sector_area(a: float, r0: float, theta0: float, lo: float, hi: float) -> float:
    with mpmath.workdps(DPS):
        return float(mpmath.quad(_integrand(a, r0, theta0), [mpmath.mpf(lo), mpmath.mpf(hi)]))


def sector_areas(a: float, r0: float, theta0: float, angles) -> list[float]:
    return [sector_area(a, r0, theta0, lo, hi) for lo, hi in sector_bounds(angles)]


def residual(a: float, r0: float, theta0: float, angles) -> float:
    """Odd-sector area sum minus half the disk, from the integrals."""
    with mpmath.workdps(DPS):
        f = _integrand(a, r0, theta0)
        odd = mpmath.fsum(mpmath.quad(f, [mpmath.mpf(lo), mpmath.mpf(hi)])
                          for lo, hi in sector_bounds(angles)[0::2])
        return float(odd - mpmath.pi * mpmath.mpf(a) ** 2 / 2)


def centred_residual(a: float, angles) -> float:
    """Exact residual at r0 = 0, where every sector is a circular sector."""
    odd_widths = math.fsum(hi - lo for lo, hi in sector_bounds(angles)[0::2])
    return 0.5 * a * a * odd_widths - 0.5 * math.pi * a * a
