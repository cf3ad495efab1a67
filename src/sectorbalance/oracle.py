"""Independent numerical area estimates used to validate the closed forms.

Two routes: deterministic adaptive Gauss-Kronrod (G7K15) quadrature of the
defining integral ``(1/2) Int r^2 dtheta``, and seeded Monte Carlo over the
disk.  Neither touches the closed-form antiderivative, so agreement between
the routes and :mod:`sectorbalance.geometry` is meaningful evidence.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

from .geometry import (
    TWO_PI,
    AreaReport,
    ChordFan,
    CircleConfig,
    DomainError,
    SectorPartition,
    _check_interval,
    build_partition,
)

# Samples per Monte Carlo shard.  Each shard draws from its own counter-based
# stream keyed by (seed, shard index), so shard results can be combined in
# any order without changing the totals.
_MC_SHARD = 1 << 16

# The 7-point Gauss / 15-point Kronrod rule on [-1, 1] (QK15 of Piessens et
# al., QUADPACK, 1983).  Each row is a node pair +-x with its Kronrod weight
# and its Gauss weight, which is 0 where the node is Kronrod-only; the centre
# node x = 0 carries the (Kronrod, Gauss) weights of _QK15_CENTRE.
_QK15_PAIRS = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_QK15_CENTRE = (0.209482141084727828012999174891714, 0.417959183673469387755102040816327)

# QK15's roundoff floor: a panel's error estimate is never taken below
# 50*eps*|K15|, so a tolerance under the roundoff of the panel sums is
# reported as unmet instead of passed by chance.
_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class QuadratureError(RuntimeError):
    """Raised when adaptive subdivision hits its depth limit before converging."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance and subdivision depth budget for adaptive G7K15
    integration."""

    abs_tol: float
    max_depth: int = 40

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be at least 1, got {self.max_depth!r}")


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sample count and 64-bit seed for the Monte Carlo estimator."""

    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise DomainError(f"samples must be at least 1, got {self.samples!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit an unsigned 64-bit integer, got {self.seed!r}")


def default_quadrature_spec(cfg: CircleConfig) -> QuadratureSpec:
    """Default tolerance scaled to the disk: 1e-12 * a^2 absolute."""
    return QuadratureSpec(abs_tol=1e-12 * cfg.a * cfg.a)


def quadrature_area(
    cfg: CircleConfig,
    theta_a: float,
    theta_b: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Adaptive Gauss-Kronrod (G7K15) estimate of the sector integral on
    [theta_a, theta_b].

    Panels are taken depth-first, left half first.  A panel is accepted when
    its error estimate max(|K15 - G7|, 50*eps*|K15|) is within its share of
    ``spec.abs_tol``, and its K15 value is added to the total; otherwise it
    is halved, and so is its share.  The integrand is analytic for r0 < a,
    so the scheme needs no endpoint special-casing.  Fully deterministic.
    Raises DomainError when ``theta_b - theta0`` rounds to ``theta_a -
    theta0``: the integrand then sees one phase across the whole interval.
    Raises QuadratureError when a panel at ``spec.max_depth`` still misses
    its share, naming the overflow of ``r(theta)^2`` when K15 is not finite.
    """
    _check_interval(theta_a, theta_b)
    theta0 = cfg.theta0
    if theta_b - theta0 == theta_a - theta0:
        # Every node would take one value of theta - theta0, so K15 = G7 on
        # the first panel and a constant integrand would pass as the area.
        raise DomainError(
            f"[{theta_a!r}, {theta_b!r}] is a single angle relative to theta0={theta0!r}: "
            "theta - theta0 rounds to the same double at both ends"
        )
    if spec is None:
        spec = default_quadrature_spec(cfg)

    a2 = cfg.a * cfg.a
    r0 = cfg.r0
    sin = math.sin
    cos = math.cos
    sqrt = math.sqrt

    def f(theta: float) -> float:
        u = theta - theta0
        s = r0 * sin(u)
        r = r0 * cos(u) + sqrt(a2 - s * s)
        return 0.5 * r * r

    total = 0.0
    stack = [(theta_a, theta_b, spec.abs_tol, 0)]
    while stack:
        lo, hi, tol, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fmid = f(mid)
        kronrod = _QK15_CENTRE[0] * fmid
        gauss = _QK15_CENTRE[1] * fmid
        for x, wk, wg in _QK15_PAIRS:
            dx = half * x
            pair = f(mid - dx) + f(mid + dx)
            kronrod += wk * pair
            gauss += wg * pair
        if max(abs(kronrod - gauss), _ROUNDOFF * abs(kronrod)) * half <= tol:
            total += kronrod * half
            continue
        if depth >= spec.max_depth:
            if not math.isfinite(kronrod):
                raise QuadratureError(
                    f"the integrand r(theta)^2/2 overflows near theta={mid!r}, "
                    f"where r(theta) approaches a + r0 = {cfg.a + r0!r}"
                )
            raise QuadratureError(
                f"tolerance {spec.abs_tol!r} not met within max_depth={spec.max_depth}"
            )
        tol *= 0.5
        stack.append((mid, hi, tol, depth + 1))
        stack.append((lo, mid, tol, depth + 1))
    return total


def quadrature_report(
    cfg: CircleConfig, part: SectorPartition, spec: QuadratureSpec | None = None
) -> AreaReport:
    """Per-sector quadrature areas assembled like the closed-form report."""
    return AreaReport.from_areas(quadrature_area(cfg, lo, hi, spec) for lo, hi in part.sectors)


def quadrature_residual(
    cfg: CircleConfig, base_angles: tuple[float, ...], spec: QuadratureSpec | None = None
) -> float:
    """Quadrature-based balance residual: odd-sector sum minus half the disk.

    Integrates only the n odd sectors (``sectors[0::2]``) that the residual
    reads and sums them with ``math.fsum``, as :meth:`AreaReport.from_areas`
    forms ``odd_sum``, so the value is bit-identical to
    :func:`quadrature_report`'s ``odd_sum`` minus half the disk.  Even
    sectors are never integrated, so a quadrature failure confined to one
    raises nothing.
    """
    odd = build_partition(ChordFan(tuple(base_angles))).sectors[0::2]
    odd_sum = math.fsum(quadrature_area(cfg, lo, hi, spec) for lo, hi in odd)
    return odd_sum - 0.5 * math.pi * cfg.a * cfg.a


def _sector_change_points(part: SectorPartition) -> tuple[list[float], list[int]]:
    """Angles at which the sector of a Monte Carlo sample changes.

    A sample at angle ``t`` in [-pi, pi] (as ``arctan2`` returns it) lies in
    sector ``searchsorted(offsets, mod(t - b[0], 2*pi), "right") - 1`` with
    ``offsets[k] = b[k] - b[0]``.  Returns ``(taus, sectors)``, ``taus``
    non-decreasing and one shorter than ``sectors``: samples with
    ``t < taus[0]`` lie in ``sectors[0]``, those with
    ``taus[k-1] <= t < taus[k]`` in ``sectors[k]``, and those with
    ``t >= taus[-1]`` in ``sectors[-1]``, exactly as that expression puts
    them.

    The search evaluates the expression itself, with the same numpy ufuncs,
    prefixed by ``floor_divide(t - b[0], 2*pi)``, the number of whole turns
    in front: ``turns * n + sector`` never decreases as ``t`` grows, because
    ``t - b[0]``, ``floor_divide`` and ``mod`` within one turn are each
    monotone in floating point.  Each ``taus`` entry is the least double at
    which that key reaches a new value, found by bisection on the doubles in
    order, so no formula for the rounding of ``t - b[0]`` or ``mod`` enters.
    """
    import numpy as np

    b = part.boundaries
    n_sect = len(b)
    offsets = np.array([t - b[0] for t in b], dtype=np.float64)
    lowest = np.int64(-(2**63))

    def flip(bits: np.ndarray) -> np.ndarray:
        # Maps float64 bit patterns to integers in the order of the doubles
        # (both zeros to 0), and such integers back to bit patterns.
        return np.where(bits < 0, lowest - bits, bits)

    def key(order: np.ndarray) -> np.ndarray:
        t = flip(order).view(np.float64)
        d = t - b[0]
        turns = np.floor_divide(d, TWO_PI).astype(np.int64)
        return turns * n_sect + np.searchsorted(offsets, np.mod(d, TWO_PI), side="right") - 1

    def order_of(t: np.ndarray) -> np.ndarray:
        return flip(np.asarray(t, dtype=np.float64).view(np.int64))

    first, last = order_of([-math.pi, math.pi])
    first_key, last_key = key(np.array([first, last])).tolist()
    targets = np.arange(first_key + 1, last_key + 1, dtype=np.int64)
    # Bracket the least t with key(t) >= v near where the real-valued key
    # reaches v = turns * n + k, at t = b[k] + turns * 2*pi; a bracket end on
    # the wrong side is moved to the end of [-pi, pi].
    turns, k = np.divmod(targets, n_sect)
    guess = np.array(b)[k] + turns * TWO_PI
    slack = 64.0 * math.ulp(abs(b[0]) + abs(b[-1]) + 8.0)
    lo = order_of(np.clip(guess - slack, -math.pi, math.pi))
    hi = order_of(np.clip(guess + slack, -math.pi, math.pi))
    lo = np.where(key(lo) < targets, lo, first)
    hi = np.where(key(hi) >= targets, hi, last)
    # A bracket across zero spans every binary exponent in the order of the
    # doubles (~62 rounds).  A change point at 0.0 itself, as where b[0] = 0,
    # is settled by the key at 0.0 and at the double below it (-5e-324).
    below, zero = key(np.array([-1, 0], dtype=np.int64)).tolist()
    at_zero = (below < targets) & (zero >= targets)
    lo = np.where(at_zero, -1, lo)
    hi = np.where(at_zero, 0, hi)
    while np.any(hi > lo + 1):
        # Floor of (lo + hi) / 2 without overflowing int64.
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        reached = key(mid) >= targets
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    taus = flip(hi).view(np.float64).tolist()
    return taus, [first_key % n_sect, *(targets % n_sect).tolist()]


# The Monte Carlo screen (see montecarlo_area): a sample is counted from its
# float32 angle unless that angle lies within _SCREEN_MARGIN rad of a change
# point or of +-pi, or the sample lies within _SCREEN_RHO * a of the pole; the
# float32 angle is within 1.88e-5 rad of the float64 one everywhere else.
_SCREEN_MARGIN = 2e-4
_SCREEN_RHO = 0.05
# Samples screened at a time: the float32 temporaries of a block stay in
# cache, and a shard keeps about 24 bytes per sample live (two float64
# arrays, one float32 and one bool, and a block's temporaries) where the
# float64 expression for every sample kept 25.
_SCREEN_BLOCK = 8192


def _screen_table(taus: list[float]):
    """Bins of float32 angles whose samples take the exact float64 path.

    A float32 angle ``t32`` falls in bin ``int32((t32 + pi) * (1/margin))`` of
    a table over [-pi, pi] with bins ``_SCREEN_MARGIN`` wide.  The bin of each
    change point, and of -pi and pi (the branch cut of ``arctan2``), is
    flagged with two bins on each side, so every angle within 1.99 margins
    of one is flagged: the float32 index is off by at most 0.005 bins.
    """
    import numpy as np

    table = np.zeros(int(TWO_PI / _SCREEN_MARGIN) + 2, dtype=bool)
    for tau in (-math.pi, *taus, math.pi):
        j = int((tau + math.pi) / _SCREEN_MARGIN)
        table[max(j - 2, 0):j + 3] = True
    return table


def _screen(cfg: CircleConfig, s, ang):
    """Float32 angles ``t32`` and squared distances from the pole of samples
    at ``s * a`` from the centre in direction ``ang``, in units of ``a``.

    ``t32 = arctan2(cy/a + s*sin(ang), cx/a + s*cos(ang))`` with ``s`` and
    ``ang`` rounded to float32, so both arrays are float32; see
    :func:`montecarlo_area` for the bound on ``t32``.
    """
    import numpy as np

    y32 = ang.astype(np.float32)
    x32 = np.cos(y32)
    np.sin(y32, out=y32)
    t32 = s.astype(np.float32)
    x32 *= t32
    x32 += np.float32(cfg.r0 * math.cos(cfg.theta0) / cfg.a)
    y32 *= t32
    y32 += np.float32(cfg.r0 * math.sin(cfg.theta0) / cfg.a)
    np.arctan2(y32, x32, out=t32)
    x32 *= x32
    y32 *= y32
    x32 += y32
    return t32, x32


def _shard_counts(cfg: CircleConfig, taus: list[float], table, seed: int, shard: int, m: int):
    """Samples of shard ``shard`` (``m`` of them) at or above each change point.

    Screens them with :func:`_screen` and sends to the float64 expression
    those that ``table`` (from :func:`_screen_table`) or ``_SCREEN_RHO``
    flags; see :func:`montecarlo_area`.
    """
    import numpy as np

    # s and ang stay float64 for the exact path.
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, shard], dtype=np.uint64)))
    s = gen.random(m)
    np.sqrt(s, out=s)
    ang = gen.random(m)
    ang *= TWO_PI
    t32 = np.empty(m, dtype=np.float32)
    near = np.empty(m, dtype=bool)
    for lo in range(0, m, _SCREEN_BLOCK):
        hi = lo + _SCREEN_BLOCK
        t, rho2 = _screen(cfg, s[lo:hi], ang[lo:hi])
        t32[lo:hi] = t
        flagged = near[lo:hi]
        np.less(rho2, np.float32(_SCREEN_RHO * _SCREEN_RHO), out=flagged)
        bins = (t + np.float32(math.pi)) * np.float32(1.0 / _SCREEN_MARGIN)
        flagged |= np.take(table, bins.astype(np.int32), mode="clip")
    # The exact path, for the flagged samples only: the ufuncs of the
    # expression arctan2(cy + r*sin(ang), cx + r*cos(ang)) in its order, so
    # these angles are bit-identical to it.
    exact = np.flatnonzero(near)
    r = s[exact]
    r *= cfg.a
    phi = ang[exact]
    x = np.cos(phi)
    x *= r
    x += cfg.r0 * math.cos(cfg.theta0)
    y = np.sin(phi, out=phi)
    y *= r
    y += cfg.r0 * math.sin(cfg.theta0)
    t = np.arctan2(y, x, out=x)
    t32[exact] = np.nan
    # near is free once exact is taken, so it holds each comparison.
    return np.array(
        [np.count_nonzero(np.greater_equal(t32, np.float32(tau), out=near))
         + np.count_nonzero(t >= tau) for tau in taus],
        dtype=np.int64,
    )


def montecarlo_area(
    cfg: CircleConfig, part: SectorPartition, spec: MonteCarloSpec
) -> list[tuple[float, float]]:
    """Monte Carlo (estimate, standard error) for every sector of the partition.

    Points are drawn uniformly over the disk about its centre via the
    square-root radius trick, then classified by their angle as seen from the
    pole, so every sample lands in exactly one sector.  Estimates are
    ``pi*a^2`` times the hit fraction; standard errors come from the binomial
    variance.  Sampling uses the counter-based Philox generator in fixed-size
    shards keyed by (seed, shard index).  Shards run on up to one thread per
    CPU the process may use, and their integer counts are summed in shard
    order, so results are bit-identical for a given spec regardless of how
    shards are scheduled.

    A sample's sector is a step function of its angle ``t = arctan2(y, x)``,
    so the change points of that function are found once per call, by
    :func:`_sector_change_points`, and each shard counts the samples at or
    above each change point (``t >= tau``).  The counts are identical to
    classifying every sample by ``searchsorted(offsets, mod(t - b[0], 2*pi),
    "right") - 1``: each change point is the least double at which that
    expression moves on.

    Only samples near a change point need ``t`` to the last bit, so each
    shard first screens its samples in float32, in units of ``a``: ``t32 =
    arctan2(cy/a + s*sin(ang), cx/a + s*cos(ang))``, with ``s = sqrt(u)`` and
    ``ang`` the float64 draws rounded.  A sample takes the exact path, the
    float64 expression ``arctan2(cy + r*sin(ang), cx + r*cos(ang))`` with
    the same ufuncs in the same order, when ``t32`` lies within ``margin =
    2e-4`` rad (``_SCREEN_MARGIN``) of a change point or of +-pi, by the
    bins of :func:`_screen_table`, or when its float32 distance from the
    pole is below ``rho_min = 0.05a`` (``_SCREEN_RHO``).  Every other sample
    counts as ``t32 >= float32(tau)``, which equals ``t >= tau`` because
    there ``|t32 - t| <= 1.88e-5``, more than 10x below the margin.

    The bound, in units of ``a``.  Rounding ``ang`` to float32 moves the
    point by at most 2^-22 = 2.4e-7.  Per coordinate, float32 ``sin`` or
    ``cos`` (within 2 ulp, as NumPy's accuracy tests assert) adds at most
    1.2e-7, and the roundings of ``s``, of the product, of ``cx/a`` or
    ``cy/a`` and of the sum (below 2) add 6e-8, 6e-8, 6e-8 and 1.2e-7.  So
    the point moves by at most 2.4e-7 + sqrt(2)*4.2e-7 = 8.3e-7; a float32
    distance of at least rho_min puts the float64 point at least 0.04999
    from the pole, so its angle moves by at most 1.67e-5.  Float32
    ``arctan2`` has no published bound; it is taken to be within 2e-6 rad
    (8 ulp of pi, six times its largest error measured here), and with
    ``float32(tau)`` (1.2e-7) the bound is 1.88e-5.  ``TestScreenBound`` in
    the tier-1 suite measures each ufunc error and ``|t32 - t|`` itself on
    the running platform and fails where they miss; nothing falls back at
    run time.
    About 0.4 % of a gate pole's samples take the exact path, most of them
    within rho_min of the pole.
    """
    # Imported here, not at module level: only Monte Carlo needs numpy (~120 ms
    # of start-up) and the thread pool (~7 ms), so other calls never load them.
    from concurrent.futures import ThreadPoolExecutor

    taus, sectors = _sector_change_points(part)
    table = _screen_table(taus)
    n_shards = -(-spec.samples // _MC_SHARD)

    def shard_counts(shard: int):
        m = min(_MC_SHARD, spec.samples - shard * _MC_SHARD)
        return _shard_counts(cfg, taus, table, spec.seed, shard, m)

    # NumPy releases the GIL in the Philox fill and in the ufuncs, and shards
    # share no state, so threads run them in parallel.
    with ThreadPoolExecutor(max_workers=min(n_shards, _available_cpus())) as pool:
        at_or_above = sum(pool.map(shard_counts, range(n_shards))).tolist()

    # Samples in piece k: those at or above taus[k-1] less those at or above taus[k].
    bounds = [spec.samples, *at_or_above, 0]
    counts = [0] * len(part.boundaries)
    for sector, upto, beyond in zip(sectors, bounds, bounds[1:]):
        counts[sector] += upto - beyond

    disk = math.pi * cfg.a * cfg.a
    out = []
    for c in counts:
        frac = c / spec.samples
        est = disk * frac
        se = disk * math.sqrt(frac * (1.0 - frac) / spec.samples)
        out.append((est, se))
    return out
