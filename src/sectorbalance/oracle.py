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
    """
    _check_interval(theta_a, theta_b)
    if spec is None:
        spec = default_quadrature_spec(cfg)

    a2 = cfg.a * cfg.a
    r0 = cfg.r0
    theta0 = cfg.theta0
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
    """Quadrature-based balance residual: odd-sector sum minus half the disk."""
    report = quadrature_report(cfg, build_partition(ChordFan(tuple(base_angles))), spec)
    return report.odd_sum - 0.5 * math.pi * cfg.a * cfg.a


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
    """
    # Imported here, not at module level: only Monte Carlo needs numpy (~120 ms
    # of start-up) and the thread pool (~7 ms), so other calls never load them.
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    b = part.boundaries
    n_sect = len(b)
    offsets = np.array([t - b[0] for t in b], dtype=np.float64)
    cx = cfg.r0 * math.cos(cfg.theta0)
    cy = cfg.r0 * math.sin(cfg.theta0)
    n_shards = -(-spec.samples // _MC_SHARD)

    def shard_counts(shard: int) -> np.ndarray:
        # In-place ufuncs keep about three float arrays live per worker; the
        # order of operations is that of the plain expression
        # mod(arctan2(cy + r*sin(ang), cx + r*cos(ang)) - b[0], 2*pi), so the
        # counts are bit-identical to it.
        m = min(_MC_SHARD, spec.samples - shard * _MC_SHARD)
        key = np.array([spec.seed, shard], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        r = gen.random(m)
        np.sqrt(r, out=r)
        r *= cfg.a
        ang = gen.random(m)
        ang *= TWO_PI
        x = np.cos(ang)
        x *= r
        x += cx
        y = np.sin(ang, out=ang)
        y *= r
        y += cy
        t = np.arctan2(y, x, out=x)
        t -= b[0]
        np.mod(t, TWO_PI, out=t)
        idx = np.searchsorted(offsets, t, side="right") - 1
        return np.bincount(idx, minlength=n_sect)

    # NumPy releases the GIL in the Philox fill and in the ufuncs, and shards
    # share no state, so threads run them in parallel.
    with ThreadPoolExecutor(max_workers=min(n_shards, _available_cpus())) as pool:
        counts = sum(pool.map(shard_counts, range(n_shards)))

    disk = math.pi * cfg.a * cfg.a
    out = []
    for c in counts.tolist():
        frac = c / spec.samples
        est = disk * frac
        se = disk * math.sqrt(frac * (1.0 - frac) / spec.samples)
        out.append((est, se))
    return out
