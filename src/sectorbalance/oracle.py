"""Independent numerical area estimates used to validate the closed forms.

Two routes: deterministic adaptive Simpson quadrature of the defining
integral ``(1/2) Int r^2 dtheta``, and seeded Monte Carlo over the disk.
Neither touches the closed-form antiderivative, so agreement between the
routes and :mod:`sectorbalance.geometry` is meaningful evidence.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

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
    """Tolerance and recursion budget for adaptive Simpson integration."""

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
    return QuadratureSpec(abs_tol=1e-12 * cfg.a * cfg.a, max_depth=40)


def quadrature_area(
    cfg: CircleConfig,
    theta_a: float,
    theta_b: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Adaptive Simpson estimate of the sector integral on [theta_a, theta_b].

    Subdivides until the Richardson error estimate (the 15x rule) drops below
    the per-interval share of ``spec.abs_tol``; the returned value includes
    the extrapolation term.  The integrand is analytic for r0 < a, so the
    scheme needs no endpoint special-casing.  Fully deterministic.
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

    def recurse(lo, mid, hi, flo, fmid, fhi, whole, tol, depth):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol:
            return left + right + err
        if depth >= spec.max_depth:
            raise QuadratureError(
                f"tolerance {spec.abs_tol!r} not met within max_depth={spec.max_depth}"
            )
        half = 0.5 * tol
        return recurse(lo, lm, mid, flo, flm, fmid, left, half, depth + 1) + recurse(
            mid, rm, hi, fmid, frm, fhi, right, half, depth + 1
        )

    mid = 0.5 * (theta_a + theta_b)
    flo, fmid, fhi = f(theta_a), f(mid), f(theta_b)
    whole = (theta_b - theta_a) / 6.0 * (flo + 4.0 * fmid + fhi)
    return recurse(theta_a, mid, theta_b, flo, fmid, fhi, whole, spec.abs_tol, 0)


def quadrature_report(
    cfg: CircleConfig, part: SectorPartition, spec: QuadratureSpec | None = None
) -> AreaReport:
    """Per-sector quadrature areas assembled like the closed-form report."""
    b = part.boundaries
    uppers = b[1:] + (b[0] + TWO_PI,)
    areas = tuple(quadrature_area(cfg, lo, hi, spec) for lo, hi in zip(b, uppers))
    odd = math.fsum(areas[0::2])
    even = math.fsum(areas[1::2])
    return AreaReport(sector_areas=areas, odd_sum=odd, even_sum=even, total=odd + even)


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
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms; Monte Carlo only

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
