import math
import os
import random

import numpy as np
import pytest

import sectorbalance
import sectorbalance.geometry
import sectorbalance.oracle
from sectorbalance import (
    ChordFan,
    CircleConfig,
    DomainError,
    MonteCarloSpec,
    QuadratureError,
    QuadratureSpec,
    area_report,
    build_partition,
    montecarlo_area,
    quadrature_area,
    quadrature_report,
    quadrature_residual,
    sector_area_closed,
)
from sectorbalance.geometry import TWO_PI
from sectorbalance.verify import random_circle, random_fan

PI = math.pi


def serial_montecarlo_area(cfg, part, spec):
    """Reference: the single-threaded shard loop that ``montecarlo_area`` replaced."""
    b = part.boundaries
    n_sect = len(b)
    offsets = np.array([t - b[0] for t in b], dtype=np.float64)
    cx = cfg.r0 * math.cos(cfg.theta0)
    cy = cfg.r0 * math.sin(cfg.theta0)
    counts = np.zeros(n_sect, dtype=np.int64)
    remaining = spec.samples
    shard = 0
    while remaining > 0:
        m = min(1 << 16, remaining)
        key = np.array([spec.seed, shard], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        radius = cfg.a * np.sqrt(gen.random(m))
        angle = gen.random(m) * TWO_PI
        x = cx + radius * np.cos(angle)
        y = cy + radius * np.sin(angle)
        t = np.mod(np.arctan2(y, x) - b[0], TWO_PI)
        idx = np.searchsorted(offsets, t, side="right") - 1
        counts += np.bincount(idx, minlength=n_sect)
        remaining -= m
        shard += 1
    disk = math.pi * cfg.a * cfg.a
    out = []
    for c in counts.tolist():
        frac = c / spec.samples
        out.append((disk * frac, disk * math.sqrt(frac * (1.0 - frac) / spec.samples)))
    return out


class TestQuadratureArea:
    def test_centered_quarter(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        spec = QuadratureSpec(abs_tol=1e-12)
        assert quadrature_area(cfg, 0.0, PI / 2, spec) == pytest.approx(PI / 4, abs=1e-12)

    def test_diameter_half_disk(self):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        spec = QuadratureSpec(abs_tol=1e-12)
        assert quadrature_area(cfg, 0.0, PI, spec) == pytest.approx(PI / 2, abs=1e-12)

    def test_agrees_with_closed_form(self):
        rng = random.Random(99)
        worst = 0.0
        for _ in range(150):
            cfg = random_circle(rng)
            ta = rng.uniform(-6.0, 6.0)
            tb = ta + rng.uniform(1e-2, 2.0 * PI - 1e-9)
            closed = sector_area_closed(cfg, ta, tb)
            quad = quadrature_area(cfg, ta, tb)
            worst = max(worst, abs(closed - quad) / abs(quad))
        assert worst <= 1e-9

    def test_depth_exhaustion_raises(self):
        cfg = CircleConfig(1.0, 0.9, 0.3)
        with pytest.raises(QuadratureError):
            quadrature_area(cfg, 0.0, 6.0, QuadratureSpec(abs_tol=1e-16, max_depth=1))

    @pytest.mark.parametrize("theta0", [1e17, -1e17, 1e300])
    def test_unresolved_phase_is_domain_error(self, theta0):
        # theta - theta0 rounds to one double across [0, 1]: a constant integrand.
        with pytest.raises(DomainError, match="single angle relative to theta0"):
            quadrature_area(CircleConfig(1.0, 0.5, theta0), 0.0, 1.0)

    def test_rejects_bad_interval(self):
        cfg = CircleConfig(1.0, 0.3, 0.0)
        with pytest.raises(DomainError):
            quadrature_area(cfg, 1.0, 0.5)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=1e-9, max_depth=0)

    def test_report_matches_closed(self):
        cfg = CircleConfig(1.3, 0.8, -0.4)
        part = build_partition(ChordFan((0.1, 0.7, 1.6)))
        quad = quadrature_report(cfg, part)
        closed = area_report(cfg, part)
        for q, c in zip(quad.sector_areas, closed.sector_areas):
            assert q == pytest.approx(c, rel=1e-10)
        assert quad.total == pytest.approx(PI * cfg.a * cfg.a, rel=1e-10)

    def test_residual_of_pizza_fan_is_zero(self):
        cfg = CircleConfig(1.0, 0.7, 1.1)
        fan = (0.3, 0.3 + PI / 4, 0.3 + PI / 2, 0.3 + 3 * PI / 4)
        assert quadrature_residual(cfg, fan) == pytest.approx(0.0, abs=1e-10)


def _odd_sector_fans():
    """(cfg, fan, spec) for seeded fans of every chord count 1..9, two specs each."""
    rng = random.Random(2026)
    for n in range(1, 10):
        for _ in range(3):
            cfg = random_circle(rng)
            fan = random_fan(rng, n)
            for spec in (None, QuadratureSpec(abs_tol=1e-9 * cfg.a * cfg.a, max_depth=30)):
                yield cfg, fan, spec


class TestQuadratureResidual:
    """The cross-check integrates the n odd sectors it reads, and only those."""

    def test_equals_the_odd_sum_of_the_full_report(self):
        for cfg, fan, spec in _odd_sector_fans():
            report = quadrature_report(cfg, build_partition(fan), spec)
            expected = report.odd_sum - 0.5 * PI * cfg.a * cfg.a
            got = quadrature_residual(cfg, fan.base_angles, spec)
            assert got.hex() == expected.hex(), (cfg, fan, spec)

    def test_integrates_exactly_n_sectors(self, monkeypatch):
        real = sectorbalance.oracle.quadrature_area
        seen = []

        def counted(cfg, theta_a, theta_b, spec=None):
            seen.append((theta_a, theta_b, spec))
            return real(cfg, theta_a, theta_b, spec)

        monkeypatch.setattr(sectorbalance.oracle, "quadrature_area", counted)
        for cfg, fan, spec in _odd_sector_fans():
            seen.clear()
            quadrature_residual(cfg, fan.base_angles, spec)
            odd = build_partition(fan).sectors[0::2]
            assert seen == [(lo, hi, spec) for lo, hi in odd]
            assert len(seen) == len(fan.base_angles)

    def test_independent_of_closed_form(self, monkeypatch):
        cases = list(_odd_sector_fans())
        before = [quadrature_residual(cfg, fan.base_angles, spec) for cfg, fan, spec in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("the quadrature oracle called the closed form")

        for module in (sectorbalance, sectorbalance.geometry, sectorbalance.oracle):
            for name in ("sector_area_closed", "area_report", "substituted_angle"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        after = [quadrature_residual(cfg, fan.base_angles, spec) for cfg, fan, spec in cases]
        assert after == before


# A fan on which adaptive Simpson accepted sector 2 1.27e-10 * a^2 off.  The
# reference areas integrate (1/2) r^2 over each sector's float boundaries with
# mpmath.quad at 40 digits (tanh-sinh and Gauss-Legendre agree to all 40),
# rounded to 20 significant digits.
FIXED_FAN_CFG = CircleConfig(1.5515166083670648, 0.5110568400665382, -2.9676733569261673)
FIXED_FAN = ChordFan((0.5587217688464459, 0.8407669168770204, 1.966972422057961,
                      2.986734962603703))
FIXED_FAN_AREAS = (
    0.16737091496662876166,
    0.99107994991453947001,
    1.7199114906780299595,
    1.4966254559673044215,
    0.54763433148357105382,
    1.5368342066942778480,
    0.71120664849535317225,
    0.39179073171345185464,
)


class TestQuadratureAccuracy:
    def test_fixed_fan_matches_mpmath(self):
        cfg = FIXED_FAN_CFG
        a2 = cfg.a * cfg.a
        report = quadrature_report(cfg, build_partition(FIXED_FAN))
        assert len(report.sector_areas) == len(FIXED_FAN_AREAS)
        for got, want in zip(report.sector_areas, FIXED_FAN_AREAS):
            assert abs(got - want) <= 1e-12 * a2
        assert abs(report.total - PI * a2) <= 1e-12 * a2

    def test_whole_disk_without_closed_form(self):
        rng = random.Random(6)
        for _ in range(500):
            n = rng.randint(1, 9)
            cfg = random_circle(rng, max_offset=0.999)
            t1 = rng.uniform(-PI, PI)
            fan = ChordFan((t1, *sorted(t1 + rng.uniform(1e-9, 0.99 * PI) for _ in range(n - 1))))
            report = quadrature_report(cfg, build_partition(fan))
            a2 = cfg.a * cfg.a
            assert abs(math.fsum(report.sector_areas) - PI * a2) <= 2 * n * 1e-12 * a2

    def test_independent_of_closed_form(self, monkeypatch):
        cfg = FIXED_FAN_CFG
        part = build_partition(FIXED_FAN)
        area = quadrature_area(cfg, -1.0, 2.5)
        report = quadrature_report(cfg, part)

        def forbidden(*args, **kwargs):
            raise AssertionError("the quadrature oracle called the closed form")

        for module in (sectorbalance, sectorbalance.geometry, sectorbalance.oracle):
            for name in ("sector_area_closed", "area_report", "substituted_angle"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        assert quadrature_area(cfg, -1.0, 2.5) == area
        assert quadrature_report(cfg, part) == report


class TestMonteCarlo:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            MonteCarloSpec(samples=0)
        with pytest.raises(DomainError):
            MonteCarloSpec(samples=10, seed=-1)
        with pytest.raises(DomainError):
            MonteCarloSpec(samples=10, seed=2**64)

    def test_seed_determinism(self):
        cfg = CircleConfig(1.0, 0.4, 0.9)
        part = build_partition(ChordFan((0.0, 1.0)))
        spec = MonteCarloSpec(samples=50_000, seed=7)
        assert montecarlo_area(cfg, part, spec) == montecarlo_area(cfg, part, spec)

    def test_different_seeds_differ(self):
        cfg = CircleConfig(1.0, 0.4, 0.9)
        part = build_partition(ChordFan((0.0, 1.0)))
        first = montecarlo_area(cfg, part, MonteCarloSpec(samples=50_000, seed=1))
        second = montecarlo_area(cfg, part, MonteCarloSpec(samples=50_000, seed=2))
        assert first != second

    def test_every_sample_classified(self):
        cfg = CircleConfig(1.0, 0.85, 2.0)
        part = build_partition(ChordFan((-0.3, 0.4, 0.8, 1.1, 1.9)))
        samples = (1 << 16) + 13  # straddles a shard boundary
        estimates = montecarlo_area(cfg, part, MonteCarloSpec(samples=samples, seed=5))
        disk = PI * cfg.a * cfg.a
        counts = [round(est / disk * samples) for est, _ in estimates]
        assert sum(counts) == samples
        assert math.fsum(est for est, _ in estimates) == pytest.approx(disk, rel=1e-12)

    def test_centered_quarters_within_four_sigma(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        part = build_partition(ChordFan((0.0, PI / 2)))
        estimates = montecarlo_area(cfg, part, MonteCarloSpec(samples=1_000_000, seed=0))
        for est, se in estimates:
            assert abs(est - PI / 4) <= 4.0 * se

    def test_offset_pole_matches_closed_form(self):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        part = build_partition(ChordFan((0.0, PI / 2)))
        closed = area_report(cfg, part).sector_areas
        estimates = montecarlo_area(cfg, part, MonteCarloSpec(samples=1_000_000, seed=42))
        for (est, se), ref in zip(estimates, closed):
            assert abs(est - ref) <= 4.0 * se

    def test_cross_oracle_against_quadrature(self):
        rng = random.Random(2718)
        for _ in range(3):
            cfg = random_circle(rng)
            part = build_partition(random_fan(rng, n=3))
            quad = quadrature_report(cfg, part).sector_areas
            estimates = montecarlo_area(cfg, part, MonteCarloSpec(samples=200_000, seed=11))
            for (est, se), ref in zip(estimates, quad):
                assert abs(est - ref) <= 4.0 * se

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}], ids=["one_worker", "four_workers"])
    @pytest.mark.parametrize("samples", [1, 65_535, 65_536, 65_537, 3 * 65_536 + 5])
    def test_equals_serial_shard_loop(self, monkeypatch, cpus, samples):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        cfg = CircleConfig(1.4, 0.9, -2.2)
        spec = MonteCarloSpec(samples=samples, seed=2**64 - 3)
        # Five chords, the same fan shifted by 1e5 (where t - b[0] rounds),
        # and a single chord.
        for base in ((-0.3, 0.4, 0.8, 1.1, 1.9),
                     tuple(1e5 + t for t in (-0.3, 0.4, 0.8, 1.1, 1.9)),
                     (0.8,)):
            part = build_partition(ChordFan(base))
            assert montecarlo_area(cfg, part, spec) == serial_montecarlo_area(cfg, part, spec)


def reference_sectors(part, t):
    """Each angle's sector by the expression of ``serial_montecarlo_area``."""
    b = part.boundaries
    offsets = np.array([x - b[0] for x in b], dtype=np.float64)
    return np.searchsorted(offsets, np.mod(t - b[0], TWO_PI), side="right") - 1


def change_point_fans():
    rng = random.Random(1313)
    fans = []
    for first in (0.0, PI, -PI, TWO_PI, -TWO_PI, -1e3, 1e5, 1e7):
        for n in range(1, 7):
            gaps = [rng.uniform(0.05, 1.0) for _ in range(n - 1)]
            scale = 0.99 * PI / max(sum(gaps), 0.99 * PI)  # keep the span under pi
            fan = [first]
            for gap in gaps:
                fan.append(fan[-1] + gap * scale)
            fans.append(tuple(fan))
        # One sector 4e-6 wide (and its antipode).
        fans.append((first, first + 4e-6, first + 1.3))
    return fans


class TestSectorChangePoints:
    """``montecarlo_area`` counts samples against the change points of
    ``_sector_change_points``; its counts are exact only if classifying by
    those change points agrees with the reference expression everywhere on
    [-pi, pi], so this checks it where disagreement could hide: at every
    change point and 4 ulp either side, at both ends and at both zeros."""

    @pytest.mark.parametrize("base", change_point_fans())
    def test_matches_reference_expression(self, base):
        part = build_partition(ChordFan(base))
        taus, sectors = sectorbalance.oracle._sector_change_points(part)
        assert len(sectors) == len(taus) + 1
        assert taus == sorted(taus)
        assert all(-PI < tau <= PI for tau in taus)
        ends = np.array([-PI, -0.0, 0.0, PI])
        near = [ends]
        for tau in taus:
            up = down = np.float64(tau)
            near.append([tau])
            for _ in range(4):
                up = np.nextafter(up, np.inf)
                down = np.nextafter(down, -np.inf)
                near.append([up, down])
        t = np.concatenate(near + [np.random.default_rng(7).uniform(-PI, PI, 20_000)])
        t = t[(t >= -PI) & (t <= PI)]
        got = np.array(sectors)[np.searchsorted(taus, t, side="right")]
        np.testing.assert_array_equal(got, reference_sectors(part, t))
        # No sector of these fans is empty, so each has a piece.
        assert set(sectors) == set(range(len(part.boundaries)))
