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
from sectorbalance.oracle import _SCREEN_MARGIN, _SCREEN_RHO
from sectorbalance.verify import _pizza_fan, random_circle, random_fan

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

    @pytest.mark.parametrize("base", [(0.0, PI / 2), (0.0, 1.2)])
    def test_change_point_at_zero_takes_few_rounds(self, monkeypatch, base):
        # Every key evaluation calls floor_divide once.  Bisection in the
        # order of the doubles across zero takes about 62 rounds; elsewhere
        # the brackets close in under 20.
        real = np.floor_divide
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "floor_divide", counted)
        taus, _ = sectorbalance.oracle._sector_change_points(build_partition(ChordFan(base)))
        assert 0.0 in taus
        assert len(calls) <= 24


# np.arctan2 as numpy defines it, for the reference below: the tests of the
# screen replace the module attribute to count or to corrupt its calls.
REAL_ARCTAN2 = np.arctan2


def exact_shard_counts(cfg, taus, seed, shard, m):
    """Reference: one shard's samples at or above each change point, counted
    from the float64 expression ``arctan2(y, x)`` alone."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, shard], dtype=np.uint64)))
    r = cfg.a * np.sqrt(gen.random(m))
    ang = gen.random(m) * TWO_PI
    t = REAL_ARCTAN2(cfg.r0 * math.sin(cfg.theta0) + r * np.sin(ang),
                     cfg.r0 * math.cos(cfg.theta0) + r * np.cos(ang))
    return np.array([np.count_nonzero(t >= tau) for tau in taus], dtype=np.int64)


GATE_SAMPLES = 1_000_000
SHARD = 1 << 16
# The last shard at the gate's size, and its 16 960 samples.
LAST_SHARD = (GATE_SAMPLES - 1) // SHARD
LAST_SHARD_SAMPLES = GATE_SAMPLES - LAST_SHARD * SHARD


def gate_pole_shards():
    """(cfg, fan, seed, shards) for every seed-0 gate pole, drawn as
    ``check_pizza_cancellation`` draws them: its first and last shard."""
    rng = random.Random("0:pizza")
    for i in range(100):
        cfg = random_circle(rng)
        fan = ChordFan(_pizza_fan(rng.uniform(-PI, PI)))
        yield cfg, fan, i, ((0, SHARD), (LAST_SHARD, LAST_SHARD_SAMPLES))


def edge_shards():
    shards = ((0, SHARD), (1, SHARD), (7, 1000))
    shifted = tuple(1e5 + t for t in (-0.3, 0.4, 0.8, 1.1, 1.9))
    return [
        (CircleConfig(1.0, 0.0, 0.0), ChordFan((0.3, 1.1, 2.0)), 1, shards),
        (CircleConfig(2.0, 1.9, 2.5), ChordFan(_pizza_fan(0.2)), 2, shards),
        (CircleConfig(1.0, 0.5, 0.0), ChordFan((0.0, PI / 2)), 3, shards),
        (CircleConfig(1.2, 0.4, 1.0), ChordFan((0.4, PI - 5e-7)), 4, shards),
        (CircleConfig(1.2, 0.4, -2.0), ChordFan((-PI + 5e-7, -1.0)), 5, shards),
        (CircleConfig(1.4, 0.9, -2.2), ChordFan(shifted), 6, shards),
        (CircleConfig(1.4, 0.9, -2.2), ChordFan((0.8,)), 7, shards),
        change_point_next_to_a_sample(),
    ]


def change_point_next_to_a_sample():
    """A fan whose first change point is one ulp above the float64 angle of a
    shard-0 sample far from the pole: a screen that skips the recheck near a
    change point counts that sample on the wrong side of it."""
    cfg = CircleConfig(1.0, 0.3, 0.7)
    gen = np.random.Generator(np.random.Philox(key=np.array([8, 0], dtype=np.uint64)))
    r = cfg.a * np.sqrt(gen.random(SHARD))
    ang = gen.random(SHARD) * TWO_PI
    x = cfg.r0 * math.cos(cfg.theta0) + r * np.cos(ang)
    y = cfg.r0 * math.sin(cfg.theta0) + r * np.sin(ang)
    t = REAL_ARCTAN2(y, x)
    k = np.flatnonzero((np.hypot(x, y) > 0.5 * cfg.a) & (np.abs(t) < 2.0))[0]
    b0 = float(np.nextafter(t[k], np.inf))
    fan = ChordFan((b0, b0 + 1.0))
    assert b0 in sectorbalance.oracle._sector_change_points(build_partition(fan))[0]
    return cfg, fan, 8, ((0, SHARD),)


EDGE_IDS = ["r0_zero", "r0_0.95a", "change_point_at_zero", "tau_near_pi",
            "tau_near_minus_pi", "fan_shifted_1e5", "one_chord",
            "change_point_one_ulp_above_a_sample"]


def screened_shard_mismatches(monkeypatch, cases, stop_at_first=False):
    """Shards whose ``_shard_counts`` differ from ``exact_shard_counts``, and
    the share of screened samples that took the exact path (float64
    ``arctan2`` elements over float32 ones)."""
    oracle = sectorbalance.oracle
    inner = np.arctan2
    seen = {"float32": 0, "float64": 0}

    def counted(*args, **kwargs):
        t = inner(*args, **kwargs)
        seen[t.dtype.name] += t.size
        return t

    monkeypatch.setattr(np, "arctan2", counted)
    mismatches = []
    for cfg, fan, seed, shards in cases:
        taus, _ = oracle._sector_change_points(build_partition(fan))
        table = oracle._screen_table(taus)
        for shard, m in shards:
            got = oracle._shard_counts(cfg, taus, table, seed, shard, m)
            if got.tolist() != exact_shard_counts(cfg, taus, seed, shard, m).tolist():
                mismatches.append((cfg, fan, seed, shard))
                if stop_at_first:
                    return mismatches, None
    return mismatches, seen["float64"] / seen["float32"]


class TestScreenedCounts:
    """``_shard_counts`` screens in float32 and rechecks in float64 only the
    samples near a change point, near +-pi or near the pole; every count must
    still equal the float64 expression's, and the rechecked share must stay
    between a floor and a ceiling, so a screen that flags nothing or
    everything fails here."""

    def test_gate_poles_first_and_last_shard(self, monkeypatch):
        mismatches, share = screened_shard_mismatches(monkeypatch, gate_pole_shards())
        assert mismatches == []
        assert 1e-4 <= share <= 2e-2

    @pytest.mark.parametrize("case", edge_shards(), ids=EDGE_IDS)
    def test_edge_cases(self, monkeypatch, case):
        mismatches, share = screened_shard_mismatches(monkeypatch, [case])
        assert mismatches == []
        assert 1e-4 <= share <= 2e-2

    def test_margin_zero_is_caught(self, monkeypatch):
        # No angle bin flagged: only samples near the pole are rechecked.
        real = sectorbalance.oracle._screen_table
        monkeypatch.setattr(sectorbalance.oracle, "_screen_table",
                            lambda taus: np.zeros_like(real(taus)))
        mismatches, _ = screened_shard_mismatches(
            monkeypatch, [*edge_shards(), *gate_pole_shards()], stop_at_first=True)
        assert mismatches

    def test_biased_screen_is_caught(self, monkeypatch):
        real = np.arctan2

        def biased(*args, **kwargs):
            t = real(*args, **kwargs)
            if t.dtype == np.float32:
                t += np.float32(1e-3)
            return t

        monkeypatch.setattr(np, "arctan2", biased)
        mismatches, _ = screened_shard_mismatches(
            monkeypatch, [*edge_shards(), *gate_pole_shards()], stop_at_first=True)
        assert mismatches

    def test_one_sample_off_in_one_shard_is_caught(self, monkeypatch):
        # The fault check_pizza_cancellation cannot see (tests/test_verify.py).
        real = sectorbalance.oracle._shard_counts

        def off_by_one(cfg, taus, table, seed, shard, m):
            counts = real(cfg, taus, table, seed, shard, m)
            counts[0] += shard == 0
            return counts

        monkeypatch.setattr(sectorbalance.oracle, "_shard_counts", off_by_one)
        mismatches, _ = screened_shard_mismatches(
            monkeypatch, [*edge_shards(), *gate_pole_shards()], stop_at_first=True)
        assert mismatches


class TestScreenBound:
    """The bound behind the screen, measured on this platform: a platform
    whose float32 ufuncs miss it fails here, and ``montecarlo_area`` has no
    fallback, so its counts could otherwise drift there."""

    def test_float32_ufuncs_within_the_assumed_error(self):
        rng = np.random.default_rng(2027)
        ang = (rng.random(1 << 20) * TWO_PI).astype(np.float32)
        for f in (np.sin, np.cos):
            want = f(ang.astype(np.float64))
            ulp = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
            assert np.max(np.abs(f(ang) - want) / ulp) <= 2.0, f.__name__
        # Sample points in units of a, as the screen sees them.
        x, y = (rng.uniform(-2.0, 2.0, 1 << 20).astype(np.float32) for _ in range(2))
        want = np.arctan2(y.astype(np.float64), x.astype(np.float64))
        assert np.max(np.abs(np.arctan2(y, x) - want)) <= 2e-6

    def test_screened_angle_within_a_tenth_of_the_margin(self):
        rng = np.random.default_rng(2028)
        worst = 0.0
        kept = 0
        for r0 in (0.0, 0.2, 0.5, 0.8, 0.95):
            for theta0 in (0.4, -2.9):
                cfg = CircleConfig(1.7, r0 * 1.7, theta0)
                s = np.sqrt(rng.random(120_000))
                ang = rng.random(120_000) * TWO_PI
                t32, rho2 = sectorbalance.oracle._screen(cfg, s, ang)
                t = np.arctan2(cfg.r0 * math.sin(theta0) + cfg.a * s * np.sin(ang),
                               cfg.r0 * math.cos(theta0) + cfg.a * s * np.cos(ang))
                far = rho2 >= np.float32(_SCREEN_RHO * _SCREEN_RHO)
                gap = np.abs(np.mod(t32[far] - t[far] + PI, TWO_PI) - PI)
                worst = max(worst, float(gap.max()))
                kept += int(far.sum())
        assert kept >= 1_000_000
        assert worst <= _SCREEN_MARGIN / 10
