import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorbalance import (
    AreaReport,
    ChordFan,
    CircleConfig,
    DomainError,
    SectorPartition,
    area_report,
    build_partition,
    opposite_pair_sum,
    radial_distance,
    sector_area_closed,
    substituted_angle,
)
from sectorbalance.verify import random_circle, random_fan

PI = math.pi


@st.composite
def circles(draw):
    a = draw(st.floats(0.5, 2.0))
    frac = draw(st.floats(0.0, 0.95))
    theta0 = draw(st.floats(-PI, PI))
    return CircleConfig(a=a, r0=frac * a, theta0=theta0)


class TestCircleConfig:
    @pytest.mark.parametrize(
        "a,r0,theta0",
        [(0.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, -0.1, 0.0), (1.0, 1.0, 0.0),
         (1.0, 1.5, 0.0), (1.0, 0.5, math.inf), (math.nan, 0.0, 0.0)],
    )
    def test_rejects_bad_parameters(self, a, r0, theta0):
        with pytest.raises(DomainError):
            CircleConfig(a=a, r0=r0, theta0=theta0)

    def test_accepts_centered(self):
        cfg = CircleConfig(a=2.0, r0=0.0, theta0=1.0)
        assert cfg.r0 == 0.0


class TestRadialDistance:
    @pytest.mark.parametrize(
        "cfg,theta,expected",
        [
            (CircleConfig(2.0, 0.0, 0.0), 1.3, 2.0),
            (CircleConfig(1.0, 0.5, 0.0), 0.0, 1.5),
            (CircleConfig(1.0, 0.5, 0.0), PI, 0.5),
            (CircleConfig(1.0, 0.5, 0.0), PI / 2, math.sqrt(0.75)),
        ],
    )
    def test_known_values(self, cfg, theta, expected):
        assert radial_distance(cfg, theta) == pytest.approx(expected, rel=1e-15)

    @given(circles(), st.floats(-10.0, 10.0))
    def test_periodic(self, cfg, theta):
        r1 = radial_distance(cfg, theta)
        r2 = radial_distance(cfg, theta + 2.0 * PI)
        assert r2 == pytest.approx(r1, rel=1e-13)

    @given(circles(), st.floats(-10.0, 10.0))
    def test_strictly_positive(self, cfg, theta):
        assert radial_distance(cfg, theta) > 0.0


class TestSubstitutedAngle:
    def test_centered_is_zero(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        assert substituted_angle(cfg, 2.1) == 0.0

    def test_vanishes_along_center_direction(self):
        cfg = CircleConfig(1.0, 0.7, 0.4)
        assert substituted_angle(cfg, 0.4) == 0.0

    def test_exact_arcsine(self):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        assert substituted_angle(cfg, PI / 2) == pytest.approx(PI / 6, abs=1e-15)

    @given(circles(), st.floats(-2.0 * PI, 2.0 * PI))
    def test_antipodal_antisymmetry(self, cfg, theta):
        assert abs(substituted_angle(cfg, theta + PI) + substituted_angle(cfg, theta)) <= 1e-15

    @given(circles(), st.floats(-10.0, 10.0))
    def test_principal_branch(self, cfg, theta):
        assert abs(substituted_angle(cfg, theta)) < PI / 2


class TestSectorAreaClosed:
    def test_centered_quarter_disk(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        assert sector_area_closed(cfg, 0.0, PI / 2) == pytest.approx(PI / 4, rel=1e-15)

    def test_diameter_chord_half_disk(self):
        # The boundary through pole and centre is a diameter.
        cfg = CircleConfig(1.0, 0.5, 0.0)
        assert sector_area_closed(cfg, 0.0, PI) == pytest.approx(PI / 2, rel=1e-14)

    def test_offset_quarter_matches_quadrature_oracle(self):
        # Frozen from adaptive quadrature of (1/2) Int r^2 dtheta.
        cfg = CircleConfig(1.0, 0.5, 0.0)
        assert sector_area_closed(cfg, 0.0, PI / 2) == pytest.approx(
            1.2637039021427074, rel=1e-12
        )

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (1.0, 0.5), (0.0, 7.0)])
    def test_rejects_bad_intervals(self, lo, hi):
        cfg = CircleConfig(1.0, 0.3, 0.0)
        with pytest.raises(DomainError):
            sector_area_closed(cfg, lo, hi)

    def test_large_interval_wider_than_a_turn_is_rejected(self):
        # The full-turn slack covers only the rounding of the far end, not
        # 1e-12 of the angles' size (which let this through with area 8 > pi).
        with pytest.raises(DomainError, match="exceeds a full turn"):
            sector_area_closed(CircleConfig(1.0, 0.0, 0.0), 1e17, 1e17 + 16)

    @pytest.mark.parametrize("theta", [1e3, -1e9, 3e15])
    def test_full_turn_formed_at_large_angles_is_accepted(self, theta):
        sector_area_closed(CircleConfig(1.0, 0.0, 0.0), theta, theta + 2.0 * PI)

    @given(circles(), st.floats(-6.0, 6.0))
    def test_full_turn_is_disk_area(self, cfg, theta):
        area = sector_area_closed(cfg, theta, theta + 2.0 * PI)
        assert area == pytest.approx(PI * cfg.a * cfg.a, rel=1e-12)

    @given(circles(), st.floats(-6.0, 6.0), st.floats(0.01, 3.0), st.floats(0.01, 3.0))
    def test_additive_over_subdivision(self, cfg, ta, w1, w2):
        tb = ta + w1
        tc = tb + w2
        whole = sector_area_closed(cfg, ta, tc)
        split = sector_area_closed(cfg, ta, tb) + sector_area_closed(cfg, tb, tc)
        assert split == pytest.approx(whole, rel=1e-12)

    @given(circles(), st.floats(-6.0, 6.0), st.floats(1e-3, 2.0 * PI - 1e-3))
    def test_positive_for_real_widths(self, cfg, ta, width):
        assert sector_area_closed(cfg, ta, ta + width) > 0.0

    @given(
        st.floats(0.5, 2.0),
        st.floats(0.0, 0.9),
        st.floats(-PI, PI),
        st.floats(-3.0, 3.0),
        st.floats(2e-13, 1e-12),
    )
    def test_degenerate_width_bounded(self, a, frac, theta0, ta, width):
        # Tiny sectors: non-negative up to rounding noise, and no larger than
        # the max-radius wedge (1/2)(a + r0)^2 * width.
        cfg = CircleConfig(a=a, r0=frac * a, theta0=theta0)
        area = sector_area_closed(cfg, ta, ta + width)
        a2 = cfg.a * cfg.a
        assert area >= -1e-15 * a2
        assert area <= 0.5 * (cfg.a + cfg.r0) ** 2 * width + 1e-15 * a2


class TestChordFanAndPartition:
    def test_two_chord_partition(self):
        part = build_partition(ChordFan((0.0, PI / 2)))
        assert part.boundaries == (0.0, PI / 2, PI, 3 * PI / 2)

    def test_pizza_partition_has_eight_boundaries(self):
        part = build_partition(ChordFan((0.0, PI / 4, PI / 2, 3 * PI / 4)))
        assert part.sector_count == 8
        assert part.boundaries[-1] == pytest.approx(7 * PI / 4, rel=1e-15)

    @pytest.mark.parametrize("angles", [(0.0, PI), (0.0, 3.2), (1.0, 1.0), (2.0, 1.0), ()])
    def test_rejects_bad_fans(self, angles):
        with pytest.raises(DomainError):
            ChordFan(tuple(angles))

    def test_partition_rejects_broken_closure(self):
        with pytest.raises(DomainError):
            SectorPartition((0.0, 1.0, PI, 1.0 + PI + 1e-6))

    @pytest.mark.parametrize("t", [1e5, -1e5, 123456.789, 1e7])
    def test_antipodes_of_large_angles_close_the_partition(self, t):
        # t + pi rounds by up to half an ulp of the antipode, which is above
        # the absolute slack once |t| passes about 1.6e4.
        part = build_partition(ChordFan((t, t + 1.0)))
        assert part.boundaries[2] == t + PI

    def test_partition_off_by_1e9_at_small_angles_is_rejected(self):
        with pytest.raises(DomainError, match="boundary 4 must be boundary 2 plus pi"):
            SectorPartition((0.0, 1.0, PI, 1.0 + PI + 1e-9))

    def test_partition_rejects_odd_count(self):
        with pytest.raises(DomainError):
            SectorPartition((0.0, 1.0, PI))

    def test_sectors_wrap_the_last_interval_by_a_full_turn(self):
        part = build_partition(ChordFan((0.5, 1.5)))
        assert part.sectors == ((0.5, 1.5), (1.5, 0.5 + PI), (0.5 + PI, 1.5 + PI),
                                (1.5 + PI, 0.5 + 2.0 * PI))


class TestAreaReport:
    def test_overflowing_angle_difference_is_domain_error(self):
        # 2*(t - theta0) overflows, where math.sin would raise a bare ValueError.
        cfg = CircleConfig(1.0, 0.5, 1e308)
        with pytest.raises(DomainError, match="overflows"):
            area_report(cfg, build_partition(ChordFan((0.0, 1.0))))
        # Wider than a turn by far more than the rounding of its far end.
        with pytest.raises(DomainError, match="exceeds a full turn"):
            sector_area_closed(CircleConfig(1.0, 0.5, -1e308), 1e308, 1e308 + 1e293)

    def test_centered_quarters(self):
        cfg = CircleConfig(2.0, 0.0, 0.0)
        report = area_report(cfg, build_partition(ChordFan((0.0, PI / 2))))
        for area in report.sector_areas:
            assert area == pytest.approx(PI, rel=1e-14)
        assert report.odd_sum == pytest.approx(report.even_sum, rel=1e-14)

    def test_pizza_fan_balances_offset_pole(self):
        cfg = CircleConfig(1.0, 0.6, 0.3)
        report = area_report(cfg, build_partition(ChordFan((0.0, PI / 4, PI / 2, 3 * PI / 4))))
        assert report.odd_sum == pytest.approx(PI / 2, abs=1e-12)
        assert report.even_sum == pytest.approx(PI / 2, abs=1e-12)

    def test_totals_and_parity_split(self):
        rng = random.Random(1234)
        for _ in range(200):
            cfg = random_circle(rng)
            report = area_report(cfg, build_partition(random_fan(rng)))
            disk = PI * cfg.a * cfg.a
            assert report.total == pytest.approx(disk, rel=1e-10)
            assert report.odd_sum + report.even_sum == pytest.approx(report.total, rel=1e-12)
            assert all(area > 0.0 for area in report.sector_areas)
            assert isinstance(report, AreaReport)

    def test_from_areas_sums_alternate_sectors(self):
        report = AreaReport.from_areas(iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        assert report == AreaReport((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 9.0, 12.0, 21.0)


class TestOppositePairSum:
    def test_centered_reduces_to_width_term(self):
        cfg = CircleConfig(1.5, 0.0, 0.7)
        assert opposite_pair_sum(cfg, 0.2, 1.0) == pytest.approx(1.5**2 * 0.8, rel=1e-14)

    def test_vanishing_cosine_factor(self):
        cfg = CircleConfig(1.0, 0.7, 0.0)
        assert opposite_pair_sum(cfg, 0.0, PI / 2) == pytest.approx(PI / 2, rel=1e-14)

    def test_matches_two_sector_sum(self):
        cfg = CircleConfig(1.0, 0.5, 0.2)
        pair = opposite_pair_sum(cfg, 0.1, 0.9)
        two = sector_area_closed(cfg, 0.1, 0.9) + sector_area_closed(cfg, 0.1 + PI, 0.9 + PI)
        assert pair == pytest.approx(two, rel=1e-12)

    def test_rejects_half_turn_and_wider(self):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            opposite_pair_sum(cfg, 0.0, PI)
        with pytest.raises(DomainError):
            opposite_pair_sum(cfg, 0.0, 4.0)

    @settings(max_examples=200)
    @given(circles(), st.floats(-6.0, 6.0), st.floats(0.05, PI - 0.05))
    def test_pair_identity_property(self, cfg, ta, width):
        tb = ta + width
        pair = opposite_pair_sum(cfg, ta, tb)
        two = sector_area_closed(cfg, ta, tb) + sector_area_closed(cfg, ta + PI, tb + PI)
        assert two == pytest.approx(pair, rel=1e-12)
