import math
import random

import pytest

from sectorbalance import (
    CASE_EIGHT,
    CASE_FOUR,
    CASE_GENERAL,
    CASE_SIX,
    VARIANT_AS_PRINTED,
    VARIANT_CORRECTED,
    ChordFan,
    CircleConfig,
    DomainError,
    area_report,
    build_partition,
    case_residual,
    quadrature_residual,
    residual_eight,
    residual_four,
    residual_general,
    residual_six,
    special_case_eight,
    special_case_four,
    special_case_six,
    substituted_angle,
)
from sectorbalance.verify import random_circle, random_fan

PI = math.pi


def pizza_fan(t1: float) -> tuple[float, float, float, float]:
    return (t1, t1 + PI / 4, t1 + PI / 2, t1 + 3 * PI / 4)


class TestResidualEight:
    def test_centered_quarter_width_sum(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        report = residual_eight(cfg, 0.0, PI / 3, PI / 2, PI / 2 + PI / 6)
        assert report.residual == pytest.approx(0.0, abs=1e-15)
        assert report.case_tag == CASE_EIGHT
        assert report.variant == VARIANT_CORRECTED

    def test_pizza_fan_off_center(self):
        cfg = CircleConfig(1.0, 0.6, 0.3)
        assert residual_eight(cfg, *pizza_fan(0.0)).residual == pytest.approx(0.0, abs=1e-15)
        assert quadrature_residual(cfg, pizza_fan(0.0)) == pytest.approx(0.0, abs=1e-10)

    def test_centered_formula_value(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        report = residual_eight(cfg, 0.0, PI / 3, PI / 2, 3 * PI / 4)
        assert report.residual == pytest.approx(PI / 12, rel=1e-12)

    def test_scales_with_radius_squared(self):
        cfg = CircleConfig(1.7, 0.0, 0.0)
        report = residual_eight(cfg, 0.0, PI / 3, PI / 2, 3 * PI / 4)
        assert report.residual == pytest.approx(1.7**2 * PI / 12, rel=1e-12)

    def test_rejects_bad_ordering(self):
        cfg = CircleConfig(1.0, 0.2, 0.0)
        with pytest.raises(DomainError):
            residual_eight(cfg, 0.0, 0.5, 0.4, 1.0)
        with pytest.raises(DomainError):
            residual_eight(cfg, 0.0, 0.5, 1.0, 0.0 + PI)


class TestResidualFour:
    def test_centered_quarter_turn(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        assert residual_four(cfg, 0.3, 0.3 + PI / 2).residual == pytest.approx(0.0, abs=1e-15)

    def test_axis_aligned_any_offset(self):
        for r0 in (0.1, 0.5, 0.9):
            cfg = CircleConfig(1.0, r0, 0.8)
            report = residual_four(cfg, 0.8, 0.8 + PI / 2)
            assert report.residual == pytest.approx(0.0, abs=1e-15)
            assert quadrature_residual(cfg, report.angles) == pytest.approx(0.0, abs=1e-10)

    def test_centered_third_turn(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        assert residual_four(cfg, 0.0, PI / 3).residual == pytest.approx(-PI / 6, rel=1e-12)


class TestResidualSix:
    def test_centered_is_zero_for_any_fan(self):
        cfg = CircleConfig(1.0, 0.0, 1.2)
        assert residual_six(cfg, -0.4, 0.5, 1.1).residual == 0.0

    @pytest.mark.parametrize("gamma,r0", [(0.2, 0.2), (0.5, 0.6), (1.0, 0.8)])
    def test_mirror_fan_balances_and_audit_variant_deviates(self, gamma, r0):
        theta0 = 0.37
        cfg = CircleConfig(1.0, r0, theta0)
        angles = (theta0 - gamma, theta0, theta0 + gamma)
        corrected = residual_six(cfg, *angles)
        printed = residual_six(cfg, *angles, variant=VARIANT_AS_PRINTED)
        assert corrected.residual == pytest.approx(0.0, abs=1e-12)
        assert quadrature_residual(cfg, angles) == pytest.approx(0.0, abs=1e-10)
        assert printed.residual == pytest.approx(r0 * r0 * math.sin(2 * gamma), abs=1e-12)
        assert printed.variant == VARIANT_AS_PRINTED

    def test_offset_instance_matches_quadrature(self):
        # Frozen from the quadrature oracle.
        cfg = CircleConfig(1.0, 0.5, 0.0)
        report = residual_six(cfg, 0.1, PI / 3, 2 * PI / 3)
        assert report.residual == pytest.approx(-0.099791942353575136, rel=1e-12)
        assert quadrature_residual(cfg, report.angles) == pytest.approx(
            report.residual, abs=1e-10
        )

    def test_aligned_instance_balances_by_cancellation(self):
        # t1 on the centre axis and sin(t3) = sin(t2) make the bracket vanish.
        cfg = CircleConfig(1.0, 0.5, 0.0)
        report = residual_six(cfg, 0.0, PI / 3, 2 * PI / 3)
        assert report.residual == pytest.approx(0.0, abs=1e-15)
        assert quadrature_residual(cfg, report.angles) == pytest.approx(0.0, abs=1e-10)

    def test_as_printed_undefined_at_center(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            residual_six(cfg, 0.0, 0.5, 1.0, variant=VARIANT_AS_PRINTED)

    def test_unknown_variant_rejected(self):
        cfg = CircleConfig(1.0, 0.3, 0.0)
        with pytest.raises(DomainError):
            residual_six(cfg, 0.0, 0.5, 1.0, variant="mystery")


class TestResidualGeneral:
    def test_single_chord_through_center(self):
        cfg = CircleConfig(1.0, 0.5, 0.8)
        report = residual_general(cfg, ChordFan((0.8,)))
        assert report.residual == pytest.approx(0.0, abs=1e-14)

    def test_single_chord_off_axis(self):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        report = residual_general(cfg, ChordFan((0.7,)))
        x1 = substituted_angle(cfg, 0.7)
        expected = -0.5 * (2.0 * x1 + math.sin(2.0 * x1))
        assert report.residual == pytest.approx(expected, rel=1e-12)
        assert report.residual != pytest.approx(0.0, abs=1e-6)

    def test_pizza_fan_many_poles(self):
        rng = random.Random(555)
        for _ in range(100):
            cfg = random_circle(rng)
            fan = ChordFan(pizza_fan(rng.uniform(-PI, PI)))
            assert abs(residual_general(cfg, fan).residual) <= 1e-10 * cfg.a**2

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_chord_equal_spacing_balances(self, n):
        rng = random.Random(n)
        for _ in range(25):
            cfg = random_circle(rng)
            t1 = rng.uniform(-PI, PI)
            fan = ChordFan(tuple(t1 + k * PI / n for k in range(n)))
            assert abs(residual_general(cfg, fan).residual) <= 1e-10 * cfg.a**2

    def test_five_chord_equal_spacing_does_not_balance(self):
        # Odd chord counts keep their arcsine terms; frozen via quadrature.
        cfg = CircleConfig(1.0, 0.5, 0.0)
        fan = ChordFan(tuple(0.3 + k * PI / 5 for k in range(5)))
        report = residual_general(cfg, fan)
        assert report.residual == pytest.approx(0.00057741183689530295, rel=1e-10)
        assert quadrature_residual(cfg, fan.base_angles) == pytest.approx(
            report.residual, abs=1e-10
        )

    def test_overflowing_angle_difference_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            residual_general(CircleConfig(1.0, 0.5, 1e308), ChordFan((0.0, 1.0)))

    def test_consistency_with_area_report(self):
        rng = random.Random(31337)
        for _ in range(200):
            cfg = random_circle(rng)
            fan = random_fan(rng)
            report = residual_general(cfg, fan)
            odd = area_report(cfg, build_partition(fan)).odd_sum
            assert report.residual == pytest.approx(
                odd - PI * cfg.a**2 / 2, abs=1e-10 * cfg.a**2
            )


class TestCaseDispatch:
    def test_small_cases_agree_with_general(self):
        rng = random.Random(777)
        for n, tag in ((2, CASE_FOUR), (3, CASE_SIX), (4, CASE_EIGHT)):
            for _ in range(50):
                cfg = random_circle(rng)
                fan = random_fan(rng, n=n)
                closed = case_residual(cfg, fan.base_angles)
                general = residual_general(cfg, fan)
                assert closed.case_tag == tag
                assert closed.residual == pytest.approx(
                    general.residual, abs=1e-10 * cfg.a**2
                )

    def test_explicit_general_tag(self):
        cfg = CircleConfig(1.0, 0.2, 0.0)
        report = case_residual(cfg, (0.0, 0.5), CASE_GENERAL)
        assert report.case_tag == CASE_GENERAL

    def test_size_mismatch_rejected(self):
        cfg = CircleConfig(1.0, 0.2, 0.0)
        with pytest.raises(DomainError):
            case_residual(cfg, (0.0, 0.5, 1.0), CASE_EIGHT)
        with pytest.raises(DomainError):
            case_residual(cfg, (0.0, 0.5), "nonsense")


class TestSpecialCaseEight:
    def test_symmetric_construction_passes_both(self):
        # t1 + t3 = 2*theta0, t4 = t2 + pi/2, and widths summing to pi/2
        # together force t2 = theta0.
        theta0 = 0.4
        t1, t2 = theta0 - 0.6, theta0
        t3 = 2 * theta0 - t1
        t4 = t2 + PI / 2
        cfg = CircleConfig(1.0, 0.5, theta0)
        check = special_case_eight(cfg, t1, t2, t3, t4)
        assert check.width_ok and check.sine_ok
        assert abs(residual_eight(cfg, t1, t2, t3, t4).residual) <= 10 * 1e-9

    def test_pizza_fan_passes_for_any_theta0(self):
        for theta0 in (-1.0, 0.0, 0.9, 2.2):
            cfg = CircleConfig(1.0, 0.7, theta0)
            check = special_case_eight(cfg, *pizza_fan(0.2))
            assert check.width_ok and check.sine_ok

    def test_width_condition_fails(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        check = special_case_eight(cfg, 0.0, PI / 3, PI / 2, 3 * PI / 4)
        assert not check.width_ok

    def test_tan_form_indeterminate_near_pole(self):
        theta0 = 0.0
        t1, t3 = 0.2, PI / 2 - 0.2  # t1 + t3 = pi/2 exactly
        cfg = CircleConfig(1.0, 0.3, theta0)
        check = special_case_eight(cfg, t1, 0.5, t3, 1.6)
        assert check.tan_form is None

    def test_tan_form_zero_when_conditions_hold(self):
        theta0 = 0.4
        t1, t2 = theta0 - 0.6, theta0
        t3 = 2 * theta0 - t1
        t4 = t2 + PI / 2
        cfg = CircleConfig(1.0, 0.5, theta0)
        check = special_case_eight(cfg, t1, t2, t3, t4)
        assert check.tan_form == pytest.approx(0.0, abs=1e-12)


class TestSpecialCaseFour:
    def test_axis_aligned_true_true(self):
        cfg = CircleConfig(1.0, 0.6, 0.5)
        check = special_case_four(cfg, 0.5, 0.5 + PI / 2)
        assert check == (True, True)
        assert residual_four(cfg, 0.5, 0.5 + PI / 2).residual == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_offset_flips_sine(self):
        cfg = CircleConfig(1.0, 0.6, 0.0)
        check = special_case_four(cfg, PI / 4, PI / 4 + PI / 2)
        assert check.width_ok
        assert not check.sine_ok

    def test_narrow_width_false(self):
        cfg = CircleConfig(1.0, 0.6, 0.0)
        assert not special_case_four(cfg, 0.0, PI / 3).width_ok


class TestSpecialCaseSix:
    def test_mirror_fan_bracket_true_sine_false(self):
        # Balance needs only the bracket; the sine condition fails here, which
        # documents that it is not necessary under the corrected residual.
        theta0, gamma = 0.3, 0.5
        cfg = CircleConfig(1.0, 0.6, theta0)
        check = special_case_six(cfg, theta0 - gamma, theta0, theta0 + gamma)
        assert check.bracket_ok
        assert not check.sine_ok
        assert residual_six(cfg, theta0 - gamma, theta0, theta0 + gamma).residual == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_centered_bracket_always_true(self):
        cfg = CircleConfig(1.0, 0.0, 0.0)
        check = special_case_six(cfg, -0.9, 0.2, 1.3)
        assert check.bracket_ok

    def test_generic_fan_fails_bracket(self):
        cfg = CircleConfig(1.0, 0.5, 0.0)
        assert not special_case_six(cfg, 0.1, PI / 3, 2 * PI / 3).bracket_ok

    def test_half_turn_mirror_fan_unreachable(self):
        # gamma = pi/2 puts the outer chords a full half-turn apart, which the
        # fan invariants exclude before the predicate can run.
        cfg = CircleConfig(1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            special_case_six(cfg, -PI / 2, 0.0, PI / 2)


class TestCenteredPoleTranslation:
    def test_residuals_depend_only_on_widths_at_center(self):
        # With the pole at the centre the residual keeps no memory of theta0
        # or of where the fan sits, only of the odd widths.
        rng = random.Random(8080)
        for _ in range(100):
            a = rng.uniform(0.5, 2.0)
            theta0 = rng.uniform(-PI, PI)
            cfg = CircleConfig(a, 0.0, theta0)
            t1 = rng.uniform(-PI, PI)
            w1 = rng.uniform(0.05, 1.0)
            gap = rng.uniform(0.05, 0.5)
            w2 = rng.uniform(0.05, 1.0)
            eight = residual_eight(cfg, t1, t1 + w1, t1 + w1 + gap, t1 + w1 + gap + w2)
            assert eight.residual == pytest.approx(
                a * a * (w1 + w2 - PI / 2), abs=1e-12 * a * a
            )
            four = residual_four(cfg, t1, t1 + w1)
            assert four.residual == pytest.approx(
                a * a * (w1 - PI / 2), abs=1e-12 * a * a
            )


def _sin2_as_written(cfg, t):
    return math.sin(2.0 * (t - cfg.theta0))


def _four_as_written(cfg, t1, t2):
    sine_part = _sin2_as_written(cfg, t2) - _sin2_as_written(cfg, t1)
    return 0.5 * cfg.r0 * cfg.r0 * sine_part + cfg.a * cfg.a * (t2 - t1 - 0.5 * PI)


def _six_as_written(cfg, t1, t2, t3):
    x1 = substituted_angle(cfg, t1)
    x2 = substituted_angle(cfg, t2)
    x3 = substituted_angle(cfg, t3)
    bracket = (
        2.0 * (x2 - x3 - x1)
        - math.sin(2.0 * x3)
        + math.sin(2.0 * x2)
        - math.sin(2.0 * x1)
    )
    return 0.5 * cfg.a * cfg.a * bracket


def _eight_as_written(cfg, t1, t2, t3, t4):
    sine_part = (
        _sin2_as_written(cfg, t2) - _sin2_as_written(cfg, t1)
        + _sin2_as_written(cfg, t4) - _sin2_as_written(cfg, t3)
    )
    width_part = (t2 - t1) + (t4 - t3) - 0.5 * PI
    return 0.5 * cfg.r0 * cfg.r0 * sine_part + cfg.a * cfg.a * width_part


class TestOneClosedForm:
    @pytest.mark.parametrize(
        "n,as_written", [(2, _four_as_written), (3, _six_as_written), (4, _eight_as_written)]
    )
    def test_small_cases_keep_their_bits(self, n, as_written):
        # float.hex also tells -0.0 from 0.0, which a centred pole produces.
        rng = random.Random(4200 + n)
        for i in range(1000):
            cfg = random_circle(rng)
            if i % 10 == 0:
                cfg = CircleConfig(cfg.a, 0.0, cfg.theta0)
            angles = random_fan(rng, n=n).base_angles
            got = case_residual(cfg, angles).residual
            assert got.hex() == as_written(cfg, *angles).hex()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_general_tag_matches_sector_sum(self, n):
        rng = random.Random(9100 + n)
        for _ in range(200):
            cfg = random_circle(rng, max_offset=0.999)
            fan = random_fan(rng, n=n)
            closed = case_residual(cfg, fan.base_angles, CASE_GENERAL)
            assert closed.case_tag == CASE_GENERAL
            assert abs(closed.residual - residual_general(cfg, fan).residual) <= (
                1e-13 * cfg.a**2
            )

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_even_equal_spacing_balances(self, n):
        rng = random.Random(9300 + n)
        for _ in range(100):
            cfg = random_circle(rng, max_offset=0.999)
            t1 = rng.uniform(-PI, PI)
            angles = tuple(t1 + k * PI / n for k in range(n))
            assert abs(case_residual(cfg, angles).residual) <= 1e-13 * cfg.a**2


class TestHalfTurnEdge:
    # The span is one rounding step below pi, so the fan is valid, but
    # t_n + pi - t_1 rounds to a full turn and the partition is refused.
    T1, TN = 0.177, 3.3185926535897927

    @pytest.mark.parametrize("inner", [(), (0.677, 1.177, 1.677, 2.177)])
    def test_two_and_six_chords_both_evaluate(self, inner):
        cfg = CircleConfig(1.3, 0.6, 0.4)
        angles = (self.T1, *inner, self.TN)
        fan = ChordFan(angles)
        with pytest.raises(DomainError):
            build_partition(fan)
        value = case_residual(cfg, angles).residual
        # |dR/dt_n| <= a^2 + r0^2, so a 1e-9 nudge moves R by under 2e-9*a^2.
        nudged = ChordFan(angles[:-1] + (self.TN - 1e-9,))
        assert abs(value - residual_general(cfg, nudged).residual) <= 1e-8 * cfg.a**2


def _bad_fans():
    """(n, kind, angles, message) for every way a fan of n = 1..9 chords can be invalid."""
    for n in range(1, 10):
        base = [0.3 * i for i in range(n)]
        mid = n // 2
        for kind, value in (("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf)):
            angles = list(base)
            angles[mid] = value
            yield n, kind, tuple(angles), "must be finite"
        if n >= 2:
            yield n, "unordered", (base[1], base[0], *base[2:]), "strictly increasing"
            yield n, "half-turn", (*base[:-1], PI), "half-turn"


_RESIDUAL_BY_SIZE = {
    2: (residual_four, special_case_four),
    3: (residual_six, special_case_six),
    4: (residual_eight, special_case_eight),
}


class TestFanValidation:
    """ChordFan, case_residual and the two- to four-chord entry points share one fan check."""

    @pytest.mark.parametrize(
        "n, angles, message",
        [(n, angles, message) for n, _, angles, message in _bad_fans()],
        ids=[f"n{n}-{kind}" for n, kind, _, _ in _bad_fans()],
    )
    def test_every_entry_point_rejects_the_fan(self, n, angles, message):
        cfg = CircleConfig(1.0, 0.4, 0.2)
        calls = [lambda: ChordFan(angles), lambda: case_residual(cfg, angles)]
        for fn in _RESIDUAL_BY_SIZE.get(n, ()):
            calls.append(lambda fn=fn: fn(cfg, *angles))
        for call in calls:
            with pytest.raises(DomainError, match=message):
                call()
