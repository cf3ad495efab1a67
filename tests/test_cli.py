import hashlib
import json
import math
import subprocess
import sys
import types

import pytest

from sectorbalance import solver, verify
from sectorbalance.cli import run_cli

PI = math.pi

PIZZA = "0,0.7853981633974483,1.5707963267948966,2.356194490192345"


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAreas:
    def test_centered_quarters(self, capsys):
        code, out, _ = run(capsys, ["areas", "--a", "1", "--r0", "0", "--theta0", "0",
                                    "--chords", "0,1.5707963267948966"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["sectors"]) == 4
        for sector in doc["sectors"]:
            assert sector["area"] == pytest.approx(PI / 4, rel=1e-15)
        assert doc["total"] == pytest.approx(PI, rel=1e-15)

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, ["areas", "--a", "1", "--r0", "0.3", "--theta0", "0",
                                    "--chords", "0,1.2", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,theta_lo,theta_hi,area,parity"
        assert len(lines) == 5
        assert lines[1].startswith("1,0,")
        assert lines[1].endswith(",odd")
        assert lines[2].endswith(",even")

    def test_quadrature_mode_matches_closed(self, capsys):
        base = ["--a", "1.2", "--r0", "0.5", "--theta0", "0.4", "--chords", "0.1,0.9"]
        code, closed_out, _ = run(capsys, ["areas", *base])
        code2, quad_out, _ = run(capsys, ["areas", *base, "--mode", "quadrature"])
        assert code == 0 and code2 == 0
        closed = json.loads(closed_out)
        quad = json.loads(quad_out)
        for s_closed, s_quad in zip(closed["sectors"], quad["sectors"]):
            assert s_quad["area"] == pytest.approx(s_closed["area"], rel=1e-10)

    def test_montecarlo_mode_reports_stderr(self, capsys):
        code, out, _ = run(capsys, ["areas", "--a", "1", "--r0", "0.5", "--theta0", "0",
                                    "--chords", "0,1.5707963267948966",
                                    "--mode", "montecarlo", "--samples", "200000",
                                    "--seed", "42"])
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 200000
        assert doc["seed"] == 42
        closed = [1.2637039021427074, 0.3070924246521892, 0.30709242465218906,
                  1.2637039021427072]
        for sector, ref in zip(doc["sectors"], closed):
            assert abs(sector["area"] - ref) <= 4.0 * sector["stderr"]
        assert doc["total"] == pytest.approx(PI, rel=1e-12)

    def test_pole_outside_is_domain_error(self, capsys):
        code, _, err = run(capsys, ["areas", "--a", "1", "--r0", "1.5", "--theta0", "0",
                                    "--chords", "0,1"])
        assert code == 2
        assert "r0" in err

    def test_bad_flag_is_usage_error(self, capsys):
        assert run_cli(["areas", "--bogus"]) == 1

    def test_missing_chords_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["areas", "--a", "1"])
        assert code == 1
        assert "chords" in err

    def test_missing_radius_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["areas", "--chords", "0,1"])
        assert (code, out) == (1, "")
        assert "missing circle radius" in err

    def test_unreachable_quadrature_tolerance_exits_3(self, capsys):
        fans = [
            # Three of this fan's eight sectors have a branch whose K15 and G7
            # never agree to this tolerance within 40 halvings.
            ["--a", "1.5515166083670648", "--r0", "0.5110568400665382",
             "--theta0", "-2.9676733569261673",
             "--chords=0.5587217688464459,0.8407669168770204,1.966972422057961,2.986734962603703"],
            # Here K15 and G7 round to the same double on some panels, so only
            # the roundoff floor keeps a sub-roundoff tolerance from passing.
            ["--a", "1", "--r0", "0.5", "--theta0", "0", "--chords", "0,1"],
        ]
        for fan in fans:
            code, out, err = run(capsys, ["areas", *fan, "--mode", "quadrature", "--tol", "1e-300"])
            assert code == 3
            assert out == ""
            assert "sectorbalance: quadrature error:" in err
            assert "not met within max_depth=40" in err

    def test_chords_near_1e5_have_areas(self, capsys):
        # The antipodes t + pi round by more than an absolute 1e-12 here.
        argv = ["areas", "--a", "1", "--r0", "0.5", "--chords", "100000,100001"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        closed = json.loads(out)
        assert closed["total"] == pytest.approx(PI, rel=1e-12)
        code, out, _ = run(capsys, [*argv, "--mode", "quadrature"])
        assert code == 0
        quad = json.loads(out)
        for c, q in zip(closed["sectors"], quad["sectors"]):
            assert abs(c["area"] - q["area"]) <= 1e-9

    def test_quadrature_at_unresolved_phase_is_domain_error(self, capsys):
        # At theta0 = 1e17, t - theta0 takes one value across every sector,
        # so the quadrature saw a constant integrand and printed total 0.882.
        argv = ["areas", "--a", "1", "--r0", "0.5", "--chords", "0,1", "--mode", "quadrature"]
        code, out, err = run(capsys, [*argv, "--theta0", "1e17"])
        assert (code, out) == (2, "")
        assert "domain error" in err and "single angle relative to theta0" in err
        # At 1e16, 1 - 1e16 rounds to -1e16, so sector [0, 1] is a single phase too.
        code, out, err = run(capsys, [*argv, "--theta0", "1e16"])
        assert (code, out) == (2, "")
        assert "[0.0, 1.0] is a single angle" in err
        # At 1e15 every sector keeps a few phases, none converges: exit 3.
        code, out, err = run(capsys, [*argv, "--theta0", "1e15"])
        assert (code, out) == (3, "")
        assert "not met within max_depth=40" in err
        # At 1e3 the areas are resolved and the output bytes are unchanged.
        code, out, _ = run(capsys, [*argv, "--theta0", "1e3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0136a56d9175ec526c2870b5384b5b7f3822b56289f8a7c04994414d0e121489")

    def test_overflowing_angle_difference_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["areas", "--a", "1", "--r0", "0.5", "--theta0", "1e308",
                                      "--chords", "0,1"])
        assert (code, out) == (2, "")
        assert "domain error" in err and "overflows" in err

    def test_degrees_flag_converts_inputs(self, capsys):
        _, rad_out, _ = run(capsys, ["areas", "--a", "1", "--r0", "0.4",
                                     "--theta0", str(PI / 6), "--chords", f"0,{PI / 2}"])
        _, deg_out, _ = run(capsys, ["areas", "--a", "1", "--r0", "0.4",
                                     "--theta0", "30", "--chords", "0,90", "--degrees"])
        rad = json.loads(rad_out)
        deg = json.loads(deg_out)
        for s_rad, s_deg in zip(rad["sectors"], deg["sectors"]):
            assert s_deg["area"] == pytest.approx(s_rad["area"], rel=1e-12)


class TestResidual:
    def test_pizza_residual_near_zero(self, capsys):
        code, out, _ = run(capsys, ["residual", "--case", "eight", "--a", "1",
                                    "--r0", "0.6", "--theta0", "0.3",
                                    "--chords", PIZZA])
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "eight"
        assert abs(doc["residual"]) <= 1e-10

    def test_quadrature_mode(self, capsys):
        code, out, _ = run(capsys, ["residual", "--case", "six", "--a", "1",
                                    "--r0", "0.5", "--theta0", "0",
                                    "--chords", "0.1,1.0471975511965976,2.0943951023931953",
                                    "--mode", "quadrature"])
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] == pytest.approx(-0.099791942353575136, abs=1e-10)

    def test_audit_includes_both_variants(self, capsys):
        code, out, _ = run(capsys, ["residual", "--case", "six", "--a", "1",
                                    "--r0", "0.5", "--theta0", "0.3",
                                    "--chords=-0.2,0.3,0.8", "--audit"])
        assert code == 0
        doc = json.loads(out)
        assert doc["audit"]["corrected"] == pytest.approx(0.0, abs=1e-12)
        assert doc["audit"]["as-printed"] == pytest.approx(0.25 * math.sin(1.0), abs=1e-12)
        assert doc["audit"]["quadrature"] == pytest.approx(0.0, abs=1e-10)

    def test_audit_at_center_is_domain_error(self, capsys):
        code, _, err = run(capsys, ["residual", "--case", "six", "--a", "1",
                                    "--r0", "0", "--theta0", "0",
                                    "--chords=-0.2,0.3,0.8", "--audit"])
        assert code == 2
        assert "as-printed" in err

    def test_case_size_mismatch_is_domain_error(self, capsys):
        code, _, _ = run(capsys, ["residual", "--case", "eight", "--a", "1",
                                  "--r0", "0.2", "--theta0", "0", "--chords", "0,1"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--theta0", "1e308", "--chords", "0,1"],
        ["--theta0=-1e308", "--chords", "1e308"],
        ["--theta0=-1e308", "--chords", "0,0.1,0.2", "--case", "six", "--audit"],
    ], ids=["even-n", "odd-n", "as-printed"])
    def test_overflowing_angle_difference_is_domain_error(self, capsys, flags):
        code, out, err = run(capsys, ["residual", "--a", "1", "--r0", "0.5", *flags])
        assert (code, out) == (2, "")
        assert "domain error" in err and "overflows" in err

    def test_half_turn_edge_fan_has_a_residual(self, capsys):
        # The span is one rounding step below pi: a valid fan, though its
        # antipodal partition rounds to a full turn.
        code, out, _ = run(capsys, ["residual", "--a", "1", "--r0", "0.5", "--theta0", "0.4",
                                    "--chords",
                                    "0.177,0.677,1.177,1.677,2.177,3.3185926535897927"])
        assert code == 0
        assert json.loads(out)["case"] == "general-n"


class TestSolve:
    def test_free_angle_with_bracket(self, capsys):
        code, out, _ = run(capsys, ["solve", "--case", "eight", "--a", "1",
                                    "--r0", "0.5", "--theta0", "0.2",
                                    "--chords", "0,0.8,1.3,2", "--free-index", "4",
                                    "--bracket", "1.3000001,3.14"])
        assert code == 0
        doc = json.loads(out)
        assert doc["free_parameter"] == "theta4"
        assert doc["root"] == pytest.approx(2.078924155611765, abs=1e-9)
        assert abs(doc["residual_at_root"]) <= 1e-10
        assert abs(doc["oracle_check"]) <= 1e-9

    def test_free_angle_auto_scan(self, capsys):
        code, out, _ = run(capsys, ["solve", "--case", "eight", "--a", "1",
                                    "--r0", "0.5", "--theta0", "0.2",
                                    "--chords", "0,0.8,1.3,2", "--free-index", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["root"] == pytest.approx(2.078924155611765, abs=1e-9)

    def test_freed_slot_value_is_ignored(self, capsys):
        # The 4th chord entry is a placeholder; even one that breaks the fan
        # ordering must not matter once the angle is freed.
        code, out, _ = run(capsys, ["solve", "--a", "1", "--r0", "0.5",
                                    "--theta0", "0.2", "--chords", "0,0.8,1.3,99",
                                    "--free-index", "4",
                                    "--bracket", "1.3000001,3.14"])
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "eight"
        assert doc["root"] == pytest.approx(2.078924155611765, abs=1e-9)

    def test_pole_radius_solve(self, capsys):
        code, out, _ = run(capsys, ["solve", "--case", "four", "--a", "1",
                                    "--theta0", "0",
                                    "--chords=-0.7353981633974483,0.7353981633974483"])
        assert code == 0
        doc = json.loads(out)
        assert doc["free_parameter"] == "r0"
        assert doc["root"] == pytest.approx(0.31702064891745718, abs=1e-10)

    def test_no_sign_change_is_solver_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--case", "eight", "--a", "1",
                                    "--r0", "0", "--theta0", "0",
                                    "--chords", "0,0.4,0.9,1.0", "--free-index", "4",
                                    "--bracket", "0.95,1.2"])
        assert code == 3
        assert "sign change" in err

    def test_pole_radius_needs_binary_case(self, capsys):
        code, _, err = run(capsys, ["solve", "--case", "six", "--a", "1", "--theta0", "0",
                                    "--chords=-0.5,0,0.5"])
        assert code == 2
        assert "pole-radius inversion needs an even chord count, got 3" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pole_radius_case_is_inferred(self, capsys, fmt):
        assert README_POLE_RADIUS[1:3] == ["--case", "four"]
        _, pinned, _ = run(capsys, [*README_POLE_RADIUS, "--format", fmt])
        code, out, _ = run(capsys, ["solve", *README_POLE_RADIUS[3:], "--format", fmt])
        assert code == 0
        assert out == pinned

    @pytest.mark.parametrize("case", [None, "general"])
    def test_pole_radius_of_odd_fan_is_domain_error(self, capsys, case):
        flags = [] if case is None else ["--case", case]
        code, out, err = run(capsys, ["solve", *flags, "--a", "1", "--chords=-0.5,0,0.5"])
        assert (code, out) == (2, "")
        assert "pole-radius inversion needs an even chord count, got 3" in err

    @pytest.mark.parametrize("case", [None, "general"])
    def test_pole_radius_of_six_chords(self, capsys, case):
        flags = [] if case is None else ["--case", case]
        code, out, _ = run(capsys, ["solve", *flags, "--a", "1", "--theta0", "0",
                                    "--chords=-1,-0.5,-0.2,0.2,0.5,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "general-n"
        assert doc["free_parameter"] == "r0"
        assert 0.0 < doc["root"] < 1.0
        assert abs(doc["residual_at_root"]) <= 1e-11

    @pytest.mark.parametrize("extra", [[], ["--free-index", "2"]], ids=["r0", "angle"])
    def test_quadrature_disagreement_is_solver_error(self, capsys, monkeypatch, extra):
        monkeypatch.setattr(solver, "quadrature_residual", lambda cfg, angles: 1.0)
        code, out, err = run(capsys, ["solve", "--a", "1", "--theta0", "0",
                                      "--chords=-0.7353981633974483,0.7353981633974483",
                                      *extra])
        assert (code, out) == (3, "")
        assert "solver error" in err

    def test_free_index_out_of_range(self, capsys):
        code, _, _ = run(capsys, ["solve", "--a", "1", "--chords", "0,1",
                                  "--free-index", "3"])
        assert code == 1

    def test_two_root_fan_reports_the_lower_root(self, capsys):
        code, out, _ = run(capsys, ["solve", "--a", "1", "--r0", "0.5", "--theta0=0.1",
                                    "--chords=-0.4,0.3,1.52", "--free-index", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["root"] == pytest.approx(0.857199632513, abs=1e-9)
        assert doc["bracket"][1] == pytest.approx(0.1 + PI / 2, abs=1e-12)

    def test_no_root_in_feasible_interval_is_solver_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--case", "eight", "--a", "1",
                                    "--chords", "0,2.0,2.1,3", "--free-index", "4"])
        assert code == 3
        assert "no sign change" in err

    def test_case_size_mismatch_is_domain_error_before_bracketing(self, capsys):
        code, _, err = run(capsys, ["solve", "--case", "six", "--a", "1",
                                    "--chords", "0,1", "--free-index", "2"])
        assert code == 2
        assert "case 'six' takes 3 base angles, got 2" in err

    def test_overflowing_angle_difference_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["solve", "--a", "1", "--r0", "0.5", "--theta0", "1e308",
                                      "--chords", "0,1", "--free-index", "2"])
        assert (code, out) == (2, "")
        assert "domain error" in err and "overflows" in err

    def test_chords_near_1e5_solve(self, capsys):
        code, out, _ = run(capsys, ["solve", "--a", "1", "--r0", "0.5", "--theta0", "100000",
                                    "--chords", "100000,100001.48", "--free-index", "2"])
        assert code == 0
        assert json.loads(out)["root"] == pytest.approx(100000 + PI / 2, abs=1e-9)

    @pytest.mark.parametrize("bracket", ["1,2,3", "1", "a,b"])
    def test_malformed_bracket_is_usage_error(self, capsys, bracket):
        code, _, _ = run(capsys, ["solve", "--a", "1", "--chords", "0,1",
                                  "--free-index", "2", "--bracket", bracket])
        assert code == 1


class TestSweep:
    def test_grid_values_and_nan_as_null(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--case", "four", "--a", "1",
                                    "--chords", "0,1.2", "--grid", "r0=0:1.2:4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["axes"] == [{"name": "r0", "lo": 0, "hi": 1.2, "count": 4}]
        assert len(doc["values"]) == 4
        assert doc["values"][3] is None  # r0 = 1.2 >= a
        assert doc["values"][0] == pytest.approx(1.2 - PI / 2, rel=1e-12)

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--a", "1", "--chords", "0,1.2",
                                    "--grid", "r0=0:0.5:2", "--grid", "theta0=0:1:2",
                                    "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r0,theta0,residual"
        assert len(lines) == 5

    def test_missing_grid_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--a", "1", "--chords", "0,1"]) == 1

    def test_malformed_grid_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--a", "1", "--chords", "0,1",
                        "--grid", "r0=0-1-5"]) == 1

    def test_unknown_axis_is_domain_error(self, capsys):
        assert run_cli(["sweep", "--a", "1", "--chords", "0,1",
                        "--grid", "radius=0:1:5"]) == 2

    def test_point_whose_angle_difference_overflows_is_null(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--a", "1", "--chords", "0,1",
                                    "--grid", "theta0=1e308:1e308:1"])
        assert code == 0
        assert json.loads(out)["values"] == [None]

    def test_axis_whose_width_overflows_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["sweep", "--a", "1", "--chords", "0,1",
                                      "--grid", "theta0=-1e308:1e308:3"])
        assert (code, out) == (2, "")
        assert "hi - lo overflows" in err

    def test_degrees_convert_theta_axes(self, capsys):
        # Each degree value is scaled exactly as the CLI scales it, so the
        # radian run gets bit-identical angles.
        deg = PI / 180.0
        grids = ["--grid", "r0=0:0.5:3"]
        radians = ["sweep", "--a", "1", "--r0", "0.3", "--theta0", repr(10 * deg),
                   "--chords", f"0,{60 * deg!r}", *grids,
                   "--grid", f"theta2={50 * deg!r}:{120 * deg!r}:5"]
        degrees = ["sweep", "--degrees", "--a", "1", "--r0", "0.3", "--theta0", "10",
                   "--chords", "0,60", *grids, "--grid", "theta2=50:120:5"]
        for fmt in ("json", "csv"):
            _, expected, _ = run(capsys, [*radians, "--format", fmt])
            code, out, _ = run(capsys, [*degrees, "--format", fmt])
            assert code == 0
            assert out == expected


# (chord count, --case flag, expected "case" field)
CASE_FIELDS = [
    (2, None, "four"), (2, "four", "four"), (2, "general", "general-n"),
    (3, None, "six"), (3, "six", "six"), (3, "general", "general-n"),
    (4, None, "eight"), (4, "eight", "eight"), (4, "general", "general-n"),
    (5, None, "general-n"), (5, "general", "general-n"),
    (6, None, "general-n"), (6, "general", "general-n"),
]


class TestCaseField:
    @pytest.mark.parametrize("n,case,expected", CASE_FIELDS)
    def test_solve_and_sweep_report_the_case(self, capsys, n, case, expected):
        # Centred pole and equal spacing: t1 = 0 balances every even fan, and
        # an odd fan's residual vanishes everywhere, so a bracket holds a root.
        chords = ",".join(repr(k * PI / n) for k in range(n))
        flags = ["--a", "1", "--r0", "0", "--theta0", "0", "--chords", chords]
        if case is not None:
            flags += ["--case", case]
        code, out, _ = run(capsys, ["sweep", *flags, "--grid", "r0=0:0.5:3"])
        assert code == 0
        assert json.loads(out)["case"] == expected
        code, out, _ = run(capsys, ["solve", *flags, "--free-index", "1"])
        assert code == 0
        assert json.loads(out)["case"] == expected


class TestRender:
    def test_svg_on_stdout(self, capsys):
        code, out, _ = run(capsys, ["render", "--a", "1", "--r0", "0", "--theta0", "0",
                                    "--chords", "0.4"])
        assert code == 0
        assert out.startswith("<svg ")
        assert out.endswith("</svg>\n")

    def test_overflowing_angle_difference_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["render", "--a", "1", "--r0", "0.5", "--theta0", "1e308",
                                      "--chords", "0,1"])
        assert (code, out) == (2, "")
        assert "domain error" in err and "overflows" in err


class TestConfigFile:
    def test_config_file_drives_run(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"a": 1, "r0": 0.6, "theta0": 0.3, "chords": '
                        f"[{PIZZA}]}}", encoding="utf-8")
        code, out, _ = run(capsys, ["residual", "--config", str(path)])
        assert code == 0
        assert abs(json.loads(out)["residual"]) <= 1e-10

    def test_residual_rejects_montecarlo_mode(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"a": 1, "r0": 0.6, "theta0": 0.3, "chords": [0, 1.2], '
                        '"mode": "montecarlo"}', encoding="utf-8")
        code, out, err = run(capsys, ["residual", "--config", str(path)])
        assert (code, out) == (1, "")
        assert "residual does not support mode 'montecarlo'" in err

    def test_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"a": 1, "r0": 0.6, "theta0": 0.3, "chords": [0, 1.2]}',
                        encoding="utf-8")
        code, out, _ = run(capsys, ["areas", "--config", str(path), "--r0", "0"])
        assert code == 0
        assert json.loads(out)["r0"] == 0

    def test_missing_file_is_usage_error(self, capsys):
        assert run_cli(["areas", "--config", "/nonexistent.json"]) == 1

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert run_cli(["areas", "--config", str(path)]) == 1

    @pytest.mark.parametrize("argv", [
        ["areas", "--mode", "closed"],
        ["areas", "--mode", "quadrature"],
        ["residual", "--mode", "closed"],
        ["residual", "--mode", "quadrature"],
        ["solve", "--case", "four"],
        ["solve", "--case", "four", "--free-index", "2"],
    ], ids=["areas-closed", "areas-quadrature", "residual-closed", "residual-quadrature",
            "solve-r0", "solve-angle"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tol_flag_fails_like_config_field(self, capsys, tmp_path, argv, tol):
        # A --tol flag that is not finite and positive is a usage error (exit
        # 1), as the same value in a config file is, whatever the mode.
        fan = {"a": 1, "r0": 0.5, "theta0": 0, "chords": [-0.6, 0.6]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**fan, "tol": float(tol)}), encoding="utf-8")
        code, out, err = run(capsys, [*argv, "--config", str(path)])
        assert (code, out) == (1, "")
        assert "field 'tol' must be positive" in err
        path.write_text(json.dumps(fan), encoding="utf-8")
        code, out, err = run(capsys, [*argv, "--config", str(path), "--tol", tol])
        assert (code, out) == (1, "")
        assert err == f"sectorbalance: error: field 'tol' must be positive, got {float(tol)!r}\n"

    # Each case: config document, flags shared by both forms, and the flags
    # that replace the document in the flag form.
    @pytest.mark.parametrize("doc, argv, fields", [
        ({"a": 1, "r0": 1.5, "theta0": 0, "chords": [0, 1]}, ["areas", "--r0", "0.5"],
         ["--a", "1", "--theta0", "0", "--chords", "0,1"]),
        ({"a": 1, "r0": 0.5, "theta0": 0, "chords": [0, 3.2]}, ["areas", "--chords", "0,1"],
         ["--a", "1", "--r0", "0.5", "--theta0", "0"]),
        ({"a": 1, "r0": 0.5, "theta0": 0.2, "chords": [0, 0.8, 1.3, 99]},
         ["solve", "--free-index", "4", "--bracket", "1.3000001,3.14"],
         ["--a", "1", "--r0", "0.5", "--theta0", "0.2", "--chords", "0,0.8,1.3,99"]),
        ({"a": 1, "r0": 0.5, "theta0": 0, "chords": [0, 0]},
         ["sweep", "--grid", "theta2=0.5:1:2"],
         ["--a", "1", "--r0", "0.5", "--theta0", "0", "--chords", "0,0"]),
    ], ids=["flag-overrides-bad-r0", "flag-overrides-bad-chords", "solve-placeholder-slot",
            "sweep-placeholder-slot"])
    def test_config_and_flags_print_the_same_bytes(self, capsys, tmp_path, doc, argv, fields):
        # Flags are applied over the config's fields before anything is
        # checked, and slots a subcommand replaces may hold placeholders.
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        expected = run(capsys, [*argv, *fields])
        assert expected[0] == 0
        assert run(capsys, [*argv, "--config", str(path)]) == expected

    @pytest.mark.parametrize("argv", [["areas"], ["residual"], ["render"], ["solve"]])
    def test_config_fan_evaluated_whole_is_checked(self, capsys, tmp_path, argv):
        path = tmp_path / "run.json"
        path.write_text('{"a": 1, "r0": 0.5, "theta0": 0, "chords": [0, 3.2]}',
                        encoding="utf-8")
        code, out, err = run(capsys, [*argv, "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("sectorbalance: domain error: chord angles")

    @pytest.mark.parametrize("field, template, expected", [
        ("a", "{}", 2), ("a", "-{}", 2), ("r0", "{}", 2), ("theta0", "-{}", 2),
        ("chords", "[0, {}]", 2), ("tol", "{}", 1),
    ], ids=["a", "minus-a", "r0", "minus-theta0", "chords", "tol"])
    def test_oversized_integer_reads_as_infinity(self, capsys, tmp_path, field, template,
                                                 expected):
        # A 401-digit integer, too large for a double, reads as 1e400 does.
        doc = {"a": "1", "r0": "0.5", "theta0": "0", "chords": "[0, 1]",
               field: template.format("1" + "0" * 400)}
        path = tmp_path / "run.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}",
                        encoding="utf-8")
        code, out, err = run(capsys, ["areas", "--config", str(path)])
        assert (code, out) == (expected, "")
        assert err.count("\n") == 1 and "inf" in err


class TestOutFile:
    @pytest.mark.parametrize("argv", [
        ["areas", "--a", "1", "--chords", "0,1"],
        ["render", "--a", "1", "--chords", "0,1"],
    ], ids=["areas", "render"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv, target):
        out_path = tmp_path / "missing" / "x.out" if target == "missing-dir" else tmp_path
        code, out, err = run(capsys, [*argv, "--out", str(out_path)])
        assert (code, out) == (1, "")
        assert err.startswith("sectorbalance: error: cannot write --out file: ")
        assert err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["areas", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7",
             "--chords", "0.2,0.9,1.6"],
            ["areas", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7",
             "--chords", "0.2,0.9,1.6", "--format", "csv"],
            ["areas", "--a", "1", "--r0", "0.4", "--theta0", "0", "--chords", "0,1",
             "--mode", "montecarlo", "--samples", "50000", "--seed", "9"],
            ["render", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7",
             "--chords", "0.2,0.9,1.6"],
        ],
    )
    def test_repeated_runs_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ["areas", "--a", "1", "--r0", "0.2", "--theta0", "0", "--chords", "0,1"]
        code, out, _ = run(capsys, argv)
        code2 = run_cli([*argv, "--out", str(path)])
        assert code == code2 == 0
        assert path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize(
        "argv",
        [
            [*command, *flags]
            for command in (
                ["areas", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7",
                 "--chords", "0.2,0.9,1.6", "--mode", "montecarlo", "--samples", "20000"],
                ["residual", "--case", "six", "--a", "1", "--r0", "0.5", "--theta0", "0.3",
                 "--chords=-0.2,0.3,0.8", "--audit"],
                ["solve", "--case", "eight", "--a", "1", "--r0", "0.5", "--theta0", "0.2",
                 "--chords", "0,0.8,1.3,2", "--free-index", "4"],
                ["sweep", "--a", "1", "--chords", "0,1.2", "--grid", "r0=0:1.2:4",
                 "--grid", "theta0=0:1:3"],
                ["verify", "--trials", "20", "--samples", "10000"],
            )
            for flags in (["--format", "json"], ["--format", "csv"])
        ]
        + [["render", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7", "--chords", "0.2,0.9,1.6"]],
        ids=[f"{command}-{fmt}" for command in ("areas", "residual", "solve", "sweep", "verify")
             for fmt in ("json", "csv")] + ["render"],
    )
    def test_every_report_out_file_matches_stdout(self, capsys, tmp_path, monkeypatch, argv):
        # verify's details carry wall times; a frozen clock lets two runs match.
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        path = tmp_path / "report"
        code, out, _ = run(capsys, argv)
        code2 = run_cli([*argv, "--out", str(path)])
        assert code == code2 == 0
        assert out and path.read_bytes() == out.encode()
        assert capsys.readouterr().out == ""

    def test_subprocess_runs_byte_identical(self, tmp_path):
        argv = [sys.executable, "-m", "sectorbalance", "areas", "--a", "1",
                "--r0", "0.5", "--theta0", "0.1", "--chords", "0,0.8",
                "--mode", "montecarlo", "--samples", "30000", "--seed", "3"]
        first = subprocess.run(argv, capture_output=True, check=True).stdout
        second = subprocess.run(argv, capture_output=True, check=True).stdout
        assert first == second


class TestVerifySubcommand:
    def test_scaled_down_battery_passes(self, capsys):
        code, out, err = run(capsys, ["verify", "--trials", "40", "--samples", "20000"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 9
        assert err.count("PASS") == 9

    def test_hundred_samples_give_a_mapped_exit_code(self, capsys):
        # A sector that gets no sample, or every sample, once divided by zero.
        code, out, _ = run(capsys, ["verify", "--trials", "2", "--samples", "100"])
        assert code in (0, 3)
        assert len(json.loads(out)["checks"]) == 9

    def test_samples_below_one_fail_before_any_check(self, capsys):
        code, out, err = run(capsys, ["verify", "--trials", "2", "--samples", "0"])
        assert (code, out) == (2, "")
        assert "samples must be at least 1, got 0" in err
        assert "PASS" not in err

    def test_csv_listing(self, capsys):
        code, out, _ = run(capsys, ["verify", "--trials", "20", "--samples", "10000",
                                    "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "name,passed,detail"

    def test_top_seed_runs(self, capsys):
        # Pole i draws with Monte Carlo seed (seed + i) mod 2**64, so the
        # largest seed wraps instead of overflowing on the second pole.
        code, out, err = run(capsys, ["verify", "--seed", str(2**64 - 1), "--trials", "20",
                                      "--samples", "20000"])
        assert code == 0, err
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("seed", [str(-1), str(2**64)])
    def test_seed_outside_64_bits_is_domain_error(self, capsys, seed):
        code, out, err = run(capsys, ["verify", "--seed", seed, "--trials", "20",
                                      "--samples", "20000"])
        assert (code, out) == (2, "")
        assert f"seed must fit an unsigned 64-bit integer, got {seed}" in err
        assert "PASS" not in err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, ["verify", "--trials", trials, "--samples", "10000"])
        assert code == 1
        assert out == ""
        assert f"--trials must be at least 1, got {trials}" in err
        assert "PASS" not in err


FIXED_FAN = ["--a", "1.5515166083670648", "--r0", "0.5110568400665382",
             "--theta0", "-2.9676733569261673",
             "--chords=0.5587217688464459,0.8407669168770204,1.966972422057961,2.986734962603703"]
SIX_CHORD_FAN = ["--a", "1.3", "--r0", "0.45", "--theta0", "0.7",
                 "--chords=-0.4,0.1,0.55,1.2,1.9,2.5"]
MC_OPTS = ["--samples", "20000", "--seed", "5"]
# The README's two-chord sweep on a grid that holds NaN points: r0 reaches a,
# and theta2 passes theta1 and the half-turn.
README_SWEEP = ["sweep", "--case", "four", "--a", "1", "--chords", "0,1.2",
                "--grid", "r0=0:1.2:9", "--grid", "theta2=-0.2:3.3:8"]
SIX_SECTOR_AUDIT = ["residual", "--case", "six", "--a", "1", "--r0", "0.5", "--theta0", "0.3",
                    "--chords=-0.2,0.3,0.8", "--audit"]
BRACKETED_SOLVE = ["solve", "--case", "eight", "--a", "1", "--r0", "0.5", "--theta0", "0.2",
                   "--chords", "0,0.8,1.3,2", "--free-index", "4", "--bracket", "1.3000001,3.14"]
README_POLE_RADIUS = ["solve", "--case", "four", "--a", "1", "--theta0", "0",
                      "--chords=-0.7353981633974483,0.7353981633974483"]


class TestPinnedBytes:
    """Stdout digests recorded before the sector table moved into geometry
    (areas, render), before sweeps evaluated the closed form directly (sweep),
    and before every report went through one writer (residual, solve)."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["areas", *FIXED_FAN, "--mode", "closed"],
             "e1bf95926d14954c8b2c584baef0726896ff5be0df097958cdb03b6dbec932c1"),
            (["areas", *FIXED_FAN, "--mode", "closed", "--format", "csv"],
             "28c4f770c9e0aa6d8166372593259c1fc74e91f36e4d5c60bce6db23855630f8"),
            (["areas", *FIXED_FAN, "--mode", "quadrature"],
             "33f55e3cd2c31f4fce71d2ef972bab27f4f232487e9717317ef2f3f1536fdf85"),
            (["areas", *FIXED_FAN, "--mode", "quadrature", "--format", "csv"],
             "03f636c05870b3c906aa2cf956d09780e31674c853cff52e9d021a1963a09db8"),
            (["areas", *FIXED_FAN, "--mode", "montecarlo", *MC_OPTS],
             "1618f0e86a08c98f4a2cd95eaff014b949dfa25a00522ffe15331f666ca19c5c"),
            (["areas", *FIXED_FAN, "--mode", "montecarlo", *MC_OPTS, "--format", "csv"],
             "f86dcdeddfaf7f3c5887e439c652e0cfbfe78a5ab2b6f85100e8442c605d601d"),
            (["areas", *SIX_CHORD_FAN, "--mode", "closed"],
             "250d4fffa8b8cfcaa9eb3cdcef5b060f0bc77d455191b70b0dce31fe29bf1357"),
            (["areas", *SIX_CHORD_FAN, "--mode", "closed", "--format", "csv"],
             "be9c05f0e726b3f6b5330db65c0f8a0f5dfd826cbe295b561456a3d65a200d39"),
            (["areas", *SIX_CHORD_FAN, "--mode", "quadrature"],
             "ba93a10070cb4e178205d07e9112827e2f000f88f410010b90a02c1a8f57d81d"),
            (["areas", *SIX_CHORD_FAN, "--mode", "quadrature", "--format", "csv"],
             "1cba37bac2d7b6c5d54676b06b03d09538656172d49e616a896b3245d7f6fefc"),
            (["areas", *SIX_CHORD_FAN, "--mode", "montecarlo", *MC_OPTS],
             "6307166a45813117a5e4ef3314afaf12c5235c6c15407872908547c23a6aa1f9"),
            (["areas", *SIX_CHORD_FAN, "--mode", "montecarlo", *MC_OPTS, "--format", "csv"],
             "b1a891ed05b8174361210845d388883509953817ba3e872a950ddad92c507589"),
            (["render", "--a", "1.2", "--r0", "0.4", "--theta0", "0.3", "--chords", "0.8"],
             "2dfd0ebc902b81583b0b26ace60e8670ef5620c9c2846fc512a2352fa73514bb"),
            (["render", *FIXED_FAN],
             "1578252aaaed23dacc510a4d3c724c904550da5f57aa93c35ba44c4a6c3e352d"),
            (README_SWEEP,
             "261612f7385256249ca739258ee0e9270befefa505efc09f666b434c4ede5138"),
            ([*README_SWEEP, "--format", "csv"],
             "c459cc21f06599dc3fcaeb6ca5e98b519f04032f8586c375519516b3ae532fd2"),
            (["sweep", *SIX_CHORD_FAN, "--grid", "theta3=-0.5:1.6:6", "--grid", "r0=0:1.4:5",
              "--format", "csv"],
             "0ca23897a5131ab2a1745ee86f748b9b9e45f4d13bcf203f6be3db2aa3ee2acc"),
            (["sweep", *FIXED_FAN, "--case", "general", "--grid", "theta0=-3.2:3.2:5",
              "--grid", "r0=0:1.6:4"],
             "d9e7560d0057801f39af65948902de134cd0a3bb7b27a8e847abb3a81d0f2b55"),
            (SIX_SECTOR_AUDIT,
             "8945c80f26fa2c6f5b7229e614419d8b771c9b497159355936a259aed710b869"),
            ([*SIX_SECTOR_AUDIT, "--format", "csv"],
             "592fde8758d384c8ce59593ac56a9e4708a15f793baaec2281598bb1482441f4"),
            (["residual", *FIXED_FAN, "--mode", "quadrature", "--format", "csv"],
             "b6a67e96b33be37f0b7d68955533de9afeae4664ed407da627e08214af8471ed"),
            (BRACKETED_SOLVE,
             "5baa0c60390b0ea3d97446d00100031e2d2b851a8a23499225ebf0d9df5fcbb8"),
            ([*BRACKETED_SOLVE, "--format", "csv"],
             "46552f6cbf40890486f6e6dafcd1f914ba60d9e18d1162d1a2f769f641f00965"),
            (README_POLE_RADIUS,
             "0a28dbf55a2a58ecbe48a0078f41ec889400e96d894461eab59263d00be9dc86"),
            ([*README_POLE_RADIUS, "--format", "csv"],
             "86608b875231eebd9561d2703ddedbfc04340fc8943172e1c7cd7eac854b83a6"),
        ],
        ids=[f"areas-{fan}-{mode}-{fmt}" for fan in ("fixed", "six")
             for mode in ("closed", "quadrature", "montecarlo") for fmt in ("json", "csv")]
        + ["render-n1", "render-n4", "sweep-readme-json", "sweep-readme-csv", "sweep-six-csv",
           "sweep-general", "residual-audit-json", "residual-audit-csv",
           "residual-quadrature-csv", "solve-bracket-json", "solve-bracket-csv",
           "solve-pole-radius-json", "solve-pole-radius-csv"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs run_cli in a fresh interpreter and reports its exit code, its stdout and
# whether numpy got imported.
_PROBE = """
import contextlib, io, json, sys
from sectorbalance.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = run_cli(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "out": out.getvalue(), "numpy": "numpy" in sys.modules}))
"""


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=120)


def _probe(argv: list[str]) -> dict:
    return json.loads(_fresh_python("-c", _PROBE, json.dumps(argv)).stdout)


class TestStartup:
    """Only Monte Carlo needs numpy, so nothing else may pay for importing it."""

    @pytest.mark.parametrize("module", ["sectorbalance", "sectorbalance.cli"])
    def test_import_leaves_numpy_unloaded(self, module):
        proc = _fresh_python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["areas", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7", "--chords", "0.2,0.9,1.6"],
            ["areas", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7", "--chords", "0.2,0.9,1.6",
             "--format", "csv"],
            ["areas", "--a", "1.2", "--r0", "0.5", "--theta0", "0.4", "--chords", "0.1,0.9",
             "--mode", "quadrature"],
            ["residual", "--case", "six", "--a", "1", "--r0", "0.5", "--theta0", "0.3",
             "--chords=-0.2,0.3,0.8", "--audit"],
            ["solve", "--case", "eight", "--a", "1", "--r0", "0.5", "--theta0", "0.2",
             "--chords", "0,0.8,1.3,2", "--free-index", "4"],
            ["solve", "--case", "four", "--a", "1", "--theta0", "0",
             "--chords=-0.7353981633974483,0.7353981633974483"],
            ["sweep", "--a", "1", "--chords", "0,1.2", "--grid", "r0=0:0.5:2",
             "--grid", "theta0=0:1:2"],
            ["render", "--a", "1.3", "--r0", "0.5", "--theta0", "0.7", "--chords", "0.2,0.9,1.6"],
        ],
        ids=["areas", "areas-csv", "areas-quadrature", "residual-audit", "solve-free-angle",
             "solve-pole-radius", "sweep", "render"],
    )
    def test_subcommand_leaves_numpy_unloaded(self, argv):
        result = _probe(argv)
        assert result["code"] == 0
        assert result["out"]
        assert result["numpy"] is False

    def test_montecarlo_loads_numpy_with_unchanged_bytes(self):
        result = _probe(["areas", "--a", "1", "--r0", "0.5", "--theta0", "0.3",
                         "--chords", "0,1.2", "--mode", "montecarlo", "--samples", "200000",
                         "--seed", "7"])
        assert result["code"] == 0
        assert result["numpy"] is True
        # Recorded when numpy was still imported with the package.
        assert hashlib.sha256(result["out"].encode()).hexdigest() == (
            "b7ac78ed8aa5e98f6423b0213b8be5c3bd8da764b67779aaf6ff7b56cde77faf")
