import itertools
import re
from pathlib import Path

import pytest

from sectorbalance import area_report, cli, oracle, solver, verify
from sectorbalance.verify import (
    check_determinism,
    check_pizza_cancellation,
    check_solver_soundness,
)


class TestPizzaCancellation:
    @pytest.mark.parametrize("seed", range(60))
    def test_correct_code_passes(self, seed):
        check = check_pizza_cancellation(seed, 100, 20_000)
        assert check.passed, check.detail
        assert "<= 4.85 (Bonferroni over 800 sectors" in check.detail

    @pytest.mark.parametrize("seed, want", [
        (2**64 - 1, [2**64 - 1, 0, 1, 2]),
        (2**64 - 4, [2**64 - 4, 2**64 - 3, 2**64 - 2, 2**64 - 1]),
        (5, [5, 6, 7, 8]),
    ])
    def test_monte_carlo_seeds_wrap_at_64_bits(self, monkeypatch, seed, want):
        real = verify.montecarlo_area
        seeds = []

        def recording(cfg, part, spec):
            seeds.append(spec.seed)
            return real(cfg, part, spec)

        monkeypatch.setattr(verify, "montecarlo_area", recording)
        check = check_pizza_cancellation(seed, 4, 20_000)
        assert seeds == want
        assert check.passed, check.detail

    def test_one_sector_six_standard_errors_off_fails(self, monkeypatch):
        real = verify.montecarlo_area
        calls = []

        def shifted(cfg, part, spec):
            estimates = real(cfg, part, spec)
            if not calls:
                # Exactly 6 standard errors from the closed form, whatever the noise.
                se = estimates[0][1]
                estimates[0] = (area_report(cfg, part).sector_areas[0] + 6.0 * se, se)
            calls.append(spec)
            return estimates

        monkeypatch.setattr(verify, "montecarlo_area", shifted)
        # The gate's sizes: 800 z-scores, so the bound is 4.85.
        check = check_pizza_cancellation(0, 100, 20_000)
        assert len(calls) == 100
        assert "<= 4.85" in check.detail
        assert not check.passed, check.detail

    def test_one_sample_off_per_shard_is_below_what_it_can_see(self, monkeypatch):
        # One sample moved from one piece to the next in each of a pole's 16
        # shards moves a sector's |z| by 16/sqrt(1e6 * p*(1-p)): 0.05 at
        # p = 1/8, 0.09 here, against a bound of 4.16, so the check passes.
        # Only the exact-count tests of the screen (tests/test_oracle.py)
        # catch such a fault.
        def worst_z(check):
            return float(re.search(r"worst Monte Carlo \|z\| = ([0-9.]+)", check.detail)[1])

        clean = check_pizza_cancellation(0, 4, 1_000_000)
        real = oracle._shard_counts

        def off_by_one(*args):
            counts = real(*args)
            counts[0] += 1
            return counts

        monkeypatch.setattr(oracle, "_shard_counts", off_by_one)
        faulty = check_pizza_cancellation(0, 4, 1_000_000)
        assert clean.passed and faulty.passed, faulty.detail
        assert 0.0 < abs(worst_z(faulty) - worst_z(clean)) <= 0.2

    @pytest.mark.parametrize("seed", range(5))
    def test_hundred_samples_return_a_result(self, seed):
        # With 100 samples a sector can get no sample or every sample, so its
        # estimate's standard error is 0; the z-score must not divide by it.
        check = check_pizza_cancellation(seed, 4, 100)
        assert check.name == "pizza_cancellation"
        assert "4 poles, 100 samples each" in check.detail


class TestSolverSoundness:
    def test_every_trial_is_bracketed_and_solved(self):
        check = check_solver_soundness(0, 20)
        assert check.passed, check.detail
        assert check.detail.startswith("20/20 bracketed roots")

    def test_real_bug_is_not_a_skipped_trial(self, monkeypatch):
        real = verify.residual_eight

        def broken(cfg, *angles):
            if cfg.a > 1.5:
                raise TypeError("injected")
            return real(cfg, *angles)

        monkeypatch.setattr(verify, "residual_eight", broken)
        with pytest.raises(TypeError, match="injected"):
            check_solver_soundness(0, 50)

    def test_rejected_root_fails_the_check(self, monkeypatch):
        # A residual fault on about a third of the radii: the solve's quadrature
        # cross-check rejects those roots, and a rejection is not a skip.
        real = solver._residual_value

        def shifted(a, r0, theta0, angles):
            return real(a, r0, theta0, angles) + (1e-6 * a * a if a > 1.5 else 0.0)

        monkeypatch.setattr(solver, "_residual_value", shifted)
        check = check_solver_soundness(0, 50)
        assert not check.passed
        assert "bracketed solves failed, first: root " in check.detail
        assert "fails the residual check" in check.detail

    def test_refinement_failure_fails_the_check(self, monkeypatch):
        real = solver.find_root
        calls = itertools.count()

        def failing_once(f, lo, hi, **kwargs):
            if next(calls) == 3:
                raise solver.SolverError("max iterations (200) exceeded")
            return real(f, lo, hi, **kwargs)

        monkeypatch.setattr(solver, "find_root", failing_once)
        check = check_solver_soundness(0, 50)
        assert not check.passed
        assert check.detail.endswith("; 1 bracketed solves failed, first: "
                                     "max iterations (200) exceeded")

    def test_detail_at_seed_zero(self):
        check = check_solver_soundness(0, 50)
        assert check.passed
        assert check.detail == ("50/50 bracketed roots (worst closed 7.128e-12, quadrature "
                                "7.128e-12 per a^2), analytic vs numeric radius gap 7.772e-16")


class TestDeterminism:
    def test_mismatched_bytes_and_failed_runs_are_reported(self, monkeypatch):
        calls = itertools.count()

        def fake_run_cli(argv):
            if argv[0] == "render":
                return 3
            Path(argv[argv.index("--out") + 1]).write_text(str(next(calls)), encoding="utf-8")
            return 0

        monkeypatch.setattr(cli, "run_cli", fake_run_cli)
        check = check_determinism(0)
        assert not check.passed
        assert check.detail == "mismatch in: json, csv, svg exited 3, montecarlo"
