"""Tests for the threshold-multiplier solver."""

import math
import time

import pytest

from gmcfar import (DetectorKind, NumericalFailureError, ParameterDomainError,
                    PfaFormulaVariant, SolverConfig, UnreachableTargetError,
                    adjudicate, pfa_gm_full_multi, pfa_gm_partial_multi,
                    pfa_gm_partial_single, quadrature_pfa_full_multi,
                    solve_tau_numeric, solve_tau_partial_single,
                    validated_pfa)


@pytest.fixture(scope="module")
def full_multi_report():
    grid = [(2, 4, 1.0), (1, 8, 0.5)]
    return adjudicate(DetectorKind.GM_FULL_MULTI, grid, trials=1_000_000, seed=0)


@pytest.fixture(scope="module")
def partial_multi_report():
    grid = [(2, 4, 1.0), (3, 8, 2.0)]
    return adjudicate(DetectorKind.GM_PARTIAL_MULTI, grid, trials=1_000_000, seed=0)


@pytest.fixture(scope="module")
def low_trials_report():
    return adjudicate(DetectorKind.GM_FULL_MULTI, [(1, 4, 1.0)],
                      trials=50_000, seed=1)


class TestSolverConfig:
    def test_default_tolerance_scales_with_target(self):
        config = SolverConfig(1e-4)
        assert config.abs_tol == pytest.approx(1e-16, rel=1e-12)
        assert config.max_iterations == 200

    def test_explicit_tolerance_kept(self):
        config = SolverConfig(0.5, abs_tol=1e-9)
        assert config.abs_tol == 1e-9

    def test_target_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0, 1e-13):
            with pytest.raises(ParameterDomainError):
                SolverConfig(bad)

    def test_control_validation(self):
        for bad in (0.0, math.inf, math.nan, True):
            with pytest.raises(ParameterDomainError):
                SolverConfig(0.1, abs_tol=bad)
        with pytest.raises(ParameterDomainError):
            SolverConfig(0.1, max_iterations=0)


class TestClosedFormSolve:
    def test_known_values(self):
        assert solve_tau_partial_single(1, 0.5) == 1.0
        assert solve_tau_partial_single(16, 1.5 ** -16) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("n_ref", [1, 4, 16, 64])
    @pytest.mark.parametrize("target", [1e-2, 1e-4, 1e-6])
    def test_round_trip(self, n_ref, target):
        tau = solve_tau_partial_single(n_ref, target)
        assert pfa_gm_partial_single(n_ref, tau) == pytest.approx(target, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            solve_tau_partial_single(0, 0.5)
        with pytest.raises(ParameterDomainError):
            solve_tau_partial_single(4, 0.0)


class TestNumericSolve:
    def test_partial_multi_round_trip(self, partial_multi_report):
        config = SolverConfig(1e-3)
        tau = solve_tau_numeric(DetectorKind.GM_PARTIAL_MULTI, 3, 8,
                                config, partial_multi_report)
        assert abs(pfa_gm_partial_multi(3, 8, tau) - 1e-3) <= config.abs_tol

    def test_bracket_end_already_within_tolerance(self,
                                                  partial_multi_report):
        # Pfa(2, 4, tau=1) is 0.1875, so the first bracket end is the root.
        assert pfa_gm_partial_multi(2, 4, 1.0) == 0.1875
        tau = solve_tau_numeric(DetectorKind.GM_PARTIAL_MULTI, 2, 4,
                                SolverConfig(0.1875), partial_multi_report)
        assert tau == 1.0

    def test_full_multi_round_trip(self, full_multi_report):
        config = SolverConfig(1e-4)
        tau = solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 2, 8,
                                config, full_multi_report)
        achieved = pfa_gm_full_multi(2, 8, tau, PfaFormulaVariant.CANDIDATE)
        assert abs(achieved - 1e-4) <= config.abs_tol

    def test_partial_single_uses_closed_form(self, partial_multi_report):
        config = SolverConfig(1e-4)
        tau = solve_tau_numeric(DetectorKind.GM_PARTIAL_SINGLE, 1, 8,
                                config, partial_multi_report)
        assert tau == solve_tau_partial_single(8, 1e-4)

    def test_full_multi_at_documented_bound(self, full_multi_report):
        # Windows up to 10**3 are inside the documented domain: a threshold
        # there takes milliseconds and must stay well inside seconds.
        assert full_multi_report.validated_variant is PfaFormulaVariant.CANDIDATE
        target = 1e-6
        start = time.perf_counter()
        tau = solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 1000, 1000,
                                SolverConfig(target), full_multi_report)
        assert time.perf_counter() - start < 5.0
        achieved = validated_pfa(DetectorKind.GM_FULL_MULTI, full_multi_report,
                                 1000, 1000, tau)
        assert abs(achieved - target) <= 1e-9 * target

        start = time.perf_counter()
        for tau in (0.0, 0.01, 0.1, 0.3, 0.49):
            for variant in (PfaFormulaVariant.PAPER, PfaFormulaVariant.CANDIDATE):
                assert 0.0 < pfa_gm_full_multi(1000, 100, tau, variant) <= 1.0
        assert time.perf_counter() - start < 1.0

    def test_smaller_targets_need_larger_tau(self, full_multi_report):
        taus = [
            solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 2, 4,
                              SolverConfig(t), full_multi_report)
            for t in (1e-2, 1e-4, 1e-6)
        ]
        assert taus[0] < taus[1] < taus[2]

    def test_one_reference_full_kind_unreachable(self, full_multi_report):
        with pytest.raises(UnreachableTargetError):
            solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 2, 1,
                              SolverConfig(1e-3), full_multi_report)

    def test_target_above_ceiling_unreachable(self, full_multi_report):
        # The minimum-anchored Pfa tops out below 1 at tau = 0.
        with pytest.raises(UnreachableTargetError):
            solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 2, 8,
                              SolverConfig(0.999), full_multi_report)

    def test_target_at_ceiling_returns_zero(self, full_multi_report):
        ceiling = validated_pfa(DetectorKind.GM_FULL_MULTI, full_multi_report,
                                2, 8, 0.0)
        tau = solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 2, 8,
                                SolverConfig(ceiling), full_multi_report)
        assert tau == 0.0

    def test_quadrature_tolerance_is_relative(self, low_trials_report,
                                              monkeypatch):
        # abs_tol = 1e-18 at target 1e-6 asks the quadrature for 1e-13
        # relative, not 1e-19.
        tols = []

        def spy(*args, tol):
            tols.append(tol)
            return validated_pfa(*args, tol=tol)

        monkeypatch.setattr("gmcfar.solver.validated_pfa", spy)
        solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 1, 4, SolverConfig(1e-6),
                          low_trials_report)
        assert tols and all(t == pytest.approx(1e-13, rel=1e-9, abs=0)
                            for t in tols)

    def test_evaluation_budget(self, partial_multi_report, full_multi_report,
                               monkeypatch):
        # Illinois steps on log Pfa need about 11 evaluations a solve, where
        # bisection needed about 46.
        counts = []

        def spy(*args, tol):
            counts[-1] += 1
            return validated_pfa(*args, tol=tol)

        monkeypatch.setattr("gmcfar.solver.validated_pfa", spy)
        for kind, report in ((DetectorKind.GM_PARTIAL_MULTI,
                              partial_multi_report),
                             (DetectorKind.GM_FULL_MULTI, full_multi_report)):
            for n, m in ((2, 8), (16, 64), (128, 128), (1000, 100),
                         (1000, 1000)):
                for target in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
                    config = SolverConfig(target)
                    counts.append(0)
                    tau = solve_tau_numeric(kind, n, m, config, report)
                    achieved = validated_pfa(kind, report, n, m, tau)
                    assert abs(achieved - target) <= config.abs_tol, \
                        (kind, n, m, target)
        assert len(counts) == 50
        assert sum(counts) / len(counts) <= 14
        assert max(counts) <= 20

    def test_pfa_underflow_at_bracket_top(self, full_multi_report,
                                          monkeypatch):
        # exp(-1000) underflows, so Pfa is 0.0 at the first bracket end,
        # tau = 1, where log Pfa has no secant.
        calls = []

        def spy(kind, report, n_cut, m_ref, tau, tol):
            calls.append(tau)
            return math.exp(-1000.0 * tau)

        monkeypatch.setattr("gmcfar.solver.validated_pfa", spy)
        config = SolverConfig(1e-6)
        tau = solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 2, 8, config,
                                full_multi_report)
        assert calls[:2] == [0.0, 1.0]
        assert abs(math.exp(-1000.0 * tau) - 1e-6) <= config.abs_tol
        assert len(calls) <= 20

    def test_quadrature_fallback_without_verdict(self, low_trials_report):
        config = SolverConfig(1e-3)
        tau = solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 1, 4,
                                config, low_trials_report)
        achieved = quadrature_pfa_full_multi(1, 4, tau, tol=1e-12)
        assert achieved == pytest.approx(1e-3, abs=1e-13)

    def test_exhaustion_reports_best_error(self, partial_multi_report):
        config = SolverConfig(1.234e-3, abs_tol=1e-18, max_iterations=3)
        with pytest.raises(NumericalFailureError) as exc_info:
            solve_tau_numeric(DetectorKind.GM_PARTIAL_MULTI, 2, 4,
                              config, partial_multi_report)
        assert exc_info.value.achieved > config.abs_tol

    def test_config_type_checked(self, full_multi_report):
        with pytest.raises(ParameterDomainError):
            solve_tau_numeric(DetectorKind.GM_FULL_MULTI, 2, 4,
                              0.01, full_multi_report)
