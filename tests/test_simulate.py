"""Tests for the Pareto-domain simulator, the CFAR grid check and the
``verify`` record."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from gmcfar import (DetectorKind, EstimateWithCI, ParameterDomainError,
                    ParetoParams, RandomStream, SweepSpec, cfar_grid_check,
                    dual_to_pareto, empirical_pfa, margins_full_multi,
                    pfa_gm_partial_single, quadrature_pfa_full_multi, verify)
from gmcfar.simulate import _reduction_error

PARAMS = ParetoParams(shape=5.0, scale=1.0)

CFAR_GRID = (ParetoParams(2.0, 0.01), ParetoParams(5.0, 1.0),
             ParetoParams(10.0, 100.0))


@pytest.fixture(scope="module")
def cfar_report():
    spec = SweepSpec(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0,
                     CFAR_GRID, trials=20_000, seed=0)
    return cfar_grid_check(spec)


class TestEmpiricalPfa:
    def test_partial_multi_hand_value(self):
        est = empirical_pfa(DetectorKind.GM_PARTIAL_MULTI, 2, 4, 1.0,
                            PARAMS, trials=100_000, seed=0)
        assert abs(est.estimate - 0.1875) <= 4.0 * est.sigma

    def test_full_single_one_reference_is_half(self):
        est = empirical_pfa(DetectorKind.GM_FULL_SINGLE, 1, 1, 2.0,
                            PARAMS, trials=50_000, seed=1)
        assert abs(est.estimate - 0.5) <= 4.0 * est.sigma

    def test_full_multi_one_reference_tau_invariance(self):
        # tau is not part of the stream tags, so both calls simulate the
        # same windows and the one-reference margins share their signs.
        kw = dict(params=PARAMS, trials=20_000, seed=2)
        a = empirical_pfa(DetectorKind.GM_FULL_MULTI, 3, 1, 0.25, **kw)
        b = empirical_pfa(DetectorKind.GM_FULL_MULTI, 3, 1, 8.0, **kw)
        assert a.successes == b.successes

    def test_zero_tau_always_rejects(self):
        est = empirical_pfa(DetectorKind.GM_PARTIAL_MULTI, 1, 4, 0.0,
                            PARAMS, trials=5_000, seed=3)
        assert est.estimate == 1.0

    def test_deterministic(self):
        kw = dict(params=PARAMS, trials=30_000, seed=4)
        a = empirical_pfa(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0, **kw)
        b = empirical_pfa(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0, **kw)
        assert a == b

    def test_stream_id_varies_samples(self):
        kw = dict(params=PARAMS, trials=30_000, seed=4)
        a = empirical_pfa(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0, **kw)
        c = empirical_pfa(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0,
                          stream_id=9, **kw)
        assert a.successes != c.successes

    def test_matches_closed_form_across_scales(self):
        want = pfa_gm_partial_single(8, 1.0)
        for scale in (0.01, 100.0):
            params = ParetoParams(shape=2.0, scale=scale)
            est = empirical_pfa(DetectorKind.GM_PARTIAL_SINGLE, 1, 8, 1.0,
                                params, trials=200_000, seed=5)
            assert abs(est.estimate - want) <= 4.0 * est.sigma, scale

    def test_scale_mismatch_shifts_pfa(self):
        # Overstating beta loosens the scale-weighted threshold when
        # 1 - M tau < 0, understating it tightens the threshold.
        kw = dict(params=PARAMS, trials=50_000, seed=6)
        low = empirical_pfa(DetectorKind.GM_PARTIAL_SINGLE, 1, 8, 1.0,
                            detector_scale=0.5, **kw)
        mid = empirical_pfa(DetectorKind.GM_PARTIAL_SINGLE, 1, 8, 1.0, **kw)
        high = empirical_pfa(DetectorKind.GM_PARTIAL_SINGLE, 1, 8, 1.0,
                             detector_scale=2.0, **kw)
        assert low.successes < mid.successes < high.successes

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            empirical_pfa(DetectorKind.GM_FULL_MULTI, 2, 4, 1.0, PARAMS,
                          trials=0)
        with pytest.raises(ParameterDomainError):
            empirical_pfa(DetectorKind.GM_FULL_SINGLE, 2, 4, 1.0, PARAMS,
                          trials=10)
        with pytest.raises(ParameterDomainError):
            empirical_pfa(DetectorKind.GM_PARTIAL_MULTI, 2, 4, 1.0, PARAMS,
                          trials=10, detector_scale=0.0)

    def test_cells_are_the_dual_map_of_the_streams(self, monkeypatch):
        kind, n, m, trials, seed = DetectorKind.GM_FULL_MULTI, 2, 8, 1000, 3
        params, seen = ParetoParams(3.0, 2.0), []

        def capture(cut, ref, tau):
            seen.append((cut.copy(), ref.copy()))
            return margins_full_multi(cut, ref, tau)

        monkeypatch.setattr("gmcfar.simulate.margins_full_multi", capture)
        empirical_pfa(kind, n, m, 1.0, params, trials, seed)
        [(cut, ref)] = seen
        base = RandomStream(seed, 0).child("pareto", kind.value, n, m)
        for name, cells, width in (("cut", cut, n), ("ref", ref, m)):
            e = base.child(name).exponentials(width * trials)
            want = dual_to_pareto(params, e.reshape(trials, width))
            assert np.array_equal(cells, want), name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, params", [
        (DetectorKind.GM_FULL_MULTI, ParetoParams(0.01, 1.0)),
        (DetectorKind.GM_PARTIAL_MULTI, ParetoParams(0.2, 1e300))])
    def test_beyond_double_range_refused_before_drawing(self, monkeypatch,
                                                         kind, params):
        drawn = []
        monkeypatch.setattr(RandomStream, "uniforms",
                            lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(ParameterDomainError, match="double range"):
            empirical_pfa(kind, 2, 8, 1.0, params, trials=100_000)
        assert drawn == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape, refused", [(0.0517578, True),
                                                (0.0517579, False)])
    def test_double_range_bound(self, shape, refused):
        kw = dict(params=ParetoParams(shape, 1.0), trials=1000)
        if refused:
            with pytest.raises(ParameterDomainError, match="double range"):
                empirical_pfa(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0, **kw)
        else:
            empirical_pfa(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0, **kw)

    @pytest.mark.parametrize("kind, n", [(DetectorKind.GM_PARTIAL_MULTI, 2),
                                         (DetectorKind.GM_FULL_MULTI, 2),
                                         (DetectorKind.GM_FULL_SINGLE, 1)])
    def test_batch_size_does_not_change_counts(self, monkeypatch, kind, n):
        kw = dict(params=PARAMS, trials=10_000, seed=6)
        want = empirical_pfa(kind, n, 8, 1.0, **kw).successes
        # 333 or 370 windows a batch, then an uneven last batch of 10.
        monkeypatch.setattr("gmcfar.simulate._BATCH_CELLS", 3337)
        assert empirical_pfa(kind, n, 8, 1.0, **kw).successes == want

    @pytest.mark.parametrize("kind, n", [(DetectorKind.GM_PARTIAL_MULTI, 2),
                                         (DetectorKind.GM_FULL_MULTI, 2),
                                         (DetectorKind.GM_FULL_SINGLE, 1)])
    def test_window_wider_than_batch(self, monkeypatch, kind, n):
        kw = dict(params=PARAMS, trials=1000, seed=6)
        want = empirical_pfa(kind, n, 8 - n, 1.0, **kw).successes
        # Fewer cells than one window: every batch holds a single row.
        monkeypatch.setattr("gmcfar.simulate._BATCH_CELLS", 5)
        assert empirical_pfa(kind, n, 8 - n, 1.0, **kw).successes == want


class TestSweepSpec:
    def test_grid_coerced_to_tuple(self):
        spec = SweepSpec(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0,
                         [PARAMS], trials=10, seed=0)
        assert isinstance(spec.params_grid, tuple)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            SweepSpec(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0, [],
                      trials=10, seed=0)
        with pytest.raises(ParameterDomainError):
            SweepSpec(DetectorKind.GM_FULL_SINGLE, 2, 8, 1.0, [PARAMS],
                      trials=10, seed=0)
        with pytest.raises(ParameterDomainError):
            SweepSpec(DetectorKind.GM_FULL_MULTI, 2, 8, -1.0, [PARAMS],
                      trials=10, seed=0)


class TestCfarGridCheck:
    def test_homogeneous_grid_passes(self, cfar_report):
        assert cfar_report.passed
        assert cfar_report.p_value > 0.001
        assert cfar_report.dof == 2

    def test_points_match_quadrature(self, cfar_report):
        want = quadrature_pfa_full_multi(2, 8, 1.0)
        for point in cfar_report.points:
            est = point.result
            assert abs(est.estimate - want) <= 4.0 * est.sigma, point.params

    def test_chi_square_equals_scipy(self, cfar_report):
        table = np.array([[p.result.successes for p in cfar_report.points],
                          [p.result.trials - p.result.successes
                           for p in cfar_report.points]])
        statistic, p_value, dof, _ = chi2_contingency(table, correction=False)
        assert cfar_report.chi2_statistic == statistic
        assert cfar_report.p_value == p_value
        assert cfar_report.dof == dof

    def test_statistic_derived_from_counts(self, cfar_report):
        first = cfar_report.points[0]
        result = EstimateWithCI(first.result.successes + 50,
                                first.result.trials)
        edited = dataclasses.replace(cfar_report, points=(
            dataclasses.replace(first, result=result),
            *cfar_report.points[1:]))
        assert edited.chi2_statistic != cfar_report.chi2_statistic
        assert edited.p_value != cfar_report.p_value

    def test_json_shape(self, cfar_report):
        doc = cfar_report._to_dict()
        assert doc["kind"] == DetectorKind.GM_FULL_MULTI.value
        assert doc["trials"] == cfar_report.spec.trials
        assert len(doc["points"]) == len(CFAR_GRID)
        assert doc["chi_square"]["passed"] is True
        assert doc["points"][0]["alpha"] == 2.0

    def test_deterministic_bytes(self):
        spec = SweepSpec(DetectorKind.GM_PARTIAL_MULTI, 1, 4, 1.0,
                         CFAR_GRID[:2], trials=5_000, seed=3)
        assert (json.dumps(cfar_grid_check(spec)._to_dict())
                == json.dumps(cfar_grid_check(spec)._to_dict()))

    def test_degenerate_all_reject_table(self):
        spec = SweepSpec(DetectorKind.GM_PARTIAL_MULTI, 1, 4, 0.0,
                         CFAR_GRID[:2], trials=500, seed=0)
        report = cfar_grid_check(spec)
        assert report.p_value == 1.0
        assert report.chi2_statistic == 0.0
        assert report.passed

    def test_needs_two_points(self):
        spec = SweepSpec(DetectorKind.GM_FULL_MULTI, 2, 8, 1.0,
                         CFAR_GRID[:1], trials=10, seed=0)
        with pytest.raises(ParameterDomainError):
            cfar_grid_check(spec)

    def test_report_needs_points(self, cfar_report):
        # The chi-square test needs dof >= 1, so two points at least.
        for points in ((), cfar_report.points[:1]):
            with pytest.raises(ParameterDomainError):
                dataclasses.replace(cfar_report, points=points)


@pytest.fixture(scope="module")
def verify_report():
    return verify((1, 2), (2,), (1.0,), trials=20_000, cfar_trials=2_000)


class TestVerifyReport:
    def test_passes_and_summarises_every_stage(self, verify_report):
        assert verify_report.passed
        assert [line.split(":")[0] for line in verify_report.summary] == [
            *(k.value for k in DetectorKind),
            "cfar full-single n=1 m=8 tau=1", "cfar full-multi n=2 m=8 tau=1",
            "reductions", "verify"]
        assert verify_report.summary[-1] == "verify: PASS"
        assert verify_report._to_dict()["passed"] is True

    def _assert_fails_with(self, report, line):
        assert not report.passed
        assert line in report.summary
        assert report.summary[-1] == "verify: FAIL"
        assert report._to_dict()["passed"] is False

    def test_failing_cfar_stage_fails(self, verify_report):
        cfar = verify_report.cfar[1]
        first = cfar.points[0]
        result = EstimateWithCI(first.result.trials // 2, first.result.trials)
        failing = dataclasses.replace(cfar, points=(
            dataclasses.replace(first, result=result), *cfar.points[1:]))
        assert not failing.passed
        report = dataclasses.replace(
            verify_report, cfar=(verify_report.cfar[0], failing))
        self._assert_fails_with(report, (
            f"cfar full-multi n=2 m=8 tau=1: chi2={failing.chi2_statistic:.9g}"
            f" p={failing.p_value:.9g} FAIL"))

    def test_inconsistent_kind_fails(self, verify_report):
        *others, full_multi = verify_report.reports
        point = full_multi.points[0]
        edited = dataclasses.replace(full_multi, points=(
            dataclasses.replace(point, mc=EstimateWithCI(
                0, point.mc.trials)), *full_multi.points[1:]))
        report = dataclasses.replace(verify_report,
                                     reports=(*others, edited))
        self._assert_fails_with(report, (
            f"  oracle mismatch at n=1 m=2 tau=1: mc=0 "
            f"quadrature={point.quadrature:.9g}"))
        assert ("full-multi: verdict=no-verdict-inconsistent-oracles "
                "oracles=DISAGREE points=2") in report.summary

    def test_reduction_error_over_bound_fails(self, verify_report):
        report = dataclasses.replace(verify_report, reduction_error=2e-12)
        self._assert_fails_with(report,
                                "reductions: max_rel_error=2e-12 FAIL")
        assert report._to_dict()["reductions"] == {
            "max_rel_error": 2e-12, "rtol": 1e-12, "passed": False}

    @pytest.mark.parametrize("m, tau", [(200, 100.0), (1000, 1.0)])
    def test_reductions_hold_where_forms_underflow_or_lose_digits(self, m,
                                                                 tau):
        # At (200, 100) the single-pulse forms underflow to 0; at (1000, 1)
        # the O(N) pass's log-offset path is accurate to about 1e-13.
        assert _reduction_error((m,), (tau,)) <= 1e-12

    def test_cfar_trials_refused_before_any_draw(self, monkeypatch):
        drawn = []
        uniforms = RandomStream.uniforms

        def counting(stream, count, start=0):
            drawn.append(count)
            return uniforms(stream, count, start)

        monkeypatch.setattr(RandomStream, "uniforms", counting)
        with pytest.raises(ParameterDomainError, match="cfar_trials"):
            verify((1,), (2,), (1.0,), trials=20_000, cfar_trials=0)
        assert drawn == []
