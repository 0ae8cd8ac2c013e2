"""Tests for the Monte Carlo / quadrature oracles and the adjudication flow."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from gmcfar import (AdjudicationReport, DetectorKind, EstimateWithCI,
                    ExcessShape, GridPointRecord, InconsistentReportError,
                    NumericalFailureError, ParameterDomainError,
                    ParetoParams, PfaFormulaVariant, RandomStream,
                    SweepSpec, adjudicate, default_grid, empirical_pfa,
                    mc_dual_pfa, pfa_gm_full_multi, pfa_gm_full_single,
                    pfa_gm_partial_multi, pfa_gm_partial_single,
                    quadrature_pfa_full_multi, quadrature_pfa_partial_multi,
                    validated_pfa, wilson_interval)
from gmcfar import detectors, oracles

Z95 = 1.959963984540054


def _edit_first_point(**changes):
    """A tampering that sets each key of ``changes`` in a report's first
    point to its function of that point."""
    def tamper(doc):
        first = doc["points"][0]
        first = {**first, **{key: change(first)
                             for key, change in changes.items()}}
        return {**doc, "points": [first, *doc["points"][1:]]}
    return tamper


_FLIP = {"consistent": "inconsistent", "inconsistent": "consistent"}

# Well-formed edits of a full-multi report whose first point validates the
# candidate form: each leaves a stored value disagreeing with its evidence.
TAMPERINGS = {
    "internally_consistent=False":
        lambda doc: {**doc, "internally_consistent": False},
    "verdict-paper":
        lambda doc: {**doc, "verdict": "paper", "validated_variant": "paper"},
    "paper-verdict-flipped":
        _edit_first_point(paper_verdict=lambda p: _FLIP[p["paper_verdict"]]),
    "discriminates-flipped":
        _edit_first_point(discriminates=lambda p: not p["discriminates"]),
    "ci-widened":
        _edit_first_point(mc_ci_low=lambda p: p["mc_ci_low"] - 1e-3,
                          mc_ci_high=lambda p: p["mc_ci_high"] + 1e-3),
    "mc-estimate-changed":
        _edit_first_point(mc_estimate=lambda p: (p["mc_estimate"]
                                                 + p["mc_ci_high"]) / 2),
    "paper-inside-band":
        _edit_first_point(paper=lambda p: p["mc_estimate"]),
}


@pytest.fixture(scope="module")
def full_multi_report():
    grid = [(2, 4, 1.0), (1, 8, 0.5)]
    return adjudicate(DetectorKind.GM_FULL_MULTI, grid, trials=1_000_000, seed=0)


@pytest.fixture(scope="module")
def full_single_report():
    grid = [(1, 4, 1.0), (1, 8, 0.5)]
    return adjudicate(DetectorKind.GM_FULL_SINGLE, grid, trials=1_000_000, seed=0)


@pytest.fixture(scope="module")
def partial_multi_report():
    grid = [(2, 4, 1.0), (3, 8, 2.0)]
    return adjudicate(DetectorKind.GM_PARTIAL_MULTI, grid, trials=1_000_000, seed=0)


@pytest.fixture(scope="module")
def low_trials_report():
    return adjudicate(DetectorKind.GM_FULL_MULTI, [(2, 4, 1.0)],
                      trials=50_000, seed=1)


class TestWilsonInterval:
    def test_roots_of_score_quadratic(self):
        # The endpoints solve (phat - p)^2 = z^2 p (1 - p) / n; check them
        # against mpmath's quadratic roots.
        for successes, trials in [(1, 30), (50, 100), (977, 1000), (3, 7)]:
            phat = successes / trials
            a = trials + Z95 ** 2
            b = -(2 * trials * phat + Z95 ** 2)
            c = trials * phat ** 2
            roots = sorted(float(r) for r in mpmath.polyroots([a, b, c]))
            low, high = wilson_interval(successes, trials)
            assert low == pytest.approx(roots[0], rel=1e-12)
            assert high == pytest.approx(roots[1], rel=1e-12)

    def test_edge_counts(self):
        low, high = wilson_interval(0, 100)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < high < 0.1
        low, high = wilson_interval(100, 100)
        assert 0.9 < low < 1.0
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_contains_point_estimate(self):
        for successes, trials in [(5, 50), (500, 1000), (999, 1000)]:
            low, high = wilson_interval(successes, trials)
            assert low < successes / trials < high
            assert 0.0 <= low and high <= 1.0

    def test_symmetric_at_half(self):
        low, high = wilson_interval(50, 100)
        assert (low + high) / 2 == pytest.approx(0.5, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            wilson_interval(-1, 10)
        with pytest.raises(ParameterDomainError):
            wilson_interval(11, 10)
        with pytest.raises(ParameterDomainError):
            wilson_interval(0, 0)


class TestEstimateWithCI:
    @pytest.mark.parametrize("successes, trials", [(0, 10), (50, 100),
                                                   (7, 10 ** 6), (10, 10)])
    def test_derived_from_counts(self, successes, trials):
        est = EstimateWithCI(successes, trials)
        assert est.estimate == successes / trials
        assert (est.ci_low, est.ci_high) == wilson_interval(successes, trials)

    @pytest.mark.parametrize("successes, trials", [(11, 10), (-1, 10),
                                                   (0, 0)])
    def test_bad_counts(self, successes, trials):
        with pytest.raises(ParameterDomainError):
            EstimateWithCI(successes, trials)

    def test_sigma_from_interval_width(self):
        est = EstimateWithCI(50, 100)
        assert est.sigma == pytest.approx((est.ci_high - est.ci_low) / (2 * Z95),
                                          rel=1e-14)

    def test_frozen(self):
        est = EstimateWithCI(50, 100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            est.estimate = 0.7


class TestMcDualPfa:
    def test_partial_multi_hand_value(self):
        est = mc_dual_pfa(DetectorKind.GM_PARTIAL_MULTI, 2, 4, 1.0,
                          trials=200_000, seed=3)
        assert abs(est.estimate - 0.1875) <= 4.0 * est.sigma
        assert est.ci_low < 0.1875 < est.ci_high

    def test_partial_single_geometric_value(self):
        est = mc_dual_pfa(DetectorKind.GM_PARTIAL_SINGLE, 1, 1, 1.0,
                          trials=200_000, seed=5)
        assert abs(est.estimate - 0.5) <= 4.0 * est.sigma

    def test_full_single_one_reference_is_half(self):
        est = mc_dual_pfa(DetectorKind.GM_FULL_SINGLE, 1, 1, 3.0,
                          trials=200_000, seed=7)
        assert abs(est.estimate - 0.5) <= 4.0 * est.sigma

    def test_full_one_reference_tau_invariance_is_exact(self):
        # Same (kind, n, m) means the same sample stream, and with one
        # reference cell tau cancels from the margin, count for count.
        a = mc_dual_pfa(DetectorKind.GM_FULL_MULTI, 3, 1, 0.25,
                        trials=50_000, seed=11)
        b = mc_dual_pfa(DetectorKind.GM_FULL_MULTI, 3, 1, 9.0,
                        trials=50_000, seed=11)
        assert a.successes == b.successes

    def test_deterministic(self):
        kw = dict(trials=30_000, seed=13)
        a = mc_dual_pfa(DetectorKind.GM_FULL_MULTI, 2, 4, 1.0, **kw)
        b = mc_dual_pfa(DetectorKind.GM_FULL_MULTI, 2, 4, 1.0, **kw)
        assert a == b

    def test_single_kind_requires_one_cut(self):
        with pytest.raises(ParameterDomainError):
            mc_dual_pfa(DetectorKind.GM_PARTIAL_SINGLE, 2, 4, 1.0, trials=10)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            mc_dual_pfa(DetectorKind.GM_FULL_MULTI, 2, 4, 1.0, trials=0)
        with pytest.raises(ParameterDomainError):
            mc_dual_pfa(DetectorKind.GM_FULL_MULTI, 2, 4, -1.0, trials=10)


    @pytest.mark.parametrize("kind, n, m", [
        (DetectorKind.GM_PARTIAL_SINGLE, 1, 8),
        (DetectorKind.GM_FULL_SINGLE, 1, 8),
        (DetectorKind.GM_PARTIAL_MULTI, 2, 8),
        (DetectorKind.GM_FULL_MULTI, 2, 8),
    ])
    def test_batch_size_does_not_change_counts(self, monkeypatch, kind, n, m):
        kw = dict(tau=0.5, trials=10_000, seed=6)
        want = mc_dual_pfa(kind, n, m, **kw).successes
        # 370 or 333 windows a batch, then an uneven last batch of 10.
        monkeypatch.setattr("gmcfar.oracles._BATCH_CELLS", 3337)
        assert mc_dual_pfa(kind, n, m, **kw).successes == want

    @pytest.mark.parametrize("kind, n", [(DetectorKind.GM_PARTIAL_MULTI, 2),
                                         (DetectorKind.GM_FULL_MULTI, 2),
                                         (DetectorKind.GM_FULL_SINGLE, 1)])
    def test_window_wider_than_batch(self, monkeypatch, kind, n):
        kw = dict(tau=0.5, trials=1000, seed=6)
        want = mc_dual_pfa(kind, n, 8 - n, **kw).successes
        # Fewer cells than one window: every batch holds a single row.
        monkeypatch.setattr("gmcfar.oracles._BATCH_CELLS", 5)
        assert mc_dual_pfa(kind, n, 8 - n, **kw).successes == want

    @pytest.mark.parametrize("kind, n, m", [
        (DetectorKind.GM_PARTIAL_SINGLE, 1, 5),
        (DetectorKind.GM_FULL_SINGLE, 1, 5),
        (DetectorKind.GM_PARTIAL_MULTI, 3, 12),
        (DetectorKind.GM_FULL_MULTI, 3, 40),
    ])
    def test_counts_equal_textbook_reference(self, kind, n, m):
        # The per-column draws stacked into (trials, cells) windows, summed
        # left to right and tested against the textbook right-hand sides:
        # tau sum Y, or (N - M tau) Ymin + tau sum Y.
        taus, trials, seed = [0.0, 0.5, 2.0], 20_000, 4
        base = RandomStream(seed, 0).child("dual")

        def stacked(side, cells):
            return np.stack([base.child(side, j).exponentials(trials)
                             for j in range(cells)], axis=1)

        xs, ys = stacked("cut", n), stacked("ref", m)
        sum_x = np.add.accumulate(xs, axis=1)[:, -1]
        sum_y = np.add.accumulate(ys, axis=1)[:, -1]
        y_min = ys.min(axis=1)
        want = [np.count_nonzero(sum_x > ((n - m * tau) * y_min + tau * sum_y
                                          if kind.is_full else tau * sum_y))
                for tau in taus]
        got = oracles._mc_dual_counts(
            [(kind.is_full, n, m, tau) for tau in taus], trials, seed)
        assert got == want

    def test_grid_counts_equal_single_point_counts(self):
        # Every window reads its own columns of one draw, so a point's
        # count does not depend on the rest of the grid.
        trials, seed = 20_000, 9
        reports = oracles.adjudicate_kinds(
            {kind: None for kind in DetectorKind}, trials, seed)
        for kind, report in reports.items():
            for p in report.points:
                alone = mc_dual_pfa(kind, p.n_cut, p.m_ref, p.tau, trials, seed)
                assert p.mc == alone, (kind, p.n_cut, p.m_ref, p.tau)

    @pytest.mark.parametrize("cells", [37, 5])
    def test_grid_batch_size_does_not_change_counts(self, monkeypatch, cells):
        rules = [(full, n, m, tau) for full in (False, True) for n in (1, 3)
                 for m in (2, 5) for tau in (0.5, 2.0)]
        kw = dict(trials=2_000, seed=12)
        want = oracles._mc_dual_counts(rules, **kw)
        # 4 rows a batch and an uneven last batch, or one row a batch.
        monkeypatch.setattr("gmcfar.oracles._BATCH_CELLS", cells)
        assert oracles._mc_dual_counts(rules, **kw) == want

    def test_wide_window_keeps_batches_long(self, monkeypatch):
        # One stream call a column a batch, and a batch's rows do not shrink
        # with the window's width: a 16 x 1000 window at 4e4 trials takes two
        # batches, not one a few hundred rows.
        calls = []
        uniforms = RandomStream.uniforms

        def counting(stream, count, start=0):
            calls.append(count)
            return uniforms(stream, count, start)

        monkeypatch.setattr(RandomStream, "uniforms", counting)
        trials = 40_000
        mc_dual_pfa(DetectorKind.GM_FULL_MULTI, 16, 1000, 0.01, trials)
        batches = math.ceil(trials / (oracles._BATCH_CELLS // 8))
        assert len(calls) <= batches * (16 + 1000)
        assert sum(calls) == trials * (16 + 1000)

    @pytest.mark.parametrize("single, multi", [
        (DetectorKind.GM_PARTIAL_SINGLE, DetectorKind.GM_PARTIAL_MULTI),
        (DetectorKind.GM_FULL_SINGLE, DetectorKind.GM_FULL_MULTI),
    ])
    @pytest.mark.parametrize("m, tau", [(1, 0.5), (5, 0.25), (40, 1.0)])
    def test_single_pulse_equals_multi_pulse_at_one_cut(self, single, multi,
                                                        m, tau):
        # The draw is keyed by the cell column, and the single-pulse rules are
        # the multi-pulse rules at N = 1.
        kw = dict(trials=20_000, seed=8)
        assert (mc_dual_pfa(single, 1, m, tau, **kw)
                == mc_dual_pfa(multi, 1, m, tau, **kw))


class TestQuadraturePartialMulti:
    def test_hand_value(self):
        got = quadrature_pfa_partial_multi(2, 4, 1.0)
        assert got == pytest.approx(0.1875, rel=1e-10)

    def test_tau_zero(self):
        assert quadrature_pfa_partial_multi(3, 5, 0.0) == 1.0

    def test_reduction_case(self):
        got = quadrature_pfa_partial_multi(1, 8, 1.0)
        assert got == pytest.approx(2.0 ** -8, rel=1e-10)

    def test_matches_closed_form_on_grid(self):
        for n, m, tau in [(1, 2, 0.5), (3, 8, 2.0), (4, 16, 0.1)]:
            got = quadrature_pfa_partial_multi(n, m, tau, tol=1e-12)
            want = pfa_gm_partial_multi(n, m, tau)
            assert got == pytest.approx(want, rel=1e-10), (n, m, tau)

    def test_tol_self_consistency(self):
        loose = quadrature_pfa_partial_multi(2, 6, 1.5, tol=1e-8)
        tight = quadrature_pfa_partial_multi(2, 6, 1.5, tol=1e-12)
        assert loose == pytest.approx(tight, rel=1e-7)

    def test_tol_validation(self):
        for bad in (0.0, -1e-9, 1e-3):
            with pytest.raises(ParameterDomainError):
                quadrature_pfa_partial_multi(2, 4, 1.0, tol=bad)


class TestScalarGammaTail:
    def test_full_multi_degenerate_branch_returns_float(self):
        for m, tau in ((1, 0.7), (4, 0.0)):
            got = quadrature_pfa_full_multi(2, m, tau)
            assert type(got) is float


class TestQuadratureFullMulti:
    def test_one_reference_is_half_for_any_tau(self):
        for tau in (0.1, 1.0, 20.0):
            got = quadrature_pfa_full_multi(1, 1, tau)
            assert got == pytest.approx(0.5, rel=1e-10)

    def test_excess_shapes_bracket_the_printed_forms(self):
        # With the smaller excess shape the oracle lands on the rederived
        # closed form; bumping the shape to the full reference count
        # reproduces the printed one instead.
        small = quadrature_pfa_full_multi(1, 8, 1.0,
                                          excess_shape=ExcessShape.M_MINUS_ONE)
        large = quadrature_pfa_full_multi(1, 8, 1.0,
                                          excess_shape=ExcessShape.M)
        assert small == pytest.approx((8 / 9) * 2.0 ** -7, rel=1e-9)
        assert large == pytest.approx((8 / 9) * 2.0 ** -8, rel=1e-9)

    def test_hand_value_two_cut_cells(self):
        got = quadrature_pfa_full_multi(2, 4, 1.0)
        assert got == pytest.approx(17 / 72, rel=1e-9)

    def test_tau_zero(self):
        for shape in (ExcessShape.M_MINUS_ONE, ExcessShape.M):
            got = quadrature_pfa_full_multi(1, 8, 0.0, excess_shape=shape)
            assert got == pytest.approx(8 / 9, rel=1e-10)

    def test_excess_shape_type_checked(self):
        with pytest.raises(ParameterDomainError):
            quadrature_pfa_full_multi(2, 4, 1.0, excess_shape="m")


def mp_gamma_mixture(n, a, tau, q=0):
    """sum_{j<n} C(a+j-1, j) tau**j (1+tau)**-(a+j) (1 - q**(n-j)) in
    30-digit mpmath: P(W1 > tau W2) for W1 ~ gamma(n), W2 ~ gamma(a) at
    q = 0, and with q = n/(n+m) the minimum-anchored Pfa with excess shape
    a (a = 0 is the degenerate excess)."""
    with mpmath.workdps(30):
        tau, q = mpmath.mpf(tau), mpmath.mpf(q)
        if a == 0:
            return float(1 - q ** n)
        term, total = (1 + tau) ** -a, mpmath.mpf(0)
        for j in range(n):
            if j:
                term *= mpmath.mpf(a + j - 1) / j * tau / (1 + tau)
            total += term * (1 - q ** (n - j))
        return float(total)


class TestGaussLaguerreOracle:
    # P(W1 > tau W2) by 30-digit mpmath.quad, and the M-1 shape full-multi
    # Pfa by the 30-digit sum above (it equals the CANDIDATE closed form).
    # Nested QUADPACK returned 4.8e-29, 0.0, 1.5e-28 and 6e-29 for the
    # partial-multi points, each with ier == 0.
    PINNED = [
        ((2, 200, 0.01), 0.40735248056516829477, 0.40735248056516829483),
        ((1, 1, 1e6), 9.99999000000999999e-7, 0.5),
        ((10, 200, 0.05), 0.46097209941109525317, 0.46097209941109525351),
        ((200, 200, 1.2), 0.034317284441734185866, 0.034959336869276004622),
    ]

    @pytest.mark.parametrize("window, partial, full", PINNED)
    def test_pinned_to_mpmath(self, window, partial, full):
        assert quadrature_pfa_partial_multi(*window, tol=1e-12) == \
            pytest.approx(partial, rel=1e-12)
        assert quadrature_pfa_full_multi(*window, tol=1e-12) == \
            pytest.approx(full, rel=1e-12)

    def test_sweep_to_documented_bound(self):
        # Every point converges to the mpmath value, or raises; a raise is
        # allowed only where the Pfa lies far below the double range, as
        # every gamma tail at the dominant nodes underflows there.
        raised = []
        for n in (1, 16, 200, 1000):
            for m in (1, 16, 200, 1000):
                for tau in (0.01, 1.0, 1e3):
                    q = n / (n + m)
                    cases = [
                        (quadrature_pfa_partial_multi, (),
                         mp_gamma_mixture(n, m, tau)),
                        (quadrature_pfa_full_multi, (ExcessShape.M_MINUS_ONE,),
                         mp_gamma_mixture(n, m - 1, tau, q)),
                        (quadrature_pfa_full_multi, (ExcessShape.M,),
                         mp_gamma_mixture(n, m, tau, q)),
                    ]
                    for oracle, shape, want in cases:
                        try:
                            got = oracle(n, m, tau, 1e-12, *shape)
                        except NumericalFailureError:
                            raised.append((n, m, tau, want))
                            continue
                        assert got == pytest.approx(
                            want, rel=1e-12, abs=1e-300), (n, m, tau, got)
        assert all(want == 0.0 for *_, want in raised), raised

    def test_capped_nodes_raise(self, monkeypatch):
        # With K = 8 and 2K = 16 nodes at most, a 64x64 window cannot pass
        # the convergence check; a 2x4 window still does.
        monkeypatch.setattr("gmcfar.oracles._MAX_NODES", 16)
        with pytest.raises(NumericalFailureError):
            quadrature_pfa_partial_multi(64, 64, 1.0)
        with pytest.raises(NumericalFailureError):
            quadrature_pfa_full_multi(64, 64, 1.0)
        assert quadrature_pfa_full_multi(2, 4, 1.0) == \
            pytest.approx(17 / 72, rel=1e-12)


class TestRowReductions:
    def test_equal_numpy_reductions_exactly(self):
        rng = np.random.default_rng(4)
        for width in [*range(1, 18), 31, 32, 33, 64]:
            cells = rng.exponential(size=(1001, width))
            sums = detectors._row_reduce(np.add, cells)
            mins = detectors._row_reduce(np.minimum, cells)
            assert np.array_equal(sums, cells.sum(axis=1)), width
            assert np.array_equal(mins, cells.min(axis=1)), width


class TestAdjudicate:
    def test_full_multi_prefers_rederived_form(self, full_multi_report):
        report = full_multi_report
        assert report.internally_consistent
        assert report.verdict == "candidate"
        assert report.validated_variant is PfaFormulaVariant.CANDIDATE
        assert all(p.discriminates for p in report.points)
        assert not report.insufficient_precision

    def test_full_single_prefers_rederived_form(self, full_single_report):
        report = full_single_report
        assert report.verdict == "candidate"
        assert report.validated_variant is PfaFormulaVariant.CANDIDATE

    def test_partial_multi_validates_printed_form(self, partial_multi_report):
        report = partial_multi_report
        assert report.verdict == "paper"
        assert report.validated_variant is PfaFormulaVariant.PAPER
        assert all(p.candidate is None for p in report.points)
        assert all(p.candidate_verdict == "not-applicable" for p in report.points)
        assert not any(p.discriminates for p in report.points)

    def test_low_trials_withhold_verdict(self, low_trials_report):
        report = low_trials_report
        assert report.verdict == "no-verdict-insufficient-trials"
        assert report.validated_variant is None
        assert report.insufficient_precision
        assert len(report.points) == 1

    def test_one_reference_grid_point_discriminates(self):
        report = adjudicate(DetectorKind.GM_FULL_MULTI, [(2, 1, 1.0)],
                            trials=1_000_000, seed=0)
        point = report.points[0]
        assert point.paper_verdict == "inconsistent"
        assert point.candidate_verdict == "consistent"
        assert point.discriminates
        assert report.internally_consistent
        assert report.verdict == "candidate"
        assert report.validated_variant is PfaFormulaVariant.CANDIDATE

    def test_json_round_trip(self, full_multi_report):
        text = full_multi_report.to_json()
        again = AdjudicationReport.from_json(text)
        assert again == full_multi_report
        assert again.to_json() == text

    def test_json_bytes_reproducible(self):
        kw = dict(grid=[(1, 4, 0.5)], trials=100_000, seed=2)
        a = adjudicate(DetectorKind.GM_PARTIAL_MULTI, **kw).to_json()
        b = adjudicate(DetectorKind.GM_PARTIAL_MULTI, **kw).to_json()
        assert a == b

    def test_schema_version_checked(self, low_trials_report):
        doc = json.loads(low_trials_report.to_json())
        doc["schema_version"] = 99
        with pytest.raises(ParameterDomainError):
            AdjudicationReport.from_dict(doc)

    @pytest.mark.parametrize("damage", [
        lambda doc: [doc],
        lambda doc: {k: v for k, v in doc.items() if k != "seed"},
        lambda doc: {**doc, "trials": True},
        lambda doc: {**doc, "seed": "0"},
        lambda doc: {**doc, "points": {}},
        lambda doc: {**doc, "detector": "bogus"},
        lambda doc: {**doc, "validated_variant": "bogus"},
        lambda doc: {**doc, "validated_variant": "quadrature"},
        lambda doc: {**doc, "points": [7]},
        lambda doc: {**doc, "points": [{**doc["points"][0], "tau": "1"}]},
        lambda doc: {**doc, "points": [{k: v for k, v in doc["points"][0].items()
                                        if k != "mc_successes"}]},
        lambda doc: {**doc, "tol": 0.5},
        lambda doc: {**doc, "tol": 0},
        lambda doc: {**doc, "seed": -1},
        lambda doc: {**doc, "seed": 2 ** 70},
        lambda doc: dataclasses.replace(AdjudicationReport.from_dict(doc),
                                        points=())._to_dict(),
        _edit_first_point(quadrature_excess_m=lambda p: None),
        ("partial_multi_report",
         _edit_first_point(quadrature_excess_m=lambda p: 0.5)),
    ], ids=["list", "no-seed", "bool-trials", "str-seed", "points-object",
            "unknown-detector", "unknown-variant", "quadrature-variant",
            "point-not-object", "str-tau", "no-mc-successes", "tol-half",
            "tol-zero", "negative-seed", "seed-2**70", "no-points",
            "full-null-excess-m", "partial-excess-m"])
    def test_malformed_dict_rejected(self, request, damage):
        # A damage without a named report damages low_trials_report.
        name, damage = (damage if isinstance(damage, tuple)
                        else ("low_trials_report", damage))
        doc = json.loads(request.getfixturevalue(name).to_json())
        with pytest.raises(ParameterDomainError):
            AdjudicationReport.from_dict(damage(doc))

    @pytest.mark.parametrize("extra, message", [
        (lambda doc: {**doc, "unknown_field": 0},
         "report has unknown field 'unknown_field'"),
        (_edit_first_point(mystery=lambda p: 0),
         "report point has unknown field 'mystery'"),
    ], ids=["report", "point"])
    def test_unknown_field_named(self, low_trials_report, extra, message):
        doc = json.loads(low_trials_report.to_json())
        with pytest.raises(ParameterDomainError, match=message):
            AdjudicationReport.from_dict(extra(doc))

    @pytest.mark.parametrize("tamper", TAMPERINGS.values(), ids=TAMPERINGS)
    def test_tampered_dict_rejected(self, full_multi_report, tamper):
        doc = json.loads(full_multi_report.to_json())
        with pytest.raises(InconsistentReportError, match="disagree"):
            AdjudicationReport.from_dict(tamper(doc))

    def test_closed_form_one_ulp_off_loads(self, full_multi_report):
        tamper = _edit_first_point(
            paper=lambda p: math.nextafter(p["paper"], math.inf),
            candidate=lambda p: math.nextafter(p["candidate"], 0.0))
        doc = tamper(json.loads(full_multi_report.to_json()))
        assert AdjudicationReport.from_dict(doc) == full_multi_report

    @pytest.mark.parametrize("kind", list(DetectorKind), ids=lambda k: k.value)
    def test_json_round_trip_every_kind(self, kind):
        report = adjudicate(kind, [(1, 4, 1.0), (1, 1, 0.5)], trials=20_000,
                            seed=3)
        assert AdjudicationReport.from_json(report.to_json()) == report

    def test_grid_validation(self):
        with pytest.raises(ParameterDomainError):
            adjudicate(DetectorKind.GM_FULL_MULTI, [], trials=10)
        with pytest.raises(ParameterDomainError):
            adjudicate(DetectorKind.GM_FULL_SINGLE, [(2, 4, 1.0)], trials=10)
        with pytest.raises(ParameterDomainError):
            adjudicate(DetectorKind.GM_FULL_MULTI, [(2, 4, 1.0)],
                       trials=10, tol=0.5)

    def test_default_grid_shapes(self):
        single = default_grid(DetectorKind.GM_FULL_SINGLE)
        multi = default_grid(DetectorKind.GM_FULL_MULTI)
        assert len(single) == 25
        assert all(n == 1 for n, _, _ in single)
        assert len(multi) == 75
        assert {n for n, _, _ in multi} == {1, 2, 4}
        # Given values replace the defaults; single kinds keep n_cut == 1.
        assert default_grid(DetectorKind.GM_PARTIAL_SINGLE, (2, 4), (8,),
                            (0.5,)) == ((1, 8, 0.5),)
        assert default_grid(DetectorKind.GM_PARTIAL_MULTI, (2, 4), (8,),
                            (0.5, 1.0)) == ((2, 8, 0.5), (2, 8, 1.0),
                                            (4, 8, 0.5), (4, 8, 1.0))


class TestGridPointRecord:
    @pytest.mark.parametrize("name", ["full_multi_report", "full_single_report",
                                      "partial_multi_report",
                                      "low_trials_report"])
    def test_closed_forms_derived_as_adjudicate_derives_them(self, request,
                                                            name):
        for p in request.getfixturevalue(name).points:
            again = GridPointRecord(p.kind, p.n_cut, p.m_ref, p.tau, p.mc,
                                    p.quadrature, p.quadrature_excess_m)
            assert (again.paper, again.candidate) == (p.paper, p.candidate)
            assert again == p

    def test_closed_forms_of_each_variant(self, full_multi_report,
                                          partial_multi_report):
        p = full_multi_report.points[0]
        assert p.paper == pfa_gm_full_multi(p.n_cut, p.m_ref, p.tau,
                                            PfaFormulaVariant.PAPER)
        assert p.candidate == pfa_gm_full_multi(p.n_cut, p.m_ref, p.tau,
                                                PfaFormulaVariant.CANDIDATE)
        p = partial_multi_report.points[0]
        assert p.paper == pfa_gm_partial_multi(p.n_cut, p.m_ref, p.tau)
        assert p.candidate is None

    @pytest.mark.parametrize("kind, excess_m", [
        (DetectorKind.GM_FULL_MULTI, None), (DetectorKind.GM_FULL_SINGLE, None),
        (DetectorKind.GM_PARTIAL_MULTI, 0.5),
        (DetectorKind.GM_PARTIAL_SINGLE, 0.5)], ids=str)
    def test_excess_m_quadrature_matches_kind(self, kind, excess_m):
        with pytest.raises(ParameterDomainError, match=(
                f"report point field 'quadrature_excess_m' cannot be "
                f"{excess_m} for {kind.value}")):
            GridPointRecord(kind, 1, 4, 1.0, EstimateWithCI(50, 100), 0.5,
                            excess_m)

    def test_report_refuses_point_of_another_kind(self, full_multi_report,
                                                  partial_multi_report):
        with pytest.raises(ParameterDomainError, match=(
                "a full-multi report cannot hold a partial-multi point")):
            dataclasses.replace(full_multi_report, points=(
                *full_multi_report.points, partial_multi_report.points[0]))


_PARAMS = ParetoParams(2.0, 1.0)


@pytest.mark.parametrize("kind", [DetectorKind.GM_PARTIAL_SINGLE,
                                  DetectorKind.GM_FULL_SINGLE],
                         ids=lambda kind: kind.value)
@pytest.mark.parametrize("entry", [
    lambda kind: mc_dual_pfa(kind, 2, 4, 1.0, trials=10),
    lambda kind: adjudicate(kind, [(2, 4, 1.0)], trials=10),
    lambda kind: validated_pfa(
        kind, adjudicate(kind, [(1, 4, 1.0)], trials=1_000), 2, 4, 1.0),
    lambda kind: empirical_pfa(kind, 2, 4, 1.0, _PARAMS, trials=10),
    lambda kind: SweepSpec(kind, 2, 4, 1.0, [_PARAMS], trials=10, seed=0),
    lambda kind: GridPointRecord(kind, 2, 4, 1.0, EstimateWithCI(50, 100),
                                 0.5, 0.4 if kind.is_full else None),
], ids=["mc_dual_pfa", "adjudicate", "validated_pfa", "empirical_pfa",
        "SweepSpec", "GridPointRecord"])
def test_single_kinds_require_one_cut_cell(entry, kind):
    with pytest.raises(ParameterDomainError, match="requires n_cut == 1"):
        entry(kind)


class TestValidatedPfa:
    def test_dispatches_to_validated_variant(self, full_multi_report):
        got = validated_pfa(DetectorKind.GM_FULL_MULTI, full_multi_report,
                            2, 4, 1.0)
        want = pfa_gm_full_multi(2, 4, 1.0, PfaFormulaVariant.CANDIDATE)
        assert got == want

    def test_full_single_dispatch(self, full_single_report):
        got = validated_pfa(DetectorKind.GM_FULL_SINGLE, full_single_report,
                            1, 8, 1.0)
        want = pfa_gm_full_single(8, 1.0, PfaFormulaVariant.CANDIDATE)
        assert got == want

    def test_partial_multi_dispatch(self, partial_multi_report):
        got = validated_pfa(DetectorKind.GM_PARTIAL_MULTI, partial_multi_report,
                            3, 8, 0.7)
        assert got == pfa_gm_partial_multi(3, 8, 0.7)

    def test_partial_single_never_needs_a_verdict(self, low_trials_report):
        report = adjudicate(DetectorKind.GM_PARTIAL_SINGLE, [(1, 4, 1.0)],
                            trials=1_000, seed=0)
        got = validated_pfa(DetectorKind.GM_PARTIAL_SINGLE, report, 1, 6, 2.0)
        assert got == pfa_gm_partial_single(6, 2.0)

    def test_one_reference_uses_validated_closed_form(self,
                                                      full_multi_report):
        got = validated_pfa(DetectorKind.GM_FULL_MULTI, full_multi_report,
                            2, 1, 1.0)
        assert got == pfa_gm_full_multi(2, 1, 1.0, PfaFormulaVariant.CANDIDATE)
        assert got == pytest.approx(quadrature_pfa_full_multi(2, 1, 1.0),
                                    rel=1e-12)

    def test_no_verdict_falls_back_to_quadrature(self, low_trials_report):
        got = validated_pfa(DetectorKind.GM_FULL_MULTI, low_trials_report,
                            1, 8, 1.0)
        want = quadrature_pfa_full_multi(1, 8, 1.0)
        assert got == want

    def test_detector_mismatch_rejected(self, full_multi_report):
        with pytest.raises(ParameterDomainError):
            validated_pfa(DetectorKind.GM_PARTIAL_MULTI, full_multi_report,
                          2, 4, 1.0)

    def test_inconsistent_report_rejected(self, full_multi_report):
        # A quadrature outside the 4 sigma band makes the oracles disagree.
        first, *rest = full_multi_report.points
        moved = dataclasses.replace(
            first, quadrature=first.mc.estimate + 5.0 * first.mc.sigma)
        broken = dataclasses.replace(full_multi_report, points=(moved, *rest))
        assert not broken.internally_consistent
        with pytest.raises(InconsistentReportError):
            validated_pfa(DetectorKind.GM_FULL_MULTI, broken, 2, 4, 1.0)

    def test_values_in_unit_interval(self, full_multi_report):
        for tau in (0.0, 0.5, 4.0):
            value = validated_pfa(DetectorKind.GM_FULL_MULTI,
                                  full_multi_report, 2, 4, tau)
            assert 0.0 <= value <= 1.0


class TestExcessShapeEnum:
    def test_values(self):
        assert ExcessShape.M_MINUS_ONE.value == "m-minus-one"
        assert ExcessShape.M.value == "m"
