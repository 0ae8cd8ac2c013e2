"""Tests for the closed-form false-alarm probabilities."""

import math
import sys

import mpmath
import pytest
from scipy.special import gammaincc

from gmcfar import (ExcessShape, ParameterDomainError, ParetoParams,
                    PfaFormulaVariant, Window, gamma_tail_poisson_sum,
                    gm_partial_single, pfa_gm_full_multi, pfa_gm_full_single,
                    pfa_gm_partial_multi, pfa_gm_partial_single,
                    quadrature_pfa_full_multi)

PAPER = PfaFormulaVariant.PAPER
CANDIDATE = PfaFormulaVariant.CANDIDATE

TAUS = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 50.0)
MS = (2, 4, 8, 16, 32, 100)


@pytest.mark.parametrize("call", [
    lambda: pfa_gm_partial_multi(2, 4, True),
    lambda: gm_partial_single(Window(cut=[2.0], reference=[3.0]), 1.0, True),
    lambda: ParetoParams(True, True),
    lambda: gamma_tail_poisson_sum(True, 3),
], ids=["tau", "scale", "pareto", "gamma-tail-x"])
def test_bool_is_not_a_number(call):
    # As for counts and seeds: True would otherwise pass as 1.
    with pytest.raises(ParameterDomainError):
        call()


class TestGammaTail:
    def test_trivial_values(self):
        assert gamma_tail_poisson_sum(0.0, 1) == 1.0
        assert gamma_tail_poisson_sum(0.0, 17) == 1.0
        assert gamma_tail_poisson_sum(0.5, 1) == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert gamma_tail_poisson_sum(1.0, 2) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    def test_against_independent_incomplete_gamma(self):
        xs = [0.0, 1e-6, 0.01, 0.3, 0.5, 1.0, 2.5, 7.0, 13.0, 31.0, 64.0, 99.5, 100.0]
        for k in range(1, 65):
            for x in xs:
                mine = gamma_tail_poisson_sum(x, k)
                ref = float(gammaincc(k, x))
                assert mine == pytest.approx(ref, rel=1e-12, abs=1e-300), (x, k)

    def test_log_domain_branch(self):
        # Above x ~ 700 the plain recursion would underflow at term zero.
        for x, k in [(800.0, 3), (1200.0, 900), (5000.0, 10)]:
            mine = gamma_tail_poisson_sum(x, k)
            ref = float(gammaincc(k, x))
            if ref > 0.0:
                assert mine == pytest.approx(ref, rel=1e-11), (x, k)
            else:
                assert mine == 0.0

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            gamma_tail_poisson_sum(-0.5, 2)
        with pytest.raises(ParameterDomainError):
            gamma_tail_poisson_sum(1.0, 0)
        with pytest.raises(ParameterDomainError):
            gamma_tail_poisson_sum(math.nan, 2)


class TestPartialSingle:
    def test_known_values(self):
        assert pfa_gm_partial_single(1, 0.0) == 1.0
        assert pfa_gm_partial_single(1, 1.0) == 0.5
        assert pfa_gm_partial_single(16, 0.5) == pytest.approx(1.5 ** -16, rel=1e-14)

    def test_strictly_decreasing(self):
        values = [pfa_gm_partial_single(8, t) for t in TAUS]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            pfa_gm_partial_single(0, 1.0)
        with pytest.raises(ParameterDomainError):
            pfa_gm_partial_single(4, -0.1)


class TestFullSingle:
    def test_printed_and_rederived_forms(self):
        assert pfa_gm_full_single(8, 1.0, PAPER) == pytest.approx((8 / 9) * 2.0 ** -8, rel=1e-14)
        assert pfa_gm_full_single(8, 1.0, CANDIDATE) == pytest.approx((8 / 9) * 2.0 ** -7, rel=1e-14)
        assert pfa_gm_full_single(8, 0.0, PAPER) == pytest.approx(8 / 9, rel=1e-15)
        assert pfa_gm_full_single(8, 0.0, CANDIDATE) == pytest.approx(8 / 9, rel=1e-15)

    def test_one_reference_tau_cancellation(self):
        # The rederived form honors the forced Pfa = 1/2 at one reference cell.
        for tau in (0.1, 1.0, 10.0):
            assert pfa_gm_full_single(1, tau, CANDIDATE) == 0.5
            assert pfa_gm_full_single(1, tau, PAPER) == pytest.approx(
                0.5 / (1.0 + tau), rel=1e-14)

    def test_quadrature_variant_is_rejected_here(self):
        # Both full forms take only a PfaFormulaVariant member; a bare name
        # or None must not fall through to either formula.
        for variant in (None, "paper", "quadrature"):
            with pytest.raises(ParameterDomainError):
                pfa_gm_full_single(4, 1.0, variant)
            with pytest.raises(ParameterDomainError):
                pfa_gm_full_multi(2, 4, 1.0, variant)


class TestPartialMulti:
    def test_hand_value_exact(self):
        assert pfa_gm_partial_multi(2, 4, 1.0) == 0.1875

    def test_reduction_to_single(self):
        for m in MS:
            for tau in TAUS:
                want = (1.0 + tau) ** -m
                got = pfa_gm_partial_multi(1, m, tau)
                assert got == pytest.approx(want, rel=1e-14), (m, tau)

    def test_tau_zero_is_one(self):
        assert pfa_gm_partial_multi(3, 5, 0.0) == 1.0
        assert pfa_gm_partial_multi(1, 50, 0.0) == 1.0

    def test_dominance_over_single(self):
        for n in (1, 2, 3, 6):
            for m in (2, 8, 32):
                for tau in (0.1, 1.0, 5.0):
                    multi = pfa_gm_partial_multi(n, m, tau)
                    single = pfa_gm_partial_single(m, tau)
                    assert multi >= single
                    if n == 1:
                        assert multi == pytest.approx(single, rel=1e-14)

    def test_strictly_decreasing_in_tau(self):
        for n, m in [(1, 4), (3, 8), (8, 32)]:
            values = [pfa_gm_partial_multi(n, m, t) for t in TAUS]
            assert all(a > b for a, b in zip(values, values[1:])), (n, m)

    def test_large_windows_stay_finite(self):
        value = pfa_gm_partial_multi(1000, 1000, 1.0)
        assert 0.0 < value < 1.0
        tiny = pfa_gm_partial_multi(4, 1000, 5.0)
        assert math.isfinite(tiny)
        assert 0.0 <= tiny < 1e-300

    def test_small_sum_matches_raw_terms(self):
        # The scaled recurrence reproduces the printed sum term by term.
        direct = pfa_gm_partial_multi(3, 8, 2.0)
        total = sum(
            math.comb(8 + l - 1, l) * 2.0 ** l / 3.0 ** (8 + l)
            for l in range(3)
        )
        assert direct == pytest.approx(total, rel=1e-14)


class TestFullMulti:
    def test_hand_values(self):
        assert pfa_gm_full_multi(2, 4, 1.0, PAPER) == pytest.approx(19 / 144, rel=1e-14)
        assert pfa_gm_full_multi(2, 4, 1.0, CANDIDATE) == pytest.approx(17 / 72, rel=1e-14)

    def test_reduction_to_single(self):
        for m in MS:
            for tau in TAUS:
                front = m / (m + 1.0)
                paper = pfa_gm_full_multi(1, m, tau, PAPER)
                cand = pfa_gm_full_multi(1, m, tau, CANDIDATE)
                assert paper == pytest.approx(front * (1.0 + tau) ** -m,
                                              rel=1e-14), (m, tau)
                assert cand == pytest.approx(front * (1.0 + tau) ** -(m - 1),
                                             rel=1e-14), (m, tau)

    def test_matches_full_single(self):
        for m in (2, 8, 32):
            for tau in (0.1, 1.0, 5.0):
                for variant in (PAPER, CANDIDATE):
                    assert pfa_gm_full_multi(1, m, tau, variant) == pytest.approx(
                        pfa_gm_full_single(m, tau, variant), rel=1e-14)

    def test_tau_zero_value(self):
        for m in (2, 5, 16):
            want = m / (m + 1.0)
            assert pfa_gm_full_multi(1, m, 0.0, PAPER) == pytest.approx(want, rel=1e-13)
            assert pfa_gm_full_multi(1, m, 0.0, CANDIDATE) == pytest.approx(want, rel=1e-13)

    def test_one_reference_matches_quadrature(self):
        # With one reference cell the excess is empty, so the rule is
        # tau-invariant: P(gamma(N, 1) > N T), T ~ Exp(1), is
        # 1 - (N/(N+1))**N, and CANDIDATE's shape-0 pass gives exactly that.
        for n in (1, 2, 4, 16, 200, 1000):
            want = 1.0 - (n / (n + 1.0)) ** n
            values = {pfa_gm_full_multi(n, 1, tau, CANDIDATE)
                      for tau in (0.0, 0.1, 1.0, 5.0)}
            assert len(values) == 1, n
            value = values.pop()
            assert value == pytest.approx(want, rel=1e-13), n
            assert value == pytest.approx(quadrature_pfa_full_multi(n, 1, 1.0),
                                          rel=1e-13), n
        # PAPER at N = M = 1 is the printed density: excess shape M.
        for tau in (0.0, 0.1, 1.0, 5.0):
            assert pfa_gm_full_multi(1, 1, tau, PAPER) == pytest.approx(
                quadrature_pfa_full_multi(1, 1, tau,
                                          excess_shape=ExcessShape.M),
                rel=1e-13), tau

    def test_strictly_decreasing_in_tau(self):
        for variant in (PAPER, CANDIDATE):
            for n, m in [(1, 4), (3, 8), (6, 16)]:
                values = [pfa_gm_full_multi(n, m, t, variant) for t in TAUS]
                assert all(a > b for a, b in zip(values, values[1:])), (n, m)

    def test_large_windows_stay_finite(self):
        for variant in (PAPER, CANDIDATE):
            value = pfa_gm_full_multi(500, 800, 1.0, variant)
            assert math.isfinite(value) and 0.0 <= value <= 1.0

    def test_outputs_in_unit_interval(self):
        for variant in (PAPER, CANDIDATE):
            for n in (1, 2, 5):
                for m in (2, 4, 64):
                    for tau in TAUS:
                        value = pfa_gm_full_multi(n, m, tau, variant)
                        assert 0.0 <= value <= 1.0


def _mp_negbin_terms(a, count, tau):
    """C(a+k-1, k) tau**k (1+tau)**-(a+k) for k < count, term by term at the
    working precision, with the binomials in exact integers."""
    tau = mpmath.mpf(tau)
    binom, power, terms = 1, (1 + tau) ** -a, []
    for k in range(count):
        if k:
            binom = binom * (a + k - 1) // k
            power *= tau / (1 + tau)
        terms.append(binom * power)
    return terms


def _mp_partial_multi(n, m, tau):
    with mpmath.workdps(40):
        return float(mpmath.fsum(_mp_negbin_terms(m, n, tau)))


def _mp_full_multi(n, m, tau, variant):
    """The raw double sum M sum_{l<N} sum_{k<=l} f(k) g(l-k), every term
    evaluated at 40 digits; summing over l first makes the inner sum a
    running prefix of g."""
    with mpmath.workdps(40):
        total = mpmath.mpf(n + m)
        if variant is PAPER:
            shape, q = m, 1 / total
        else:
            shape, q = m - 1, n / total
        prefix, acc, g = [], mpmath.mpf(0), 1 / total
        for _ in range(n):
            acc += g
            prefix.append(acc)
            g *= q
        f = _mp_negbin_terms(shape, n, tau)
        return float(m * mpmath.fsum(f[k] * prefix[n - 1 - k] for k in range(n)))


def _assert_matches_reference(got, want, where):
    # 1e-12 relative; a value that underflows must come out (essentially) 0.
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * sys.float_info.min), \
        (where, got, want)


class TestAgainstMpmath:
    """Every multi-pulse closed form against a 40-digit evaluation of the raw
    sums across the documented domain, window sizes up to 10**3."""

    @pytest.mark.parametrize("n", [1, 2, 40, 1000])
    @pytest.mark.parametrize("m", [2, 3, 100, 1000])
    def test_grid(self, n, m):
        # tau = 0 with n > 1 ends every sum after one term; tau = n/m puts
        # the largest summand near the last index n-1.
        for tau in (0.0, 1e-3, 0.8 * n / m, n / m, 1.25 * n / m, 20.0):
            _assert_matches_reference(pfa_gm_partial_multi(n, m, tau),
                                      _mp_partial_multi(n, m, tau),
                                      ("partial", n, m, tau))
            for variant in (PAPER, CANDIDATE):
                _assert_matches_reference(pfa_gm_full_multi(n, m, tau, variant),
                                          _mp_full_multi(n, m, tau, variant),
                                          (variant.value, n, m, tau))

    @pytest.mark.parametrize("n, m, tau", [(1, 1000, 1.0), (2, 1000, 1.0691),
                                           (4, 1000, 5.0), (300, 1000, 2.7863),
                                           (1000, 1000, 20.0), (64, 300, 19.41)])
    def test_far_below_1e_300(self, n, m, tau):
        want = _mp_partial_multi(n, m, tau)
        assert want < 1e-300
        _assert_matches_reference(pfa_gm_partial_multi(n, m, tau), want,
                                  ("partial", n, m, tau))
        for variant in (PAPER, CANDIDATE):
            _assert_matches_reference(pfa_gm_full_multi(n, m, tau, variant),
                                      _mp_full_multi(n, m, tau, variant),
                                      (variant.value, n, m, tau))
