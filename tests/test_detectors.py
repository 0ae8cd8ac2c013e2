"""Tests for the four log-domain decision rules."""

import math

import numpy as np
import pytest

from gmcfar import (Decision, DetectorKind, Outcome, ParameterDomainError,
                    Window, gm_full_multi, gm_full_single, gm_partial_multi,
                    gm_partial_single, margins_full_multi,
                    margins_partial_multi)


def test_window_validation():
    Window(cut=[1.0], reference=[2.0, 3.0])
    for cut, ref in [([], [1.0]), ([1.0], []), ([0.0], [1.0]),
                     ([1.0], [-2.0]), ([math.inf], [1.0]),
                     ([1.0], [math.nan])]:
        with pytest.raises(ParameterDomainError):
            Window(cut=cut, reference=ref)


def test_window_is_immutable():
    window = Window(cut=[2.0], reference=[2.0, 3.0])
    assert window.n_cut == 1 and window.m_ref == 2
    with pytest.raises(ValueError):
        window.cut[0] = 5.0


def test_partial_single_hand_values():
    # threshold = beta^(1-2*tau) * (Z1*Z2)^tau = 6 for beta=1, tau=1.
    window_hit = Window(cut=[7.0], reference=[2.0, 3.0])
    window_miss = Window(cut=[5.0], reference=[2.0, 3.0])
    assert gm_partial_single(window_hit, 1.0, 1.0).outcome is Outcome.TARGET_PRESENT
    assert gm_partial_single(window_miss, 1.0, 1.0).outcome is Outcome.TARGET_ABSENT
    margin = gm_partial_single(window_hit, 1.0, 1.0).margin
    assert margin == pytest.approx(math.log(7.0 / 6.0), rel=1e-12)


def test_full_single_hand_value():
    # reference [2, 8], tau=0.5: threshold = min^0 * 16^0.5 = 4.
    window = Window(cut=[5.0], reference=[2.0, 8.0])
    decision = gm_full_single(window, 0.5)
    assert decision.outcome is Outcome.TARGET_PRESENT
    assert decision.margin == pytest.approx(math.log(5.0 / 4.0), rel=1e-12)


def test_full_single_one_reference_ignores_tau():
    window = Window(cut=[3.0], reference=[2.0])
    margins = [gm_full_single(window, tau).margin for tau in (0.0, 0.5, 1.0, 10.0)]
    assert margins == pytest.approx([math.log(1.5)] * 4, rel=1e-12)


def test_partial_multi_hand_value():
    window = Window(cut=[2.0, 2.0], reference=[2.0, 3.0])
    decision = gm_partial_multi(window, 1.0, 1.0)
    assert decision.outcome is Outcome.TARGET_ABSENT
    assert decision.margin == pytest.approx(math.log(4.0 / 6.0), rel=1e-12)


def test_partial_multi_tau_zero():
    window = Window(cut=[2.0, 3.0], reference=[5.0, 5.0])
    decision = gm_partial_multi(window, 0.0, 1.0)
    assert decision.margin == pytest.approx(math.log(6.0), rel=1e-12)
    assert decision.outcome is Outcome.TARGET_PRESENT


def test_full_multi_single_reference_tau_invariant():
    window = Window(cut=[3.0], reference=[2.0])
    for tau in (0.0, 0.1, 1.0, 10.0):
        decision = gm_full_multi(window, tau)
        assert decision.outcome is Outcome.TARGET_PRESENT
        assert decision.margin == pytest.approx(math.log(1.5), rel=1e-12)


def test_tie_is_target_absent():
    for c in (0.5, 1.0, 37.0):
        window = Window(cut=[c, c], reference=[c, c, c])
        assert gm_full_multi(window, 1.0).outcome is Outcome.TARGET_ABSENT
        assert gm_full_multi(window, 1.0).margin == pytest.approx(0.0, abs=1e-12)
        assert gm_partial_multi(window, 1.0, c).outcome is Outcome.TARGET_ABSENT
    assert Decision.from_margin(0.0).outcome is Outcome.TARGET_ABSENT
    assert not Decision.from_margin(0.0)
    assert Decision.from_margin(1e-300)


def test_single_kinds_require_one_cut():
    window = Window(cut=[1.0, 2.0], reference=[3.0])
    with pytest.raises(ParameterDomainError):
        gm_partial_single(window, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        gm_full_single(window, 1.0)


def test_tau_and_scale_validation():
    window = Window(cut=[2.0], reference=[3.0])
    for tau in (-0.5, math.inf, math.nan):
        with pytest.raises(ParameterDomainError):
            gm_full_single(window, tau)
    for scale in (0.0, -1.0, math.inf):
        with pytest.raises(ParameterDomainError):
            gm_partial_single(window, 1.0, scale)


def _random_windows(count, n, m, seed):
    rng = np.random.default_rng(seed)
    # Heavy-tailed positive cells spanning many decades.
    cut = np.exp(rng.normal(0.0, 3.0, size=(count, n)))
    ref = np.exp(rng.normal(0.0, 3.0, size=(count, m)))
    return cut, ref


def test_full_kinds_scale_invariant():
    cut, ref = _random_windows(2000, 2, 6, seed=1)
    base = margins_full_multi(cut, ref, 0.7)
    for c in (1e-6, 1e6):
        scaled = margins_full_multi(c * cut, c * ref, 0.7)
        tol = 1e-9 * np.maximum(1.0, np.abs(base))
        assert (np.abs(scaled - base) <= tol).all()


def test_partial_kinds_scale_equivariant():
    cut, ref = _random_windows(2000, 2, 6, seed=2)
    base = margins_partial_multi(cut, ref, 0.7, 1.0)
    for c in (1e-6, 1e6):
        scaled = margins_partial_multi(c * cut, c * ref, 0.7, c * 1.0)
        tol = 1e-9 * np.maximum(1.0, np.abs(base))
        assert (np.abs(scaled - base) <= tol).all()


def test_tau_monotone_margins():
    cut, ref = _random_windows(500, 2, 6, seed=3)
    taus = np.linspace(0.0, 5.0, 11)
    full = np.stack([margins_full_multi(cut, ref, t) for t in taus])
    assert (np.diff(full, axis=0) <= 1e-12).all()
    # Partial margins decrease in tau whenever sum log(Z/beta) >= 0.
    mask = np.log(ref).sum(axis=1) >= 0.0
    partial = np.stack([margins_partial_multi(cut, ref, t, 1.0) for t in taus])
    assert (np.diff(partial[:, mask], axis=0) <= 1e-12).all()


def test_scalar_detectors_match_batch_kernels():
    cut, ref = _random_windows(50, 3, 5, seed=4)
    batch_partial = margins_partial_multi(cut, ref, 1.3, 2.0)
    batch_full = margins_full_multi(cut, ref, 1.3)
    for i in range(cut.shape[0]):
        window = Window(cut=cut[i], reference=ref[i])
        assert gm_partial_multi(window, 1.3, 2.0).margin == batch_partial[i]
        assert gm_full_multi(window, 1.3).margin == batch_full[i]


@pytest.mark.parametrize("width", [1, 7, 8, 31, 32, 64])
def test_batch_margins_equal_textbook_reductions_exactly(width):
    # The kernels reduce narrow rows column by column; they must still give
    # numpy's per-row sums and minima of the logs, bit for bit.
    cut, ref = _random_windows(1001, width, width, seed=width)
    n, m, tau, scale = width, width, 0.7, 2.0
    log_cut, log_ref = np.log(cut), np.log(ref)
    partial = log_cut.sum(axis=1) - ((n - m * tau) * math.log(scale)
                                     + tau * log_ref.sum(axis=1))
    full = log_cut.sum(axis=1) - ((n - m * tau) * log_ref.min(axis=1)
                                  + tau * log_ref.sum(axis=1))
    assert np.array_equal(margins_partial_multi(cut, ref, tau, scale), partial)
    assert np.array_equal(margins_full_multi(cut, ref, tau), full)


def test_single_detectors_match_multi_with_one_cut():
    cut, ref = _random_windows(50, 1, 4, seed=5)
    for i in range(cut.shape[0]):
        window = Window(cut=cut[i], reference=ref[i])
        assert gm_partial_single(window, 0.8, 1.5).margin == \
            gm_partial_multi(window, 0.8, 1.5).margin
        assert gm_full_single(window, 0.8).margin == \
            gm_full_multi(window, 0.8).margin


def test_detector_kind_flags():
    assert DetectorKind.GM_FULL_MULTI.is_full
    assert not DetectorKind.GM_PARTIAL_MULTI.is_full
    assert DetectorKind.GM_PARTIAL_SINGLE.is_single
    assert not DetectorKind.GM_FULL_MULTI.is_single
    assert {k.value for k in DetectorKind} == {
        "partial-single", "full-single", "partial-multi", "full-multi"}
