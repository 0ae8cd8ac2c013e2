"""Closed-form false-alarm probabilities for the geometric-mean detectors.

Two of the four published formulas are suspected of typos, so the affected
detectors carry two candidate closed forms side by side:

* full-CFAR single pulse: ``(n/(n+1)) (1+tau)**-n`` as printed, versus
  ``(n/(n+1)) (1+tau)**-(n-1)`` from the representation
  ``Pfa = E[exp(-Ymin)] * E[exp(-tau*S)]`` with ``S ~ gamma(n-1, 1)``
  (the n=1 detector is tau-invariant, which only the second form honors);
* full-CFAR multi pulse: the printed double sum, versus a re-derivation that
  keeps the excess-over-minimum gamma shape at M-1 and retains the
  ``N**(l-n)`` binomial factor.

Neither is silently "corrected": both evaluate here, and the oracle module
decides which one the brute-force evidence supports.

Both multi-pulse forms are one O(N) pass of the negative-binomial term
recurrence (``_negbin_sum``) over non-negative terms.  A leading term that
would underflow is replaced by 1 with its log carried as an offset, terms
that grow too large are rescaled together with the running total, and the
pass stops once the falling terms no longer change the total, so window
sizes up to 10**3 neither overflow nor underflow.
"""

from __future__ import annotations

import enum
import math

from .errors import ParameterDomainError, _check_int, _check_tau

# Scaled terms stay below _RESCALE; a leading term below 1/_RESCALE starts
# the recurrence from 1 with its log carried as an offset.
_RESCALE = 1e280
# A term below total * 2**-54 rounds away when added to the total.
_NEGLIGIBLE = 2.0 ** -54


class PfaFormulaVariant(enum.Enum):
    """Which closed-form expression to evaluate."""

    PAPER = "paper"
    CANDIDATE = "candidate"


def _check_variant(variant) -> None:
    if not isinstance(variant, PfaFormulaVariant):
        raise ParameterDomainError(
            "closed forms accept PAPER or CANDIDATE; use the oracles module for quadrature"
        )


def gamma_tail_poisson_sum(x: float, k: int) -> float:
    """P(gamma(k, 1) > x) as the finite Poisson sum sum_{l<k} x**l e**-x / l!.

    Valid for integer shape k >= 1.  For x large enough that e**-x
    underflows, the terms are accumulated in the log domain instead.
    """
    k = _check_int("k", k)
    x = _check_tau(x, "x")
    if x == 0.0:
        return 1.0
    if x < 700.0:
        term = math.exp(-x)
        total = term
        for l in range(1, k):
            term *= x / l
            total += term
        return min(total, 1.0)
    # e**-x subnormal or zero: sum exp(l ln x - x - ln l!) term by term.
    log_x = math.log(x)
    logs = [l * log_x - x - math.lgamma(l + 1) for l in range(k)]
    peak = max(logs)
    if peak == -math.inf:
        return 0.0
    return math.exp(peak) * math.fsum(math.exp(v - peak) for v in logs)


def pfa_gm_partial_single(n_ref: int, tau: float) -> float:
    """False-alarm probability of the scale-weighted single-pulse rule:
    (1 + tau)**-n_ref."""
    n_ref = _check_int("n_ref", n_ref)
    tau = _check_tau(tau)
    return (1.0 + tau) ** (-n_ref)


def pfa_gm_full_single(n_ref: int, tau: float, variant: PfaFormulaVariant) -> float:
    """False-alarm probability of the minimum-anchored single-pulse rule.

    PAPER evaluates the published ``(n/(n+1)) (1+tau)**-n``; CANDIDATE the
    re-derived ``(n/(n+1)) (1+tau)**-(n-1)``.  Pick via an adjudication
    report, not by taste.
    """
    n_ref = _check_int("n_ref", n_ref)
    tau = _check_tau(tau)
    _check_variant(variant)
    front = n_ref / (n_ref + 1.0)
    if variant is PfaFormulaVariant.PAPER:
        return front * (1.0 + tau) ** (-n_ref)
    return front * (1.0 + tau) ** (-(n_ref - 1))


def _negbin_sum(a: int, count: int, tau: float, ln_q: float = -math.inf,
                scale: float = 1.0) -> float:
    """min(1, scale * sum_{k<count} f(k) (1 - q**(count-k))) with q = e**ln_q.

    ``f(k) = C(a+k-1, k) tau**k (1+tau)**-(a+k)`` is the negative-binomial
    term, built by f(k+1) = f(k) (a+k)/(k+1) tau/(1+tau).  The default q = 0
    weighs every term by exactly 1.  The terms rise to one mode and then
    fall, and so do the weighted terms, so the pass stops at the first
    falling term too small to change the total: the result is the same as
    summing every term in order.
    """
    ratio = tau / (1.0 + tau)
    term = (1.0 + tau) ** (-a)
    offset = 0.0
    if term < 1.0 / _RESCALE:
        term, offset = 1.0, -a * math.log1p(tau)
    total = term * -math.expm1(count * ln_q)
    for k in range(1, count):
        step = (a + k - 1) / k * ratio
        term *= step
        if term > _RESCALE:
            offset += math.log(term)
            total /= term
            term = 1.0
        part = term * -math.expm1((count - k) * ln_q)
        if step < 1.0 and part < total * _NEGLIGIBLE:
            break
        total += part
    if offset == 0.0:
        return min(scale * total, 1.0)
    return min(math.exp(offset + math.log(scale * total)), 1.0)


def pfa_gm_partial_multi(n_cut: int, m_ref: int, tau: float) -> float:
    """False-alarm probability of the scale-weighted multi-pulse rule:
    sum_{l<N} C(M+l-1, l) tau**l / (1+tau)**(M+l).

    Equals P(W1 > tau W2) with W1 ~ gamma(N, 1) and W2 ~ gamma(M, 1).
    """
    n = _check_int("n_cut", n_cut)
    m = _check_int("m_ref", m_ref)
    tau = _check_tau(tau)
    return _negbin_sum(m, n, tau)


def pfa_gm_full_multi(n_cut: int, m_ref: int, tau: float,
                      variant: PfaFormulaVariant) -> float:
    """False-alarm probability of the minimum-anchored multi-pulse rule.

    PAPER evaluates the published double sum
    ``M sum_l sum_n C(M+n-1, n) (N+M)**-(l-n+1) tau**n (1+tau)**-(M+n)``;
    CANDIDATE keeps the excess gamma shape at M-1 and the ``N**(l-n)``
    binomial factor:
    ``M sum_l sum_n C(M+n-2, n) N**(l-n) (N+M)**-(l-n+1) tau**n (1+tau)**-(M+n-1)``.

    Either double sum is evaluated in one O(N) pass: reordered as
    ``M sum_n f(n) G(N-1-n)``, with f the scaled negative-binomial term
    recurrence and G the prefix sums of the geometric weight in closed form.

    Both evaluate at every window, m_ref = 1 included, where CANDIDATE's
    shape is 0 and it gives the tau-invariant ``1 - (N/(N+1))**N``.
    """
    n = _check_int("n_cut", n_cut)
    m = _check_int("m_ref", m_ref)
    tau = _check_tau(tau)
    _check_variant(variant)
    # f has shape a; G(j) = sum_{i<=j} q**i / (N+M) = (1 - q**(j+1)) / norm
    # with norm = (N+M)(1-q), an integer.
    if variant is PfaFormulaVariant.PAPER:
        a, ln_q, norm = m, -math.log(n + m), n + m - 1  # q = 1/(N+M)
    else:
        a, ln_q, norm = m - 1, math.log1p(-m / (n + m)), m  # q = N/(N+M)
    return _negbin_sum(a, n, tau, ln_q, m / norm)
