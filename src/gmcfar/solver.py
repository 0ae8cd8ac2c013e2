"""Invert Pfa(tau) for a desired false-alarm rate.

The scale-weighted single-pulse rule inverts in closed form; everything else
goes through ``validated_pfa`` with geometric bracket growth followed by
Illinois (modified regula falsi) steps on log Pfa, which fall back to
bisection whenever the secant point leaves the bracket.  The strict
monotonicity of every Pfa curve keeps the bracket valid throughout.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from .detectors import DetectorKind, _check_window
from .errors import (NumericalFailureError, ParameterDomainError,
                     UnreachableTargetError, _check_instance, _check_int,
                     _check_positive, _is_real)
from .oracles import AdjudicationReport, validated_pfa
from .pfa import pfa_gm_partial_single

# No oracle has yet checked a closed form below this target.
_MIN_TARGET = 1e-12

_MAX_BRACKET_GROWTH = 400


def _check_target(target) -> float:
    if not (_is_real(target) and 0.0 < target < 1.0):
        raise ParameterDomainError(
            f"target Pfa must lie in (0, 1), got {target!r}"
        )
    if target < _MIN_TARGET:
        raise ParameterDomainError(
            f"target Pfa below {_MIN_TARGET:g} is not supported"
        )
    return float(target)


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Target false-alarm rate plus stopping controls.

    ``abs_tol`` is on the Pfa scale and defaults to 1e-12 relative to the
    target.
    """

    target_pfa: float
    abs_tol: Optional[float] = None
    max_iterations: int = 200

    def __post_init__(self):
        target = _check_target(self.target_pfa)
        object.__setattr__(self, "target_pfa", target)
        abs_tol = (1e-12 * target if self.abs_tol is None
                   else _check_positive("abs_tol", self.abs_tol))
        object.__setattr__(self, "abs_tol", abs_tol)
        _check_int("max_iterations", self.max_iterations)


def solve_tau_partial_single(n_ref: int, target) -> float:
    """Closed-form threshold multiplier: target**(-1/n_ref) - 1."""
    n_ref = _check_int("n_ref", n_ref)
    target = _check_target(target)
    return target ** (-1.0 / n_ref) - 1.0


def solve_tau_numeric(kind: DetectorKind, n_cut: int, m_ref: int,
                      config: SolverConfig,
                      report: AdjudicationReport) -> float:
    """Find tau with |validated_pfa(tau) - target| <= abs_tol.

    Once the target is bracketed, each step is the secant root of
    log(Pfa / target) between the bracket ends, halving the log ratio kept
    at an end that survives two steps running (the Illinois rule, Dowell &
    Jarratt, BIT 11, 1971).  A secant point outside the open bracket, or a
    Pfa that underflows to 0 at its upper end, gives a bisection step.

    The minimum-anchored rules with a single reference cell have
    tau-invariant Pfa, so no threshold exists for them; that is reported
    as an unreachable-target error, as is any target above the tau = 0
    ceiling of the curve.  Partial-single checks ``report`` through that
    ceiling like every other kind, then inverts in closed form.
    """
    n_cut, m_ref = _check_window(kind, n_cut, m_ref)
    _check_instance("config", config, SolverConfig)
    target = config.target_pfa
    if kind.is_full and m_ref == 1:
        raise UnreachableTargetError(
            f"{kind.value} with one reference cell has tau-invariant Pfa; "
            "no threshold multiplier reaches the target"
        )

    # abs_tol is on the Pfa scale; the quadrature tolerance is relative.
    quad_tol = min(1e-10, config.abs_tol / (10.0 * target))

    def pfa_at(tau: float) -> float:
        return validated_pfa(kind, report, n_cut, m_ref, tau, tol=quad_tol)

    ceiling = pfa_at(0.0)
    if target >= ceiling:
        if target == ceiling:
            return 0.0
        raise UnreachableTargetError(
            f"target {target:g} exceeds the tau=0 ceiling {ceiling:.9g} "
            f"of {kind.value}"
        )
    if kind is DetectorKind.GM_PARTIAL_SINGLE:
        return solve_tau_partial_single(m_ref, target)

    lo, hi = 0.0, 1.0
    f_lo, f_hi = ceiling, pfa_at(hi)
    growth = 0
    while f_hi > target:
        lo, hi, f_lo = hi, 2.0 * hi, f_hi
        f_hi = pfa_at(hi)
        growth += 1
        if growth > _MAX_BRACKET_GROWTH:
            raise NumericalFailureError(
                f"could not bracket target {target:g} for {kind.value}",
                achieved=f_hi,
            )
    best_err = abs(f_hi - target)
    if best_err <= config.abs_tol:
        return hi

    # Illinois steps on g = log(Pfa / target), positive at lo and not
    # positive at hi.  Pfa may underflow to 0 at hi, leaving g = -inf there.
    def log_ratio(f: float) -> float:
        return math.log(f / target) if f > 0.0 else -math.inf

    g_lo, g_hi = log_ratio(f_lo), log_ratio(f_hi)
    kept = 0  # +1 after lo moved (hi kept), -1 after hi moved (lo kept)
    for _ in range(config.max_iterations):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        tau = mid
        if math.isfinite(g_hi):
            secant = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if lo < secant < hi:
                tau = secant
        f = pfa_at(tau)
        err = abs(f - target)
        best_err = min(best_err, err)
        if err <= config.abs_tol:
            return tau
        if f > target:
            lo, g_lo = tau, log_ratio(f)
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, g_hi = tau, log_ratio(f)
            if kept == -1:
                g_lo *= 0.5
            kept = -1
    raise NumericalFailureError(
        f"root finding exhausted {config.max_iterations} iterations on "
        f"[{lo!r}, {hi!r}] for {kind.value} target {target:g}",
        achieved=best_err,
    )
