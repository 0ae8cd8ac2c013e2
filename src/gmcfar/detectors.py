"""Geometric-mean sliding-window decision rules, evaluated in the log domain.

Four rules are supported.  "Partial" rules weight the reference product with a
known clutter scale and are CFAR with respect to the Pareto shape only; "full"
rules substitute the reference minimum for the scale and are CFAR in both
parameters.  "Single" rules test one cell, "multi" rules test the product of
N cells against M reference cells.

All comparisons happen on logarithms: reference products overflow for modest
window sizes, and the scale exponent ``N - M*tau`` may be negative.  A strict
inequality rejects the no-target hypothesis; an exact tie never does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ParameterDomainError, _check_instance, _check_int,
                     _check_positive, _check_tau)

# Batch rows narrower than these reduce column by column, faster than
# numpy's per-row loops.  numpy adds a row of under 8 cells in order, as a
# running sum does, and pairwise from 8; its row minimum wins from 32.
_SUM_COLUMNS, _MIN_COLUMNS = 8, 32


class DetectorKind(enum.Enum):
    """The four geometric-mean decision rules."""

    GM_PARTIAL_SINGLE = "partial-single"
    GM_FULL_SINGLE = "full-single"
    GM_PARTIAL_MULTI = "partial-multi"
    GM_FULL_MULTI = "full-multi"

    @property
    def is_full(self) -> bool:
        return self in (DetectorKind.GM_FULL_SINGLE, DetectorKind.GM_FULL_MULTI)

    @property
    def is_single(self) -> bool:
        return self in (DetectorKind.GM_PARTIAL_SINGLE, DetectorKind.GM_FULL_SINGLE)


class Outcome(enum.Enum):
    TARGET_ABSENT = "absent"
    TARGET_PRESENT = "present"


@dataclass(frozen=True)
class Decision:
    """Binary outcome plus the log-domain margin (ln LHS - ln RHS)."""

    outcome: Outcome
    margin: float

    @classmethod
    def from_margin(cls, margin: float) -> "Decision":
        outcome = Outcome.TARGET_PRESENT if margin > 0.0 else Outcome.TARGET_ABSENT
        return cls(outcome, float(margin))

    def __bool__(self) -> bool:
        return self.outcome is Outcome.TARGET_PRESENT


@dataclass(frozen=True)
class Window:
    """One detection instance: N cell-under-test values and M reference values.

    N and M are always taken from the array lengths; they are never passed
    separately, which rules out length/parameter mismatches.
    """

    cut: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        for name in ("cut", "reference"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64))
            if arr.ndim != 1 or arr.size < 1:
                raise ParameterDomainError(f"{name} must be a non-empty 1-D sequence")
            arr = _check_batch(arr[None, :], name)[0].copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_cut(self) -> int:
        return self.cut.size

    @property
    def m_ref(self) -> int:
        return self.reference.size


def _check_window(kind: DetectorKind, n_cut, m_ref) -> tuple[int, int]:
    """Validated (n_cut, m_ref) of ``kind``; the single-pulse kinds have one
    cut cell."""
    _check_instance("kind", kind, DetectorKind)
    n, m = _check_int("n_cut", n_cut), _check_int("m_ref", m_ref)
    if kind.is_single and n != 1:
        raise ParameterDomainError(f"{kind.value} requires n_cut == 1")
    return n, m


def _check_batch(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ParameterDomainError(f"{name} must be a (trials, cells) array")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise ParameterDomainError(f"{name} values must be strictly positive and finite")
    return arr


def _row_reduce(op: np.ufunc, cells: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``op.reduce(cells, axis=1, out=out)`` exactly, for ``np.add`` or
    ``np.minimum``; by columns below that ufunc's column threshold."""
    if cells.shape[1] >= (_SUM_COLUMNS if op is np.add else _MIN_COLUMNS):
        return op.reduce(cells, axis=1, out=out)
    if out is None:
        out = np.empty(cells.shape[0])
    np.copyto(out, cells[:, 0])
    for column in cells.T[1:]:
        op(out, column, out=out)
    return out


def margins_partial_multi(cut, reference, tau, scale) -> np.ndarray:
    """Log-domain margins of the scale-weighted rule for a batch of windows.

    ``cut`` is (trials, N), ``reference`` is (trials, M).  The margin of one
    window is ``sum(ln X) - [(N - M*tau) ln scale + tau sum(ln Z)]``.
    """
    cut = _check_batch(cut, "cut")
    reference = _check_batch(reference, "reference")
    tau, scale = _check_tau(tau), _check_positive("scale", scale)
    n, m = cut.shape[1], reference.shape[1]
    rhs = (n - m * tau) * math.log(scale) + tau * _row_reduce(
        np.add, np.log(reference))
    return _row_reduce(np.add, np.log(cut)) - rhs


def margins_full_multi(cut, reference, tau) -> np.ndarray:
    """Log-domain margins of the minimum-anchored rule for a batch of windows."""
    cut = _check_batch(cut, "cut")
    reference = _check_batch(reference, "reference")
    tau = _check_tau(tau)
    n, m = cut.shape[1], reference.shape[1]
    log_ref = np.log(reference)
    rhs = ((n - m * tau) * _row_reduce(np.minimum, log_ref)
           + tau * _row_reduce(np.add, log_ref))
    return _row_reduce(np.add, np.log(cut)) - rhs


def _single_cut(window: Window) -> Window:
    _check_instance("window", window, Window)
    if window.n_cut != 1:
        raise ParameterDomainError(
            f"single-pulse detector requires exactly one cell under test, "
            f"got {window.n_cut}"
        )
    return window


def gm_partial_single(window: Window, tau: float, scale: float) -> Decision:
    """Single-pulse rule with known clutter scale: Z0 vs scale^(1-M*tau) * prod Z_j^tau."""
    return gm_partial_multi(_single_cut(window), tau, scale)


def gm_full_single(window: Window, tau: float) -> Decision:
    """Single-pulse rule anchored on the reference minimum (fully CFAR)."""
    return gm_full_multi(_single_cut(window), tau)


def gm_partial_multi(window: Window, tau: float, scale: float) -> Decision:
    """Multi-pulse rule with known clutter scale: prod X_i vs scale^(N-M*tau) * prod Z_j^tau."""
    _check_instance("window", window, Window)
    margin = margins_partial_multi(window.cut[None, :], window.reference[None, :],
                                   tau, scale)[0]
    return Decision.from_margin(margin)


def gm_full_multi(window: Window, tau: float) -> Decision:
    """Multi-pulse rule anchored on the reference minimum (fully CFAR)."""
    _check_instance("window", window, Window)
    margin = margins_full_multi(window.cut[None, :], window.reference[None, :], tau)[0]
    return Decision.from_margin(margin)
