"""Exception types shared across the package, and the argument checks
every layer validates through: each raises :class:`ParameterDomainError` or
returns the value in its canonical type.  A bool is not a number, and an int
beyond the double range is not a finite real.
"""

import math

import numpy as np

# The largest seed or stream id: seeds and ids are unsigned 64-bit.
_U64 = (1 << 64) - 1


class GmCfarError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(GmCfarError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class QuantileOverflowError(GmCfarError, OverflowError):
    """A quantile evaluates beyond the representable floating-point range."""


class NumericalFailureError(GmCfarError, RuntimeError):
    """A numerical routine failed to meet its requested tolerance.

    ``achieved`` carries the best error bound (or bracket) obtained.
    """

    def __init__(self, message: str, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class UnreachableTargetError(NumericalFailureError):
    """No threshold multiplier can reach the requested false-alarm rate
    (the detector's Pfa does not depend on tau in this configuration)."""


class InconsistentReportError(GmCfarError, RuntimeError):
    """An adjudication report is internally inconsistent (its oracles
    disagree) and cannot be used to dispatch Pfa evaluations."""


def _is_real(value) -> bool:
    """True for a finite int or float that is not a bool."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int beyond the double range
        return False


def _check_int(name: str, value, low: int = 1, high=None) -> int:
    """``value`` as an int in [low, high] (no upper bound when None)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterDomainError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ParameterDomainError(f"{name} must {bound}, got {value}")
    return int(value)


def _check_tau(tau, name: str = "tau") -> float:
    """``tau``, or the argument ``name``, as a finite float >= 0."""
    if not (_is_real(tau) and tau >= 0.0):
        raise ParameterDomainError(f"{name} must be finite and >= 0, got {tau!r}")
    return float(tau)


def _check_positive(name: str, value) -> float:
    """``value`` as a finite float > 0."""
    if not (_is_real(value) and value > 0.0):
        raise ParameterDomainError(
            f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _check_instance(name: str, value, cls: type) -> None:
    """Refuse a ``value`` that is not an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ParameterDomainError(
            f"{name} must be of type {cls.__name__}, got {value!r}")
