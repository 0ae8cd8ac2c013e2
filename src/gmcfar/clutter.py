"""Pareto Type I clutter primitives and the exponential dual transform.

The Pareto Type I law has CDF ``1 - (scale/t)**shape`` for ``t >= scale``.
Analysis and sampling both route through its exponential dual: if ``E`` is a
unit exponential then ``scale * exp(E / shape)`` is Pareto, and the log
transform inverts this exactly.  Sampling is inverse-CDF through that dual,
so the code path exercised by the tests is the same representation the
detector derivations rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterDomainError, QuantileOverflowError,
                     _check_instance, _check_positive)
from .rng import RandomStream

_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class ParetoParams:
    """Shape/scale pair of a Pareto Type I distribution."""

    shape: float
    scale: float

    def __post_init__(self):
        for name in ("shape", "scale"):
            _check_positive(f"Pareto {name}", getattr(self, name))


def _as_float_array(x, name: str):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParameterDomainError(f"{name} must be finite")
    return arr


def _scalar_like(result: np.ndarray, template) -> "float | np.ndarray":
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(result)
    return result


def pareto_cdf(params: ParetoParams, t):
    """P(Z <= t) for Pareto(shape, scale); zero below the support point."""
    _check_instance("params", params, ParetoParams)
    arr = _as_float_array(t, "t")
    with np.errstate(divide="ignore"):
        out = np.where(arr < params.scale, 0.0,
                       -np.expm1(params.shape * np.log(params.scale / np.maximum(arr, params.scale))))
    return _scalar_like(out, t)


def pareto_quantile(params: ParetoParams, u):
    """Inverse CDF: scale * (1 - u)**(-1/shape) for u in [0, 1).

    Raises :class:`QuantileOverflowError` when the result exceeds the double
    range (u extremely close to 1), rather than returning infinity.
    """
    _check_instance("params", params, ParetoParams)
    arr = np.asarray(u, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise ParameterDomainError("u must lie in [0, 1)")
    log_q = math.log(params.scale) - np.log1p(-arr) / params.shape
    if np.any(log_q > _LOG_DBL_MAX):
        raise QuantileOverflowError(
            "quantile exceeds the representable floating-point range"
        )
    return _scalar_like(np.exp(log_q), u)


def dual_to_pareto(params: ParetoParams, x_star):
    """Map unit exponentials to Pareto variates: scale * exp(x_star / shape)."""
    _check_instance("params", params, ParetoParams)
    arr = _as_float_array(x_star, "x_star")
    if np.any(arr < 0.0):
        raise ParameterDomainError("x_star must be non-negative")
    return _scalar_like(params.scale * np.exp(arr / params.shape), x_star)


def pareto_to_dual(params: ParetoParams, z):
    """Inverse of :func:`dual_to_pareto`: shape * log(z / scale) for z >= scale."""
    _check_instance("params", params, ParetoParams)
    arr = _as_float_array(z, "z")
    if np.any(arr < params.scale):
        raise ParameterDomainError("z must be >= scale")
    return _scalar_like(params.shape * np.log(arr / params.scale), z)


def sample_pareto(params: ParetoParams, stream: RandomStream, count: int) -> np.ndarray:
    """i.i.d. Pareto Type I variates via the inverse-CDF dual route."""
    _check_instance("params", params, ParetoParams)
    _check_instance("stream", stream, RandomStream)
    return params.scale * np.exp(stream.exponentials(count) / params.shape)
