"""Pareto Type I clutter primitives and the exponential dual transform.

The Pareto Type I law has CDF ``1 - (scale/t)**shape`` for ``t >= scale``.
Analysis and sampling both route through its exponential dual: if ``E`` is a
unit exponential then ``scale * exp(E / shape)`` is Pareto, and the log
transform inverts this exactly.  That map is formed in one place,
``_pareto_from_dual``: the quantile, the dual transform, the sampler and
:func:`gmcfar.simulate.empirical_pfa` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ParameterDomainError, QuantileOverflowError,
                     _check_instance, _check_positive)
from .rng import RandomStream

# The largest unit exponential `RandomStream.exponentials` returns: -log1p(-u)
# at the largest uniform below 1, 1 - 2**-53 (53 ln 2).
_MAX_EXPONENTIAL = float(-np.log1p(-np.nextafter(1.0, 0.0)))


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


def _pareto_from_dual(params: ParetoParams, cells: np.ndarray) -> np.ndarray:
    """Overwrite the unit exponentials ``cells``, a float64 array of any
    shape, with the Pareto variates scale * exp(cells / shape)."""
    np.divide(cells, params.shape, out=cells)
    np.exp(cells, out=cells)
    np.multiply(cells, params.scale, out=cells)
    return cells


def _finite_pareto(params: ParetoParams, e, template):
    """``_pareto_from_dual`` of a copy of ``e``, shaped like ``template``;
    a variate beyond the double range raises QuantileOverflowError."""
    with np.errstate(over="ignore"):
        out = _pareto_from_dual(params, np.array(e, dtype=np.float64))
    if not np.all(np.isfinite(out)):
        raise QuantileOverflowError(
            "Pareto variate exceeds the representable floating-point range")
    return _scalar_like(out, template)


def _check_drawable(params: ParetoParams) -> None:
    """Refuse clutter whose largest drawable variate overflows."""
    try:
        _finite_pareto(params, _MAX_EXPONENTIAL, _MAX_EXPONENTIAL)
    except QuantileOverflowError:
        raise ParameterDomainError(
            f"Pareto variates with alpha={params.shape!r} and "
            f"beta={params.scale!r} can exceed the double range: "
            f"beta * exp({_MAX_EXPONENTIAL:.4f} / alpha) overflows") from None


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
    return _finite_pareto(params, -np.log1p(-arr), u)


def dual_to_pareto(params: ParetoParams, x_star):
    """Map unit exponentials to Pareto variates: scale * exp(x_star / shape).

    Raises :class:`QuantileOverflowError` beyond the double range.
    """
    _check_instance("params", params, ParetoParams)
    arr = _as_float_array(x_star, "x_star")
    if np.any(arr < 0.0):
        raise ParameterDomainError("x_star must be non-negative")
    return _finite_pareto(params, arr, x_star)


def pareto_to_dual(params: ParetoParams, z):
    """Inverse of :func:`dual_to_pareto`: shape * log(z / scale) for z >= scale."""
    _check_instance("params", params, ParetoParams)
    arr = _as_float_array(z, "z")
    if np.any(arr < params.scale):
        raise ParameterDomainError("z must be >= scale")
    return _scalar_like(params.shape * np.log(arr / params.scale), z)


def sample_pareto(params: ParetoParams, stream: RandomStream, count: int) -> np.ndarray:
    """i.i.d. Pareto Type I variates via the inverse-CDF dual route; clutter
    whose variates can exceed the double range is refused before any draw."""
    _check_instance("params", params, ParetoParams)
    _check_instance("stream", stream, RandomStream)
    _check_drawable(params)
    return _pareto_from_dual(params, stream.exponentials(count))
