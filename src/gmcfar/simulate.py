"""End-to-end Pareto-domain simulation of the detectors.

Unlike the dual-domain oracle, this module draws actual Pareto clutter,
evaluates the real detector margins, and counts rejections, so it exercises
the same code path a user of :mod:`gmcfar.detectors` runs.  The CFAR grid
check sweeps the clutter parameters and tests rejection-count homogeneity
with a Pearson chi-square.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from .clutter import ParetoParams
from .detectors import (DetectorKind, _check_window, margins_full_multi,
                        margins_partial_multi)
from .errors import (_U64, ParameterDomainError, _check_instance, _check_int,
                     _check_positive, _check_tau)
from .oracles import EstimateWithCI, _mc_sum
from .rng import RandomStream, stable_u64

# Pass threshold for the chi-square homogeneity p-value.
HOMOGENEITY_ALPHA = 0.001


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One detector configuration swept over a grid of clutter parameters."""

    kind: DetectorKind
    n_cut: int
    m_ref: int
    tau: float
    params_grid: tuple[ParetoParams, ...]
    trials: int
    seed: int

    def __post_init__(self):
        _check_window(self.kind, self.n_cut, self.m_ref)
        _check_tau(self.tau)
        _check_int("trials", self.trials)
        _check_int("seed", self.seed, 0, _U64)
        object.__setattr__(self, "params_grid", tuple(self.params_grid))
        if not self.params_grid:
            raise ParameterDomainError("params_grid must be non-empty")


def empirical_pfa(kind: DetectorKind, n_cut: int, m_ref: int, tau,
                  params: ParetoParams, trials: int, seed: int = 0, *,
                  stream_id: int = 0,
                  detector_scale: Optional[float] = None) -> EstimateWithCI:
    """Rejection fraction of a detector over simulated H0 windows.

    Every cell is i.i.d. Pareto(params).  The scale-weighted kinds use
    ``params.scale`` as the detector's beta unless ``detector_scale``
    overrides it (useful for studying model mismatch).
    """
    n, m = _check_window(kind, n_cut, m_ref)
    tau = _check_tau(tau)
    _check_instance("params", params, ParetoParams)
    trials = _check_int("trials", trials)
    seed = _check_int("seed", seed, 0, _U64)
    scale = (params.scale if detector_scale is None
             else _check_positive("detector_scale", detector_scale))

    base = RandomStream(seed, stream_id).child("pareto", kind.value, n, m)
    inv_shape, log_scale = 1.0 / params.shape, np.log(params.scale)

    def count(cut: np.ndarray, ref: np.ndarray) -> int:
        # Pareto = exp(log(beta) + Exp(1)/alpha), formed in place.
        for cells in (cut, ref):
            cells *= inv_shape
            cells += log_scale
            np.exp(cells, out=cells)
        margins = (margins_full_multi(cut, ref, tau) if kind.is_full
                   else margins_partial_multi(cut, ref, tau, scale))
        return int(np.count_nonzero(margins > 0.0))

    return EstimateWithCI(_mc_sum(base, n, m, trials, count), trials, seed)


@dataclasses.dataclass(frozen=True)
class CfarGridPoint:
    params: ParetoParams
    result: EstimateWithCI

    def row(self) -> dict:
        """The point's seven output fields, in written order."""
        r = self.result
        return {"alpha": self.params.shape, "beta": self.params.scale,
                "trials": r.trials, "rejections": r.successes,
                "estimate": r.estimate, "ci_low": r.ci_low,
                "ci_high": r.ci_high}


@dataclasses.dataclass(frozen=True)
class CfarGridReport:
    """Per-point estimates of one swept configuration, and the omnibus
    homogeneity test derived from their counts.

    The test is a Pearson chi-square (no continuity correction) on the
    2 x k table of rejection counts; it passes when p > 0.001.
    """

    spec: SweepSpec
    points: tuple[CfarGridPoint, ...]
    chi2_statistic: float = dataclasses.field(init=False)
    dof: int = dataclasses.field(init=False)
    p_value: float = dataclasses.field(init=False)
    passed: bool = dataclasses.field(init=False)

    def __post_init__(self):
        if len(self.points) < 2:
            raise ParameterDomainError("a CFAR grid report needs >= 2 points")
        observed = np.array(
            [[p.result.successes for p in self.points],
             [p.result.trials - p.result.successes for p in self.points]],
            dtype=np.float64)
        totals = observed.sum(axis=1, keepdims=True)
        dof = len(self.points) - 1
        if not totals.all():
            # Degenerate table: identical all-or-nothing counts are trivially
            # homogeneous; chi-square is undefined there.
            statistic, p_value = 0.0, 1.0
        else:
            # Expected counts from the margins.  The operations follow
            # scipy.stats.chi2_contingency, so the two agree to the bit.
            expected = (totals * observed.sum(axis=0, keepdims=True)
                        / observed.sum())
            statistic = ((observed - expected) ** 2 / expected).sum()
            # Imported here so that simulating alone never loads scipy.
            from scipy.special import chdtrc
            p_value = chdtrc(dof, statistic)
        derive = functools.partial(object.__setattr__, self)
        derive("chi2_statistic", float(statistic))
        derive("dof", dof)
        derive("p_value", float(p_value))
        derive("passed", bool(p_value > HOMOGENEITY_ALPHA))

    def _to_dict(self) -> dict:
        """The JSON object ``verify`` embeds for this report."""
        spec = self.spec
        return {
            "kind": spec.kind.value,
            "n_cut": spec.n_cut,
            "m_ref": spec.m_ref,
            "tau": spec.tau,
            "trials": spec.trials,
            "seed": spec.seed,
            "points": [point.row() for point in self.points],
            "chi_square": {
                "statistic": self.chi2_statistic,
                "dof": self.dof,
                "p_value": self.p_value,
                "passed": self.passed,
            },
        }


def cfar_grid_check(spec: SweepSpec) -> CfarGridReport:
    """Estimate the Pfa at every clutter grid point and test homogeneity.

    Each point runs on its own sub-stream derived from its grid index, so
    points are independent and the whole report is reproducible.  The
    report needs at least two grid points.
    """
    return CfarGridReport(spec, tuple(
        CfarGridPoint(params, empirical_pfa(
            spec.kind, spec.n_cut, spec.m_ref, spec.tau, params,
            spec.trials, spec.seed,
            stream_id=stable_u64("cfar-point", index)))
        for index, params in enumerate(spec.params_grid)))
