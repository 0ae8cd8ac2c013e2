"""End-to-end Pareto-domain simulation of the detectors, and ``verify``.

Unlike the dual-domain oracle, this module draws actual Pareto clutter,
evaluates the real detector margins, and counts rejections, so it exercises
the same code path a user of :mod:`gmcfar.detectors` runs, on clutter made
by the one Pareto map of :mod:`gmcfar.clutter`.  The CFAR grid check sweeps
the clutter parameters and tests rejection-count homogeneity with a Pearson
chi-square.  ``verify`` runs every verification stage into a
``VerifyReport``, which derives its outcome and summary from them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Optional, Sequence

import numpy as np

from .clutter import ParetoParams, _check_drawable, _pareto_from_dual
from .detectors import (DetectorKind, _check_window, margins_full_multi,
                        margins_partial_multi)
from .errors import (_U64, ParameterDomainError, _check_instance, _check_int,
                     _check_positive, _check_tau)
from .oracles import (_BATCH_CELLS, _CLOSED_FORM_RTOL, AdjudicationReport,
                      EstimateWithCI, _closed_form, _variants,
                      adjudicate_kinds, default_grid)
from .rng import RandomStream, stable_u64

# Pass threshold for the chi-square homogeneity p-value.
HOMOGENEITY_ALPHA = 0.001

_VERIFY_SCHEMA_VERSION = 1

# Clutter grid of the CFAR homogeneity stage of `verify`.
_CFAR_PARAMS = tuple(ParetoParams(shape=a, scale=b) for a in (2.0, 5.0, 10.0)
                     for b in (0.01, 1.0, 100.0))


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
    overrides it (useful for studying model mismatch).  Windows are drawn
    in row-major batches of at most ``_BATCH_CELLS`` cells and at least one
    window from the ``cut`` and ``ref`` streams; window i always reads the
    same stream indices, so the count does not depend on the batch.  Clutter
    whose variates can exceed the double range is refused before any draw.
    """
    n, m = _check_window(kind, n_cut, m_ref)
    tau = _check_tau(tau)
    _check_instance("params", params, ParetoParams)
    trials = _check_int("trials", trials)
    seed = _check_int("seed", seed, 0, _U64)
    scale = (params.scale if detector_scale is None
             else _check_positive("detector_scale", detector_scale))
    _check_drawable(params)

    base = RandomStream(seed, stream_id).child("pareto", kind.value, n, m)
    s_cut, s_ref = base.child("cut"), base.child("ref")
    batch = max(1, min(trials, _BATCH_CELLS // (n + m)))
    successes = 0
    for done in range(0, trials, batch):
        size = min(batch, trials - done)
        # Bound only once both are drawn, so the last batch outlives the next
        # draw and the allocator reuses its pages rather than fault in new.
        cut, ref = (
            _pareto_from_dual(params, s_cut.exponentials(
                n * size, start=n * done).reshape(size, n)),
            _pareto_from_dual(params, s_ref.exponentials(
                m * size, start=m * done).reshape(size, m)))
        successes += int(np.count_nonzero(
            (margins_full_multi(cut, ref, tau) if kind.is_full
             else margins_partial_multi(cut, ref, tau, scale)) > 0.0))
    return EstimateWithCI(successes, trials)


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


def _reduction_error(m_grid, tau_grid) -> float:
    """Worst relative error of the reduction identities: each single-pulse
    closed form equals its multi-pulse form at one cut cell.  Errors are
    relative to max(form, smallest normal double), as forms may underflow."""
    pairs = ((DetectorKind.GM_PARTIAL_SINGLE, DetectorKind.GM_PARTIAL_MULTI),
             (DetectorKind.GM_FULL_SINGLE, DetectorKind.GM_FULL_MULTI))
    worst = 0.0
    for m in m_grid:
        for tau in tau_grid:
            for single, multi in pairs:
                for variant in _variants(single):
                    got = _closed_form(multi, 1, m, tau, variant)
                    want = _closed_form(single, 1, m, tau, variant)
                    worst = max(worst, abs(got - want)
                                / max(want, sys.float_info.min))
    return worst


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """The stages of one ``verify`` run and what derives from them: the
    ``summary`` lines ``gmcfar verify`` prints, and ``passed``, which needs
    agreeing oracles, homogeneous CFAR grids and reductions within 1e-12."""

    reports: tuple[AdjudicationReport, ...]
    cfar: tuple[CfarGridReport, ...]
    reduction_error: float
    passed: bool = dataclasses.field(init=False)
    summary: tuple[str, ...] = dataclasses.field(init=False)

    def __post_init__(self):
        lines = []
        for report in self.reports:
            oracles = "ok" if report.internally_consistent else "DISAGREE"
            lines.append(f"{report.detector.value}: verdict={report.verdict} "
                         f"oracles={oracles} points={len(report.points)}")
            lines += [f"  oracle mismatch at n={p.n_cut} m={p.m_ref} "
                      f"tau={p.tau:.9g}: mc={p.mc.estimate:.9g} "
                      f"quadrature={p.quadrature:.9g}"
                      for p in report.points if not p.oracle_consistent]
        for cfar in self.cfar:
            spec = cfar.spec
            lines.append(
                f"cfar {spec.kind.value} n={spec.n_cut} m={spec.m_ref} "
                f"tau={spec.tau:.9g}: chi2={cfar.chi2_statistic:.9g} "
                f"p={cfar.p_value:.9g} {'pass' if cfar.passed else 'FAIL'}")
        reduced = self.reduction_error <= _CLOSED_FORM_RTOL
        lines.append(f"reductions: max_rel_error={self.reduction_error:.9g} "
                     f"{'pass' if reduced else 'FAIL'}")
        passed = (all(r.internally_consistent for r in self.reports)
                  and all(c.passed for c in self.cfar) and reduced)
        lines.append("verify: PASS" if passed else "verify: FAIL")
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "summary", tuple(lines))

    def _to_dict(self) -> dict:
        """The JSON document ``gmcfar verify`` writes."""
        return {
            "schema_version": _VERIFY_SCHEMA_VERSION,
            "seed": self.reports[0].seed,
            "trials": self.reports[0].trials,
            "cfar_trials": self.cfar[0].spec.trials,
            "tol": self.reports[0].tol,
            "reports": {r.detector.value: r._to_dict() for r in self.reports},
            "cfar": [c._to_dict() for c in self.cfar],
            "reductions": {"max_rel_error": self.reduction_error,
                           "rtol": _CLOSED_FORM_RTOL,
                           "passed": self.reduction_error
                           <= _CLOSED_FORM_RTOL},
            "passed": self.passed,
        }


def verify(n_grid: Sequence[int], m_grid: Sequence[int],
           tau_grid: Sequence[float], trials: int = 10_000_000,
           cfar_trials: int = 1_000_000, seed: int = 0,
           tol: float = 1e-10) -> VerifyReport:
    """Adjudicate every kind on its default grid of these values, test CFAR
    homogeneity of both full kinds over a 3 x 3 clutter grid and the
    reduction identities over the M and tau values, checking all first."""
    cfar_trials = _check_int("cfar_trials", cfar_trials)
    reports = tuple(adjudicate_kinds(
        {kind: default_grid(kind, n_grid, m_grid, tau_grid)
         for kind in DetectorKind}, trials, seed, tol).values())
    cfar = tuple(cfar_grid_check(SweepSpec(
        kind, n_cut, m_ref, 1.0, _CFAR_PARAMS, cfar_trials, seed))
        for kind, n_cut, m_ref in ((DetectorKind.GM_FULL_SINGLE, 1, 8),
                                   (DetectorKind.GM_FULL_MULTI, 2, 8)))
    return VerifyReport(reports, cfar, _reduction_error(m_grid, tau_grid))
