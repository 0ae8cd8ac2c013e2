"""Geometric-mean CFAR detectors for Pareto Type I clutter.

Library layout:

* :mod:`gmcfar.clutter` -- Pareto distribution primitives and sampling;
* :mod:`gmcfar.detectors` -- the four log-domain decision rules;
* :mod:`gmcfar.pfa` -- closed-form false-alarm probabilities (with the
  competing published and re-derived variants where they differ);
* :mod:`gmcfar.oracles` -- Monte Carlo and quadrature oracles plus the
  adjudication that decides which closed forms to trust;
* :mod:`gmcfar.simulate` -- end-to-end Pareto-domain simulation, the CFAR
  homogeneity check, and ``verify``, whose ``VerifyReport`` holds every stage;
* :mod:`gmcfar.solver` -- threshold-multiplier inversion;
* :mod:`gmcfar.cli` -- the ``gmcfar`` tool's flag parsing and writing;
* :mod:`gmcfar.errors` -- the exception types and the argument checks every
  layer shares.
"""

from .clutter import (ParetoParams, dual_to_pareto, pareto_cdf,
                      pareto_quantile, pareto_to_dual, sample_pareto)
from .detectors import (Decision, DetectorKind, Outcome, Window,
                        gm_full_multi, gm_full_single, gm_partial_multi,
                        gm_partial_single, margins_full_multi,
                        margins_partial_multi)
from .errors import (GmCfarError, InconsistentReportError,
                     NumericalFailureError, ParameterDomainError,
                     QuantileOverflowError, UnreachableTargetError)
from .oracles import (AdjudicationReport, EstimateWithCI, ExcessShape,
                      GridPointRecord, adjudicate, adjudicate_kinds,
                      default_grid, mc_dual_pfa, quadrature_pfa_full_multi,
                      quadrature_pfa_partial_multi, validated_pfa,
                      wilson_interval)
from .pfa import (PfaFormulaVariant, gamma_tail_poisson_sum,
                  pfa_gm_full_multi, pfa_gm_full_single, pfa_gm_partial_multi,
                  pfa_gm_partial_single)
from .rng import RandomStream, stable_u64
from .simulate import (CfarGridPoint, CfarGridReport, SweepSpec, VerifyReport,
                       cfar_grid_check, empirical_pfa, verify)
from .solver import SolverConfig, solve_tau_numeric, solve_tau_partial_single

__version__ = "0.1.0"

__all__ = [
    "AdjudicationReport",
    "CfarGridPoint",
    "CfarGridReport",
    "Decision",
    "DetectorKind",
    "EstimateWithCI",
    "ExcessShape",
    "GmCfarError",
    "GridPointRecord",
    "InconsistentReportError",
    "NumericalFailureError",
    "Outcome",
    "ParameterDomainError",
    "ParetoParams",
    "PfaFormulaVariant",
    "QuantileOverflowError",
    "RandomStream",
    "SolverConfig",
    "SweepSpec",
    "UnreachableTargetError",
    "VerifyReport",
    "Window",
    "adjudicate",
    "adjudicate_kinds",
    "cfar_grid_check",
    "default_grid",
    "dual_to_pareto",
    "empirical_pfa",
    "gamma_tail_poisson_sum",
    "gm_full_multi",
    "gm_full_single",
    "gm_partial_multi",
    "gm_partial_single",
    "margins_full_multi",
    "margins_partial_multi",
    "mc_dual_pfa",
    "pareto_cdf",
    "pareto_quantile",
    "pareto_to_dual",
    "pfa_gm_full_multi",
    "pfa_gm_full_single",
    "pfa_gm_partial_multi",
    "pfa_gm_partial_single",
    "quadrature_pfa_full_multi",
    "quadrature_pfa_partial_multi",
    "sample_pareto",
    "solve_tau_numeric",
    "solve_tau_partial_single",
    "stable_u64",
    "validated_pfa",
    "verify",
    "wilson_interval",
    "__version__",
]
