"""Brute-force oracles and the adjudication workflow.

Every closed form in :mod:`gmcfar.pfa` can be checked against two independent
routes: Monte Carlo in the exponential dual domain, and deterministic
quadrature of the underlying gamma-tail integrals (whose incomplete gamma
comes from scipy, a different algorithm than the Poisson sum).  The
quadrature is a tensor Gauss-Laguerre rule over the gamma variables, each
scaled so the rule's weight carries its integrand's decay, and checked for
convergence at two node counts on every call.  For the minimum-anchored
detectors it is evaluated under both candidate shapes of the
excess-over-minimum statistic, so the competing closed forms each have a
deterministic counterpart.

``adjudicate`` gathers that evidence over a grid; its report derives at most
one verdict per detector from it, as does a report loaded from JSON.
``adjudicate_kinds`` gathers several kinds' reports at once.  Monte Carlo
counts are keyed by the cell column, not the window or the detector kind:
all four rules test sum X, sum Y and min Y of exponential windows, and
window (N, M) reads the first N cut and M reference columns of one draw.  So
every window and kind of a grid counts on one draw, and a single-pulse
estimate equals its multi-pulse estimate at N = 1.  ``validated_pfa`` is the
dispatch the solver and CLI bind to.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import operator
from typing import Mapping, Optional, Sequence

import numpy as np

from . import pfa as _pfa
from .detectors import DetectorKind, _check_window
from .errors import (_U64, InconsistentReportError, NumericalFailureError,
                     ParameterDomainError, _check_instance, _check_int,
                     _check_tau, _is_real)
from .pfa import PfaFormulaVariant
from .rng import RandomStream

# 95% two-sided normal quantile used by the Wilson interval.
_Z95 = 1.959963984540054

# Doubles a Monte Carlo batch keeps alive: 2 MiB, sized for cache so that a
# batch's draw, reductions and tau comparisons stay there.  Here it bounds
# the dual oracle's column batches; ``simulate.empirical_pfa`` sizes its
# row-major batches by it too.  Results do not depend on it.
_BATCH_CELLS = 1 << 18

# Verdicts below this trial count are withheld: the preconditions for
# separating candidate forms assume at least 10**6 trials.
_VERDICT_MIN_TRIALS = 10 ** 6

# Gauss-Laguerre nodes an axis: the first rule, and the cap (exact for the
# gamma tail of a 10**3-cell window).  Successive rules of a 10**3-cell
# window differ by up to 3e-13 from rounding alone, so they count as agreed
# within 1e-12 even where tol asks for less.
_FIRST_NODES, _MAX_NODES, _AGREEMENT_FLOOR = 8, 1024, 1e-12

DEFAULT_TAUS = (0.1, 0.5, 1.0, 2.0, 5.0)
DEFAULT_N_CUT = (1, 2, 4)
DEFAULT_M_REF = (1, 2, 4, 8, 16)

_REPORT_SCHEMA_VERSION = 1

# libm pow/log1p may differ by one ulp between machines; no verdict moves.
_CLOSED_FORM_RTOL = 1e-12

# The JSON fields of a report and of each of its points, in written order,
# with the types each may hold (checked exactly, so true is not a count).
# A point's ``mc_*`` fields are the attributes of its Monte Carlo estimate.
_NUM, _OPT_NUM = (int, float), (int, float, type(None))
_REPORT_FIELDS = dict(
    detector=(str,), seed=(int,), trials=(int,), tol=_NUM, points=(list,),
    internally_consistent=(bool,), insufficient_precision=(bool,),
    validated_variant=(str, type(None)), verdict=(str,))
_POINT_FIELDS = dict(
    n_cut=(int,), m_ref=(int,), tau=_NUM, mc_estimate=_NUM, mc_ci_low=_NUM,
    mc_ci_high=_NUM, mc_successes=(int,), quadrature=_NUM,
    quadrature_excess_m=_OPT_NUM, paper=_NUM, candidate=_OPT_NUM,
    oracle_consistent=(bool,), paper_verdict=(str,),
    candidate_verdict=(str,), discriminates=(bool,),
    insufficient_precision=(bool,))
_report_values = operator.attrgetter(*_REPORT_FIELDS)
_point_values = operator.attrgetter(*(f"mc.{key[3:]}" if key[:3] == "mc_"
                                      else key for key in _POINT_FIELDS))


class ExcessShape(enum.Enum):
    """Gamma shape of the reference excess over its minimum.

    M_MINUS_ONE is the order-statistics result (sum of M-1 unit spacings);
    M reproduces the density the published derivation actually integrated.
    """

    M_MINUS_ONE = "m-minus-one"
    M = "m"


@dataclasses.dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo probability estimate with a 95% Wilson interval, both
    derived from the success count."""

    successes: int
    trials: int
    estimate: float = dataclasses.field(init=False)
    ci_low: float = dataclasses.field(init=False)
    ci_high: float = dataclasses.field(init=False)

    def __post_init__(self):
        low, high = wilson_interval(self.successes, self.trials)
        derive = functools.partial(object.__setattr__, self)
        derive("estimate", self.successes / self.trials)
        derive("ci_low", low)
        derive("ci_high", high)

    @property
    def sigma(self) -> float:
        """Normal-scale standard error implied by the Wilson interval."""
        return (self.ci_high - self.ci_low) / (2.0 * _Z95)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    trials = _check_int("trials", trials)
    successes = _check_int("successes", successes, 0, trials)
    p_hat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)
    ) / denom
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # At the boundary counts center - half is analytically 0 (resp. 1)
    # but rounds to either side of it; pin the endpoints so the interval
    # always brackets the point estimate.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return low, high


def _mc_dual_counts(rules: Sequence[tuple[bool, int, int, float]],
                    trials: int, seed: int) -> list[int]:
    """Success counts P(margin > 0), one per ``(full, n, m, tau)`` of
    ``rules``, all on one draw of per-column streams.  ``adjudicate_kinds``
    passes each distinct rule of its grids once and keys its per-rule
    evidence, this count and the rule's quadratures, by the same tuple.

    A ``full`` rule is the minimum-anchored sum X > (n - m tau) Ymin +
    tau sum Y, any other the scale-weighted sum X > tau sum Y.  Cut cell j
    of trial i is index i of the stream ``("dual", "cut", j)``, reference
    cell j index i of ``("dual", "ref", j)``, and window (n, m) reads the
    first n cut and the first m reference columns.  So a count depends on
    (seed, n, m, tau, trials) alone, not on the other rules or the batch:
    the detector kinds share one draw, a single-pulse count equals its
    multi-pulse count at N = 1, and tau-invariance fixtures hold exactly.

    A batch sums the columns left to right and keeps the running reference
    minimum.  It holds the cut sum at each n of ``rules`` and tests the rules
    of an m once the first m reference columns are in: tau sum Y once per
    tau, to which each full rule adds its anchor.  Rows a batch are sized by
    the rows kept alive, one cut sum per n and about six more, not by the
    window: every column costs one stream call a batch."""
    base = RandomStream(seed, 0).child("dual")
    at_n = {n: k for k, n in enumerate(sorted({n for _, n, _, _ in rules}))}
    at_m = {}
    for i, (full, n, m, tau) in enumerate(rules):
        at_m.setdefault(m, {}).setdefault(tau, []).append(
            (i, full, at_n[n], n - m * tau))
    cut = [base.child("cut", j) for j in range(max(at_n))]
    ref = [base.child("ref", j) for j in range(max(at_m))]
    rows = max(1, min(trials, _BATCH_CELLS // (len(at_n) + 6)))
    sums_x, stats = np.empty((len(at_n), rows)), np.empty((3, rows))
    hits = np.empty(rows, dtype=bool)
    counts = [0] * len(rules)
    for done in range(0, trials, rows):
        size = min(rows, trials - done)
        y_min, scaled, anchor = stats[:, :size]
        mask = hits[:size]
        for j, stream in enumerate(cut):
            column = stream.exponentials(size, start=done)
            sum_x = column if j == 0 else np.add(sum_x, column, out=sum_x)
            if j + 1 in at_n:
                np.copyto(sums_x[at_n[j + 1], :size], sum_x)
        for j, stream in enumerate(ref):
            column = stream.exponentials(size, start=done)
            if j == 0:
                sum_y = column
                np.copyto(y_min, column)
            else:
                np.add(sum_y, column, out=sum_y)
                np.minimum(y_min, column, out=y_min)
            for tau, tests in at_m.get(j + 1, {}).items():
                np.multiply(sum_y, tau, out=scaled)
                for i, full, k, weight in tests:
                    rhs = scaled
                    if full:
                        rhs = np.multiply(y_min, weight, out=anchor)
                        rhs += scaled
                    counts[i] += int(np.count_nonzero(
                        np.greater(sums_x[k, :size], rhs, out=mask)))
    return counts


def mc_dual_pfa(kind: DetectorKind, n_cut: int, m_ref: int, tau,
                trials: int, seed: int = 0) -> EstimateWithCI:
    """Estimate a detector's Pfa by Monte Carlo on unit exponentials.

    Works in the dual domain where every detector margin is a linear
    combination of exponential sums: the scale-weighted rules reject when
    sum X* > tau * sum Y*, the minimum-anchored rules when
    sum X* > (N - M tau) Y*min + tau * sum Y*.  The window reads the first
    N cut and M reference columns of the seed's draw, so the estimate equals
    the one ``adjudicate`` records at this point, and a single-pulse estimate
    equals the estimate of its multi-pulse kind at N = 1, success for
    success.
    """
    n_cut, m_ref = _check_window(kind, n_cut, m_ref)
    tau = _check_tau(tau)
    trials = _check_int("trials", trials)
    seed = _check_int("seed", seed, 0, _U64)
    [successes] = _mc_dual_counts([(kind.is_full, n_cut, m_ref, tau)],
                                  trials, seed)
    return EstimateWithCI(successes, trials)


def _check_tol(tol) -> float:
    if not (_is_real(tol) and 0.0 < tol <= 1e-6):
        raise ParameterDomainError(f"tol must lie in (0, 1e-6], got {tol!r}")
    return float(tol)


@functools.lru_cache(maxsize=256)
def _laguerre_rule(nodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the ``nodes``-point Gauss rule for the
    gamma(alpha + 1, 1) density, whose weights sum to 1.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    1969).  Each weight is the Christoffel number 1 / sum_j p_j(u)**2 over
    the orthonormal Laguerre polynomials, summed by their three-term
    recurrence with a running rescale, so it keeps its relative accuracy
    where it underflows or the eigenvectors' absolute 1e-16 would not do.
    """
    # Imported here so that gmcfar loads scipy only when it integrates.
    from scipy.linalg import eigh_tridiagonal

    j = np.arange(nodes, dtype=float)
    diag, off = 2.0 * j + alpha + 1.0, np.sqrt(j[1:] * (j[1:] + alpha))
    u = eigh_tridiagonal(diag, off, eigvals_only=True)
    log_scale = np.zeros(nodes)
    p_prev, p, squares = np.zeros(nodes), np.ones(nodes), np.ones(nodes)
    for i in range(nodes - 1):
        p_prev, p = p, ((u - diag[i]) * p - (off[i - 1] if i else 0.0)
                        * p_prev) / off[i]
        squares += p * p
        # A power of two rescales without rounding.
        big = np.where(np.abs(p) > 2.0 ** 332, 2.0 ** 332, 1.0)
        p_prev, p, squares = p_prev / big, p / big, squares / (big * big)
        log_scale += np.log(big)
    log_w = -(2.0 * log_scale + np.log(squares))
    u.flags.writeable = log_w.flags.writeable = False
    return u, log_w


def _gamma_mixture_tail(n: int, mixture, tol: float, context: str) -> float:
    """E[Q(n, sum_a rate_a W_a)] over independent W_a ~ gamma(shape_a, 1),
    the scipy gamma tail Q integrated by tensor Gauss-Laguerre.

    ``mixture`` holds the (shape, rate) pairs; W = 0 (shape 0) and rate 0
    add nothing.  With u = (1 + rate) W the Laguerre weight absorbs the
    decay of the gamma density and of Q, so each axis integrates
    Q(n, x) e**x, a polynomial in x = rate u / (1 + rate).  The rule doubles
    from ``_FIRST_NODES`` nodes an axis until two successive values agree
    within max(tol, ``_AGREEMENT_FLOOR``), relative.  Terms are summed from
    their logs; a Q that underflows counts as 0, which moves the value by
    less than the smallest normal double.
    """
    # Imported here so that gmcfar loads scipy only when it integrates.
    from scipy.special import gammaincc

    tol = max(tol, _AGREEMENT_FLOOR)
    previous, nodes = math.nan, _FIRST_NODES
    while nodes <= _MAX_NODES:
        x = log_w = 0.0
        for shape, rate in mixture:
            if shape and rate:
                u, lw = _laguerre_rule(nodes, shape - 1.0)
                xa = rate / (1.0 + rate) * u
                lw = lw + xa - shape * math.log1p(rate)
                x, log_w = np.add.outer(x, xa), np.add.outer(log_w, lw)
        with np.errstate(divide="ignore"):
            logs = log_w + np.log(gammaincc(n, x))
        peak = np.max(logs)
        log_value = (peak if peak == -math.inf
                     else peak + math.log(np.sum(np.exp(logs - peak))))
        # Agreement of the logs is relative agreement, also where the value
        # itself underflows.
        if (log_value == previous == -math.inf
                or abs(log_value - previous) <= tol):
            return math.exp(min(log_value, 0.0))
        previous, nodes = log_value, 2 * nodes
    raise NumericalFailureError(
        f"quadrature failed to converge for {context} with {nodes // 2} "
        "nodes an axis", achieved=abs(log_value - previous))


def quadrature_pfa_partial_multi(n_cut: int, m_ref: int, tau,
                                 tol: float = 1e-10) -> float:
    """P(W1 > tau W2), W1 ~ gamma(n_cut, 1), W2 ~ gamma(m_ref, 1), by
    integrating the scipy incomplete gamma against the gamma density of W2
    with a Gauss-Laguerre rule checked at two node counts."""
    n = _check_int("n_cut", n_cut)
    m = _check_int("m_ref", m_ref)
    tau = _check_tau(tau)
    tol = _check_tol(tol)
    return _gamma_mixture_tail(n, [(m, tau)], tol,
                               f"partial-multi n={n} m={m} tau={tau}")


def quadrature_pfa_full_multi(n_cut: int, m_ref: int, tau, tol: float = 1e-10,
                              excess_shape: ExcessShape = ExcessShape.M_MINUS_ONE,
                              ) -> float:
    """Pfa of the minimum-anchored rule by tensor Gauss-Laguerre quadrature.

    Conditions on the reference minimum T ~ Exp(m_ref) and the excess
    W2 ~ gamma(k, 1) with k chosen by ``excess_shape``; the rejection
    probability given both is the gamma tail Q(n_cut, n_cut*T + tau*W2).
    ``excess_shape=M_MINUS_ONE`` with m_ref=1 uses the degenerate W2 = 0.
    """
    n = _check_int("n_cut", n_cut)
    m = _check_int("m_ref", m_ref)
    tau = _check_tau(tau)
    tol = _check_tol(tol)
    _check_instance("excess_shape", excess_shape, ExcessShape)
    k = m - 1 if excess_shape is ExcessShape.M_MINUS_ONE else m
    # n*T is (n/m) times a unit exponential.
    return _gamma_mixture_tail(n, [(1, n / m), (k, tau)], tol,
                               f"full-multi n={n} m={m} tau={tau}")


@dataclasses.dataclass(frozen=True)
class GridPointRecord:
    """The evidence at one grid point of a kind, and the closed forms and
    verdicts derived from it.  A minimum-anchored kind's point holds its
    quadrature under both excess shapes, a scale-weighted kind's only one."""

    kind: DetectorKind
    n_cut: int
    m_ref: int
    tau: float
    mc: EstimateWithCI
    quadrature: float
    quadrature_excess_m: Optional[float]
    paper: float = dataclasses.field(init=False)
    candidate: Optional[float] = dataclasses.field(init=False)
    oracle_consistent: bool = dataclasses.field(init=False)
    paper_verdict: str = dataclasses.field(init=False)
    candidate_verdict: str = dataclasses.field(init=False)
    discriminates: bool = dataclasses.field(init=False)
    insufficient_precision: bool = dataclasses.field(init=False)

    def __post_init__(self):
        _check_window(self.kind, self.n_cut, self.m_ref)
        both = self.kind.is_full
        if (self.quadrature_excess_m is None) == both:
            raise ParameterDomainError(
                "report point field 'quadrature_excess_m' cannot be "
                f"{self.quadrature_excess_m!r} for {self.kind.value}")
        band = 4.0 * self.mc.sigma
        lo, hi = self.mc.estimate - band, self.mc.estimate + band

        def verdict_of(value: float) -> str:
            return "consistent" if lo <= value <= hi else "inconsistent"

        form = functools.partial(_closed_form, self.kind, self.n_cut,
                                 self.m_ref, self.tau)
        derive = functools.partial(object.__setattr__, self)
        derive("paper", form(PfaFormulaVariant.PAPER))
        derive("candidate", form(PfaFormulaVariant.CANDIDATE) if both else None)
        derive("oracle_consistent", lo <= self.quadrature <= hi)
        derive("paper_verdict", verdict_of(self.paper))
        derive("candidate_verdict", verdict_of(self.candidate) if both
               else "not-applicable")
        derive("discriminates",
               both and self.paper_verdict != self.candidate_verdict)
        derive("insufficient_precision",
               both and self.paper != self.candidate and not self.discriminates)


@dataclasses.dataclass(frozen=True)
class AdjudicationReport:
    """Grid-wide comparison of closed forms against the oracles.

    A variant is validated only when the report is internally consistent
    (Monte Carlo inside 4 sigma of the reference quadrature everywhere),
    trials reach 10**6, the variant sits inside the 4 sigma band at every
    point it evaluates, and the competing variant falls outside somewhere.
    ``verdict`` is one of ``paper``, ``candidate``, ``use-quadrature``,
    ``no-verdict-inconsistent-oracles`` or ``no-verdict-insufficient-trials``;
    ``validated_variant`` is set only for the first two.
    """

    detector: DetectorKind
    seed: int
    trials: int
    tol: float
    points: tuple[GridPointRecord, ...]
    internally_consistent: bool = dataclasses.field(init=False)
    insufficient_precision: bool = dataclasses.field(init=False)
    validated_variant: Optional[PfaFormulaVariant] = dataclasses.field(init=False)
    verdict: str = dataclasses.field(init=False)

    def __post_init__(self):
        points = self.points
        _check_instance("detector", self.detector, DetectorKind)
        for p in points:
            if p.kind is not self.detector:
                raise ParameterDomainError(
                    f"a {self.detector.value} report cannot hold a "
                    f"{p.kind.value} point")
        derive = functools.partial(object.__setattr__, self)
        derive("internally_consistent", all(p.oracle_consistent for p in points))
        paper_ok = all(p.paper_verdict == "consistent" for p in points)
        candidate_ok = all(p.candidate_verdict == "consistent" for p in points)
        has_rivalry = any(p.candidate is not None and p.candidate != p.paper
                          for p in points)
        no_separation = has_rivalry and not any(p.discriminates for p in points)
        few_trials = self.trials < _VERDICT_MIN_TRIALS
        derive("insufficient_precision", few_trials or no_separation)
        validated: Optional[PfaFormulaVariant] = None
        if self.internally_consistent and not few_trials:
            if not has_rivalry:
                # Single-form kinds: validate the printed formula or fall back.
                if paper_ok:
                    validated = PfaFormulaVariant.PAPER
            elif paper_ok != candidate_ok:
                validated = (PfaFormulaVariant.PAPER if paper_ok
                             else PfaFormulaVariant.CANDIDATE)
        derive("validated_variant", validated)
        derive("verdict", "no-verdict-inconsistent-oracles"
               if not self.internally_consistent
               else "no-verdict-insufficient-trials" if few_trials
               else "use-quadrature" if validated is None else validated.value)

    def _to_dict(self) -> dict:
        """The JSON object ``to_json`` writes."""
        doc = {"schema_version": _REPORT_SCHEMA_VERSION,
               **dict(zip(_REPORT_FIELDS, _report_values(self)))}
        doc.update(detector=self.detector.value, points=[
            dict(zip(_POINT_FIELDS, _point_values(p))) for p in self.points],
            validated_variant=getattr(self.validated_variant, "value", None))
        return doc

    def to_json(self) -> str:
        return json.dumps(self._to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AdjudicationReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "AdjudicationReport":
        """Rebuild a report from its Monte Carlo counts and quadratures;
        ParameterDomainError if ``doc`` is not one, InconsistentReportError
        if any other stored value disagrees with the rebuilt one."""
        if not isinstance(doc, dict):
            raise ParameterDomainError("report must be a JSON object")
        if doc.get("schema_version") != _REPORT_SCHEMA_VERSION:
            raise ParameterDomainError(
                f"unsupported report schema: {doc.get('schema_version')!r}")
        _check_fields(doc, {"schema_version": (int,), **_REPORT_FIELDS},
                      "report")
        try:
            detector = DetectorKind(doc["detector"])
            if doc["validated_variant"] is not None:
                PfaFormulaVariant(doc["validated_variant"])
        except ValueError as exc:
            raise ParameterDomainError(f"report: {exc}") from None
        seed, trials = _check_int("seed", doc["seed"], 0, _U64), doc["trials"]
        tol = _check_tol(doc["tol"])
        if not doc["points"]:
            raise ParameterDomainError("report points must be non-empty")
        points = []
        for p in doc["points"]:
            _check_fields(p, _POINT_FIELDS, "report point")
            points.append(GridPointRecord(
                detector, p["n_cut"], p["m_ref"], _check_tau(p["tau"]),
                EstimateWithCI(p["mc_successes"], trials), p["quadrature"],
                p["quadrature_excess_m"]))
        report = cls(detector, seed, trials, tol, tuple(points))
        if (rebuilt := report._to_dict()) != doc:
            _check_agreement(doc, rebuilt, "report")
        return report


def _check_fields(doc, types: dict, what: str) -> None:
    """Raise ParameterDomainError unless ``doc`` is a JSON object holding
    every key of ``types``, with a value of one of its types, and no other."""
    if not isinstance(doc, dict):
        raise ParameterDomainError(f"{what} must be a JSON object")
    for key, allowed in types.items():
        if key not in doc:
            raise ParameterDomainError(f"{what} lacks {key!r}")
        if type(doc[key]) not in allowed:
            raise ParameterDomainError(
                f"{what} field {key!r} cannot be {doc[key]!r}")
    for key in doc:
        if key not in types:
            raise ParameterDomainError(f"{what} has unknown field {key!r}")


def _check_agreement(doc: dict, want: dict, what: str) -> None:
    """Raise InconsistentReportError where ``doc`` differs from ``want``."""
    for key, value in want.items():
        got = doc[key]
        if key == "points":
            for i, (point, rebuilt) in enumerate(zip(got, value)):
                _check_agreement(point, rebuilt, f"report point {i}")
        elif not (got == value or (
                key in ("paper", "candidate") and None not in (got, value)
                and math.isclose(got, value, rel_tol=_CLOSED_FORM_RTOL))):
            raise InconsistentReportError(
                f"{what} field {key!r} disagrees with its evidence: "
                f"stored {got!r}, derived {value!r}")


def default_grid(kind: DetectorKind, n_cut: Sequence[int] = DEFAULT_N_CUT,
                 m_ref: Sequence[int] = DEFAULT_M_REF,
                 taus: Sequence[float] = DEFAULT_TAUS,
                 ) -> tuple[tuple[int, int, float], ...]:
    """Adjudication grid over the given values: single-pulse kinds sweep the
    reference length (ignoring ``n_cut``), multi-pulse kinds sweep both
    window sizes."""
    _check_instance("kind", kind, DetectorKind)
    n_values = (1,) if kind.is_single else n_cut
    return tuple((n, m, t) for n in n_values for m in m_ref for t in taus)


def _closed_form(kind: DetectorKind, n: int, m: int, tau: float,
                 variant: Optional[PfaFormulaVariant]) -> float:
    """The closed form of ``kind`` in ``variant`` (the partial kinds have one
    form and ignore it)."""
    if kind is DetectorKind.GM_PARTIAL_SINGLE:
        return _pfa.pfa_gm_partial_single(m, tau)
    if kind is DetectorKind.GM_PARTIAL_MULTI:
        return _pfa.pfa_gm_partial_multi(n, m, tau)
    if kind is DetectorKind.GM_FULL_SINGLE:
        return _pfa.pfa_gm_full_single(m, tau, variant)
    return _pfa.pfa_gm_full_multi(n, m, tau, variant)


def _variants(kind: DetectorKind) -> tuple[PfaFormulaVariant, ...]:
    """The closed forms of ``kind``: the minimum-anchored kinds have two
    rival forms, the scale-weighted kinds only the printed one."""
    return (tuple(PfaFormulaVariant) if kind.is_full
            else (PfaFormulaVariant.PAPER,))


def _quadrature(full: bool, n: int, m: int, tau: float, tol: float,
                excess_shape: ExcessShape = ExcessShape.M_MINUS_ONE) -> float:
    """The quadrature oracle of the minimum-anchored rule if ``full``, else
    of the scale-weighted rule; ``excess_shape`` applies to the first only."""
    if full:
        return quadrature_pfa_full_multi(n, m, tau, tol, excess_shape)
    return quadrature_pfa_partial_multi(n, m, tau, tol)


def adjudicate_kinds(grids: Mapping[DetectorKind, Optional[Sequence]],
                     trials: int = 10_000_000, seed: int = 0,
                     tol: float = 1e-10) -> dict:
    """The ``adjudicate`` report of each kind of ``grids`` over its grid
    (None for the default grid).  Evidence is keyed by the rule
    ``(full, n, m, tau)``, not the kind, since a multi-pulse kind's N = 1
    points repeat its single-pulse kind's: each distinct rule has one Monte
    Carlo estimate, all counted on one draw, one M-1-shape quadrature and,
    if full, one M-shape quadrature."""
    grids = {kind: [(*_check_window(kind, n, m), _check_tau(t))
                    for n, m, t in (default_grid(kind) if grid is None
                                    else grid)]
             for kind, grid in grids.items()}
    if not all(grids.values()):
        raise ParameterDomainError("grid must be non-empty")
    trials = _check_int("trials", trials)
    seed = _check_int("seed", seed, 0, _U64)
    tol = _check_tol(tol)

    rules = list(dict.fromkeys((kind.is_full, n, m, tau)
                               for kind, grid in grids.items()
                               for n, m, tau in grid))
    evidence = {rule: (EstimateWithCI(successes, trials),
                       _quadrature(*rule, tol),
                       _quadrature(*rule, tol, ExcessShape.M) if rule[0]
                       else None)
                for rule, successes
                in zip(rules, _mc_dual_counts(rules, trials, seed))}
    return {kind: AdjudicationReport(kind, seed, trials, tol, tuple(
        GridPointRecord(kind, n, m, tau, *evidence[kind.is_full, n, m, tau])
        for n, m, tau in grid)) for kind, grid in grids.items()}


def adjudicate(kind: DetectorKind,
               grid: Optional[Sequence[tuple[int, int, float]]] = None,
               trials: int = 10_000_000, seed: int = 0,
               tol: float = 1e-10) -> AdjudicationReport:
    """Gather the Monte Carlo counts, both quadratures and the closed forms
    over a grid into a report, which derives the verdict from them."""
    return adjudicate_kinds({kind: grid}, trials, seed, tol)[kind]


def validated_pfa(kind: DetectorKind, report: AdjudicationReport,
                  n_cut: int, m_ref: int, tau, tol: float = 1e-10) -> float:
    """Single Pfa entry point: the validated closed form when the report
    names one, otherwise the reference quadrature at ``tol``."""
    n, m = _check_window(kind, n_cut, m_ref)
    tau = _check_tau(tau)
    _check_instance("report", report, AdjudicationReport)
    if report.detector is not kind:
        raise ParameterDomainError(
            f"report covers {report.detector.value}, not {kind.value}"
        )
    if not report.internally_consistent:
        raise InconsistentReportError(
            f"oracles disagree in the {kind.value} report; "
            "no Pfa value can be trusted from it"
        )

    variant = report.validated_variant
    if variant is not None or kind is DetectorKind.GM_PARTIAL_SINGLE:
        return _closed_form(kind, n, m, tau, variant)
    return _quadrature(kind.is_full, n, m, tau, tol)
