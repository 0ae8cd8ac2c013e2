"""Command-line interface.

Subcommands: ``pfa``, ``threshold``, ``simulate``, ``verify``, ``sweep``,
``sample``.  Output is CSV on stdout by default (RFC 4180, CRLF line ends)
or one JSON document with ``--format json``.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 numerical failure.

The single-pulse kinds take ``--n`` as the reference cell count (their cell
under test is always a single value); the multi-pulse kinds take ``--n``
cells under test and ``--m`` reference cells.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Callable, Optional, Sequence

from .clutter import ParetoParams, sample_pareto
from .detectors import DetectorKind
from .errors import (GmCfarError, InconsistentReportError,
                     ParameterDomainError, _check_int)
from .oracles import (DEFAULT_M_REF, DEFAULT_N_CUT, DEFAULT_TAUS,
                      AdjudicationReport, PfaFormulaVariant, _closed_form,
                      _quadrature, _variants, adjudicate, validated_pfa)
from .rng import RandomStream
from .simulate import CfarGridPoint, empirical_pfa, verify
from .solver import SolverConfig, solve_tau_numeric, solve_tau_partial_single

# Most rows one `sweep` may tabulate, in either mode.
_MAX_SWEEP_ROWS = 10_000


def _write(args, doc: dict, header: Sequence[str],
           rows: Sequence[Sequence]) -> None:
    """Print ``doc`` as one JSON document under ``--format json``, else
    ``header`` and ``rows`` as CSV with floats in their shortest repr."""
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return
    out = io.StringIO()
    csv.writer(out).writerows(
        [repr(v) if isinstance(v, float) else v for v in row]
        for row in [header, *rows])
    sys.stdout.write(out.getvalue())


def _window_config(args) -> tuple[DetectorKind, int, int]:
    """Map --n/--m flags onto (kind, n_cut, m_ref)."""
    kind = DetectorKind(args.kind)
    if kind.is_single:
        if args.m is not None:
            raise ParameterDomainError(
                f"{kind.value} takes --n as the reference cell count; "
                "--m is not applicable"
            )
        return kind, 1, args.n
    if args.m is None:
        raise ParameterDomainError(f"{kind.value} requires --m")
    return kind, args.n, args.m


def _load_report(path: str, kind: DetectorKind) -> AdjudicationReport:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParameterDomainError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterDomainError(f"malformed report {path}: {exc}") from exc
    if isinstance(doc, dict) and "reports" in doc:
        if not isinstance(doc["reports"], dict):
            raise ParameterDomainError(
                f"malformed report {path}: 'reports' must be a JSON object")
        doc = doc["reports"].get(kind.value)
        if doc is None:
            raise ParameterDomainError(
                f"report {path} has no entry for {kind.value}"
            )
    return AdjudicationReport.from_dict(doc)


def _obtain_report(args, kind: DetectorKind, n_cut: int,
                   m_ref: int) -> AdjudicationReport:
    """Load a cached adjudication report, or run a reduced one in-process
    restricted to the requested window sizes."""
    if args.report:
        return _load_report(args.report, kind)
    grid = [(n_cut, m_ref, tau) for tau in DEFAULT_TAUS]
    return adjudicate(kind, grid, trials=args.trials, seed=args.seed)


def _pfa_and_solver(args, kind: DetectorKind, n_cut: int, m_ref: int,
                    ) -> tuple[Callable[[float], float],
                               Callable[[SolverConfig], float]]:
    """The pair (Pfa of tau, tau of a solver config) for one window.

    Without ``--report``, partial-single inverts in closed form and reads
    no report; otherwise the validated Pfa and the solver check one report.
    """
    if kind is DetectorKind.GM_PARTIAL_SINGLE and not args.report:
        return (lambda tau: _closed_form(kind, n_cut, m_ref, tau, None),
                lambda config: solve_tau_partial_single(m_ref,
                                                        config.target_pfa))
    report = _obtain_report(args, kind, n_cut, m_ref)
    return (lambda tau: validated_pfa(kind, report, n_cut, m_ref, tau),
            lambda config: solve_tau_numeric(kind, n_cut, m_ref, config,
                                             report))


def _cmd_pfa(args) -> int:
    kind, n_cut, m_ref = _window_config(args)
    tau = args.tau
    names = ([v.value for v in _variants(kind)] + ["quadrature"]
             if args.all_variants else [args.variant])
    rows = []
    for name in names:
        if name == "quadrature":
            value = _quadrature(kind.is_full, n_cut, m_ref, tau, 1e-10)
        elif name == "validated":
            report = _obtain_report(args, kind, n_cut, m_ref)
            value = validated_pfa(kind, report, n_cut, m_ref, tau)
            name += ":" + report.verdict
        else:
            value = _closed_form(kind, n_cut, m_ref, tau,
                                 PfaFormulaVariant(name))
        rows.append((name, value))

    _write(args, {"kind": kind.value, "n_cut": n_cut, "m_ref": m_ref,
                  "tau": tau, "results": [{"variant": name, "pfa": value}
                                          for name, value in rows]},
           ["kind", "n_cut", "m_ref", "tau", "variant", "pfa"],
           [(kind.value, n_cut, m_ref, tau, name, value)
            for name, value in rows])
    return 0


def _cmd_threshold(args) -> int:
    kind, n_cut, m_ref = _window_config(args)
    config = SolverConfig(target_pfa=args.pfa, abs_tol=args.abs_tol,
                          max_iterations=args.max_iterations)
    pfa_of, solve = _pfa_and_solver(args, kind, n_cut, m_ref)
    tau = solve(config)
    header = ["kind", "n_cut", "m_ref", "target_pfa", "tau", "achieved_pfa"]
    row = (kind.value, n_cut, m_ref, config.target_pfa, tau, pfa_of(tau))
    _write(args, dict(zip(header, row)), header, [row])
    return 0


def _cmd_simulate(args) -> int:
    kind, n_cut, m_ref = _window_config(args)
    params = ParetoParams(shape=args.alpha, scale=args.beta)
    row = CfarGridPoint(params, empirical_pfa(
        kind, n_cut, m_ref, args.tau, params, args.trials, args.seed)).row()
    _write(args, {"kind": kind.value, "n_cut": n_cut, "m_ref": m_ref,
                  "tau": args.tau, **row, "seed": args.seed},
           list(row), [list(row.values())])
    return 0


def _parse_grid(text: str, caster, flag: str) -> tuple:
    try:
        values = tuple(caster(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ParameterDomainError(f"bad {flag} value: {exc}") from exc
    if not values:
        raise ParameterDomainError(f"{flag} must list at least one value")
    return values


def _cmd_verify(args) -> int:
    report = verify(_parse_grid(args.n_grid, int, "--n-grid"),
                    _parse_grid(args.m_grid, int, "--m-grid"),
                    _parse_grid(args.tau_grid, float, "--tau-grid"),
                    args.trials, args.cfar_trials, args.seed, args.tol)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report._to_dict(), indent=2) + "\n")
    except OSError as exc:
        raise ParameterDomainError(
            f"cannot write report {args.out}: {exc}") from exc
    sys.stdout.write("\n".join(report.summary) + "\n")
    return 0 if report.passed else 1


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    lo_hi = _parse_grid(text.replace(":", ","), float, flag)
    if len(lo_hi) != 2:
        raise ParameterDomainError(f"{flag} must look like LO:HI")
    return lo_hi


def _sweep_taus(args) -> list[float]:
    lo, hi = _parse_range(args.tau_range, "--tau-range")
    step = args.step
    if not (step and step > 0.0):
        raise ParameterDomainError("--step must be positive")
    if step == float("inf"):
        raise ParameterDomainError("--step must be finite")
    if not 0.0 <= lo <= hi:
        raise ParameterDomainError("--tau-range needs 0 <= LO <= HI")
    top = hi + 1e-12 * max(1.0, abs(hi))
    taus: list[float] = []
    while (len(taus) <= _MAX_SWEEP_ROWS
           and (value := lo + len(taus) * step) <= top):
        taus.append(min(value, hi))
    return taus


def _sweep_targets(args) -> list[float]:
    lo, hi = _parse_range(args.pfa_range, "--pfa-range")
    step = args.step if args.step is not None else 10.0
    if not step > 1.0:
        raise ParameterDomainError("--step is a ratio > 1 for --pfa-range")
    if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
        raise ParameterDomainError("--pfa-range values must lie in (0, 1)")
    targets, value = [], lo
    ratio = step if hi > lo else 1.0 / step
    for _ in range(_MAX_SWEEP_ROWS + 1):
        targets.append(value)
        if abs(value - hi) <= 1e-9 * hi:
            break
        value *= ratio
        if (ratio > 1.0 and value > hi * (1.0 + 1e-9)) or \
           (ratio < 1.0 and value < hi * (1.0 - 1e-9)):
            targets.append(hi)
            break
    return targets


def _cmd_sweep(args) -> int:
    kind, n_cut, m_ref = _window_config(args)
    if (args.tau_range is None) == (args.pfa_range is None):
        raise ParameterDomainError(
            "exactly one of --tau-range or --pfa-range is required"
        )
    # Walk the range before _pfa_and_solver, which may run an adjudication.
    # Each walk stops one value past the cap, so its length is the row count.
    by_tau = args.tau_range is not None
    walk = _sweep_taus(args) if by_tau else _sweep_targets(args)
    if len(walk) > _MAX_SWEEP_ROWS:
        raise ParameterDomainError(
            f"{'--tau-range' if by_tau else '--pfa-range'} with this --step "
            f"gives more than {_MAX_SWEEP_ROWS} rows")
    pfa_of, solve = _pfa_and_solver(args, kind, n_cut, m_ref)
    if by_tau:
        header, rows = ["tau", "pfa"], [(tau, pfa_of(tau)) for tau in walk]
    else:
        header, rows = ["pfa", "tau"], [
            (target, solve(SolverConfig(target_pfa=target)))
            for target in walk]
    _write(args, {"kind": kind.value, "n_cut": n_cut, "m_ref": m_ref,
                  "columns": header, "rows": rows}, header, rows)
    return 0


def _cmd_sample(args) -> int:
    _check_int("--count", args.count)
    params = ParetoParams(shape=args.alpha, scale=args.beta)
    stream = RandomStream(args.seed, 0).child("sample")
    values = sample_pareto(params, stream, args.count)
    text = "".join(repr(float(v)) + "\n" for v in values)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParameterDomainError(
                f"cannot write samples to {args.out}: {exc}") from exc
    return 0


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True,
                        choices=[k.value for k in DetectorKind],
                        help="detector kind")
    parser.add_argument("--n", type=int, required=True,
                        help="cells under test (multi kinds) or reference "
                             "cell count (single kinds)")
    parser.add_argument("--m", type=int, default=None,
                        help="reference cell count (multi kinds only)")


def _add_clutter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True,
                        help="Pareto shape; refused (exit 2) where beta * "
                             "exp(36.74 / alpha) overflows the double range, "
                             "so alpha >= 53/1024 = 0.0518 at beta <= 1")
    parser.add_argument("--beta", type=float, required=True,
                        help="Pareto scale")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", default=None,
                        help="adjudication report JSON written by `verify`; "
                             "without it a reduced adjudication runs "
                             "in-process")
    parser.add_argument("--trials", type=int, default=1_000_000,
                        help="Monte Carlo trials for in-process adjudication")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    common.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format (default csv)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and checked (>= 1) but unused "
                             "today; never changes output")

    parser = argparse.ArgumentParser(
        prog="gmcfar",
        description="Geometric-mean CFAR detectors in Pareto clutter: "
                    "false-alarm probabilities, thresholds, simulation, "
                    "and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pfa = sub.add_parser("pfa", parents=[common],
                           help="evaluate a false-alarm probability")
    _add_window_flags(p_pfa)
    p_pfa.add_argument("--tau", type=float, required=True)
    p_pfa.add_argument("--variant", default="validated",
                       choices=["validated", "paper", "candidate",
                                "quadrature"])
    p_pfa.add_argument("--all-variants", action="store_true",
                       help="print paper, candidate, and quadrature values")
    _add_report_flags(p_pfa)
    p_pfa.set_defaults(func=_cmd_pfa)

    p_thr = sub.add_parser("threshold", parents=[common],
                           help="solve the threshold multiplier for a target "
                                "Pfa")
    _add_window_flags(p_thr)
    p_thr.add_argument("--pfa", type=float, required=True,
                       help="target false-alarm probability")
    p_thr.add_argument("--abs-tol", type=float, default=None)
    p_thr.add_argument("--max-iterations", type=int, default=200)
    _add_report_flags(p_thr)
    p_thr.set_defaults(func=_cmd_threshold)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="estimate a Pfa from simulated Pareto "
                                "clutter")
    _add_window_flags(p_sim)
    p_sim.add_argument("--tau", type=float, required=True)
    _add_clutter_flags(p_sim)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the full adjudication and CFAR "
                                "verification pipeline")
    p_ver.add_argument("--trials", type=int, default=10_000_000)
    p_ver.add_argument("--cfar-trials", type=int, default=1_000_000)
    p_ver.add_argument("--tol", type=float, default=1e-10)
    p_ver.add_argument("--out", default="gmcfar-verify.json",
                       help="path for the adjudication report JSON")
    p_ver.add_argument("--n-grid", default=",".join(map(str, DEFAULT_N_CUT)))
    p_ver.add_argument("--m-grid", default=",".join(map(str, DEFAULT_M_REF)))
    p_ver.add_argument("--tau-grid", default=",".join(map(str, DEFAULT_TAUS)))
    p_ver.set_defaults(func=_cmd_verify)

    p_swp = sub.add_parser("sweep", parents=[common],
                           help="tabulate Pfa(tau) or tau(Pfa)")
    _add_window_flags(p_swp)
    p_swp.add_argument("--tau-range", default=None, metavar="LO:HI")
    p_swp.add_argument("--pfa-range", default=None, metavar="LO:HI")
    p_swp.add_argument("--step", type=float, default=None,
                       help="additive step for --tau-range, ratio for "
                            "--pfa-range (default 10)")
    _add_report_flags(p_swp)
    p_swp.set_defaults(func=_cmd_sweep)

    p_sam = sub.add_parser("sample", parents=[common],
                           help="draw Pareto clutter samples")
    _add_clutter_flags(p_sam)
    p_sam.add_argument("--count", type=int, required=True)
    p_sam.add_argument("--out", default=None,
                       help="output path (default stdout)")
    p_sam.set_defaults(func=_cmd_sample)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser every `main` call in a process shares; parsing never
    mutates it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_int("--threads", args.threads)
        return args.func(args)
    except ParameterDomainError as exc:
        sys.stderr.write(f"gmcfar: {exc}\n")
        return 2
    except InconsistentReportError as exc:
        sys.stderr.write(f"gmcfar: {exc}\n")
        return 1
    except GmCfarError as exc:
        sys.stderr.write(f"gmcfar: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
