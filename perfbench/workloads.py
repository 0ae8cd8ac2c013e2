"""The benchmark's workloads: the CLI ops of one pass, made from a seed,
and the checks of their outputs.

Every workload is one closed loop: one client in one process issues its ops
through ``gmcfar.cli.main`` one after another.  The seed picks Monte Carlo
seeds, Pfa targets within fixed decades, tau values and clutter (alpha,
beta); window sizes and trial counts are fixed, so the work of a pass does
not depend on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import time
from pathlib import Path
from typing import Callable, Optional

# Verdicts the adjudication reaches at the seed commit: the partial kinds
# validate the printed form, the full kinds the re-derived candidate.
EXPECTED_VERDICTS = {
    "partial-single": "paper",
    "full-single": "candidate",
    "partial-multi": "paper",
    "full-multi": "candidate",
}
KINDS = tuple(EXPECTED_VERDICTS)

# Verdicts need at least 10**6 trials; the one-point-per-kind grid keeps
# the design workload's report cheap to make.
REPORT_TRIALS = 1_000_000
REPORT_GRID = ("--n-grid", "2", "--m-grid", "4", "--tau-grid", "1")
REPORT_ATTEMPTS = 5

# Relative bound on |achieved - target| for a threshold (criterion 07).
THRESHOLD_RTOL = 1e-9
SIMULATE_SIGMAS = 5.0


class CheckFailed(Exception):
    """An op's output is wrong: counts as a failed op."""


class StatisticalMiss(Exception):
    """A 4-sigma or chi-square test missed by chance; not a program fault."""


@dataclasses.dataclass
class Op:
    """One CLI invocation and the check of its exit code and stdout."""

    argv: list[str]
    check: Callable[[int, str], Optional[str]]


@dataclasses.dataclass
class Scale:
    """Sizes of one workload scale; ``toy`` is for the self-test."""

    verify_trials: int
    cfar_trials: int
    verify_grid: tuple[str, ...]
    sim_trials: tuple[int, ...]
    sample_count: int
    design_large: bool


SCALES = {
    "full": Scale(verify_trials=1_000_000, cfar_trials=20_000, verify_grid=(),
                  sim_trials=(200_000, 400_000, 350_000, 300_000),
                  sample_count=50_000, design_large=True),
    "toy": Scale(verify_trials=1_000_000, cfar_trials=2_000,
                 verify_grid=REPORT_GRID,
                 sim_trials=(20_000,) * 4, sample_count=1_000,
                 design_large=False),
}


def call_cli(main, argv: list[str]) -> tuple[int, str, str, float]:
    """Run ``main(argv)`` in-process; return its exit code, stdout, stderr
    and the seconds it took."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def _window(kind: str, n: int, m: Optional[int]) -> list[str]:
    argv = ["--kind", kind, "--n", str(n)]
    if m is not None:
        argv += ["--m", str(m)]
    return argv


def _in_decade(rnd: random.Random, exponent: int) -> float:
    """A value in [10**exponent, 10**(exponent + 1)), log-uniform."""
    return 10.0 ** (exponent + rnd.random())


def _tau_range(lo: float, width: float) -> str:
    return f"{lo!r}:{lo + width!r}"


def _json_output(rc: int, stdout: str) -> dict:
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def _probability(value, what: str) -> float:
    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
        raise CheckFailed(f"{what} {value!r} is not a probability")
    return value


# -- verify -----------------------------------------------------------------

def check_verify_report(rc: int, path: Path) -> str:
    """Check a `verify` report; return its verdicts as 'a/b/c/d'.

    The report must re-load with ``AdjudicationReport.from_json`` and every
    internally consistent kind must name its expected verdict.  Exit 1 is a
    statistical miss when a kind's oracles disagree or a chi-square test
    fails; any other reason for it is a failure.
    """
    from gmcfar.oracles import AdjudicationReport

    if rc not in (0, 1):
        raise CheckFailed(f"verify exit code {rc}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"cannot read verify report: {exc}") from exc
    misses, verdicts = [], []
    for kind, expected in EXPECTED_VERDICTS.items():
        report = AdjudicationReport.from_json(json.dumps(doc["reports"][kind]))
        verdicts.append(report.verdict)
        if not report.internally_consistent:
            misses.append(f"{kind} oracles disagree")
        elif report.verdict != expected:
            raise CheckFailed(f"{kind} verdict {report.verdict}, "
                              f"expected {expected}")
    misses += [f"cfar {c['kind']} chi-square p={c['chi_square']['p_value']:.3g}"
               for c in doc["cfar"] if not c["chi_square"]["passed"]]
    if not doc["reductions"]["passed"]:
        raise CheckFailed("reduction identities failed")
    if (rc == 1) != bool(misses) or doc["passed"] != (rc == 0):
        raise CheckFailed(f"exit code {rc} does not match the report")
    if misses:
        raise StatisticalMiss("; ".join(misses))
    return "/".join(verdicts)


def verify_ops(rnd: random.Random, scale: Scale, out_dir: Path) -> list[Op]:
    """One `verify` on the default grids (full scale) at 10**6 trials."""
    path = out_dir / "verify-report.json"
    argv = ["verify", "--trials", str(scale.verify_trials),
            "--cfar-trials", str(scale.cfar_trials),
            "--seed", str(rnd.randrange(2 ** 32)), "--threads", "1",
            "--out", str(path), *scale.verify_grid]
    return [Op(argv, lambda rc, _out: check_verify_report(rc, path))]


# -- design -----------------------------------------------------------------

def _check_threshold(rc: int, stdout: str) -> None:
    doc = _json_output(rc, stdout)
    target, achieved, tau = doc["target_pfa"], doc["achieved_pfa"], doc["tau"]
    if not (math.isfinite(tau) and tau >= 0.0):
        raise CheckFailed(f"threshold tau {tau!r}")
    if abs(achieved - target) > THRESHOLD_RTOL * target:
        raise CheckFailed(f"achieved {achieved!r} misses target {target!r}")


def _check_pfa_sweep(rc: int, stdout: str) -> None:
    rows = _json_output(rc, stdout)["rows"]
    taus = [tau for _target, tau in rows]
    if not all(math.isfinite(t) and t >= 0.0 for t in taus):
        raise CheckFailed(f"sweep tau values {taus!r}")
    if any(later > earlier for earlier, later in zip(taus, taus[1:])):
        raise CheckFailed(f"tau not monotone in the target: {taus!r}")


def _check_tau_sweep(rc: int, stdout: str) -> None:
    for _tau, pfa in _json_output(rc, stdout)["rows"]:
        _probability(pfa, "sweep Pfa")


def _check_pfa(rc: int, stdout: str) -> None:
    for result in _json_output(rc, stdout)["results"]:
        _probability(result["pfa"], f"{result['variant']} Pfa")


def make_design_report(seed: int, path: str) -> None:
    """Write the adjudication report that every design op reads, with the
    program's own `verify`.  A statistical miss retries on the next seed."""
    from gmcfar.cli import main

    path = Path(path)
    for attempt in range(REPORT_ATTEMPTS):
        rc, _out, err, _seconds = call_cli(main, [
            "verify", "--trials", str(REPORT_TRIALS), "--cfar-trials",
            "20000", "--seed", str(seed + attempt), "--out", str(path),
            *REPORT_GRID])
        try:
            check_verify_report(rc, path)
            return
        except StatisticalMiss:
            continue
        except CheckFailed as exc:
            raise RuntimeError(f"design report: {exc}; {err.strip()}") from exc
    raise RuntimeError(f"design report: {REPORT_ATTEMPTS} statistical misses")


SMALL_MULTI = ((2, 8), (4, 16), (8, 32), (16, 64))
SMALL_SINGLE = (8, 16, 32, 64)


def design_ops(rnd: random.Random, scale: Scale, report: Path) -> list[Op]:
    """Threshold, sweep and pfa ops over all four kinds; solver plus
    closed forms only.

    Four fifths use small windows (N, M <= 64), one fifth large windows up
    to the documented 10**3 bound, so the median op is a small one and the
    90th percentile a large one.
    """
    common = ["--report", str(report), "--format", "json", "--threads", "1"]
    small = []
    for kind in KINDS:
        windows = ([(n, None) for n in SMALL_SINGLE]
                   if kind.endswith("single") else SMALL_MULTI)
        for i, (n, m) in enumerate(windows):
            w = _window(kind, n, m)
            small.append(Op(["threshold", *w, "--pfa",
                             repr(_in_decade(rnd, -3 - i))],
                            _check_threshold))
            lo = _in_decade(rnd, -6)
            small.append(Op(["sweep", *w, "--pfa-range", f"{lo!r}:{lo * 1e3!r}"],
                            _check_pfa_sweep))
            small.append(Op(["sweep", *w, "--tau-range",
                             _tau_range(0.5 * rnd.random(), 4.0),
                             "--step", "0.25"], _check_tau_sweep))
            for variant in ("paper", "candidate", "validated"):
                small.append(Op(["pfa", *w, "--tau", repr(0.1 + 2.9 * rnd.random()),
                                 "--variant", variant], _check_pfa))
    large = []
    if scale.design_large:
        large += [
            # Every Pfa evaluation of this solve takes the log-domain fallback.
            Op(["threshold", *_window("partial-multi", 1000, 1000),
                "--pfa", repr(_in_decade(rnd, -4))], _check_threshold),
            # tau below 0.5 keeps this closed form in the O(N**2) fallback.
            Op(["pfa", *_window("full-multi", 1000, 100),
                "--tau", repr(0.05 + 0.45 * rnd.random()),
                "--variant", "candidate"], _check_pfa),
            Op(["threshold", *_window("full-multi", 256, 256),
                "--pfa", repr(_in_decade(rnd, -4))], _check_threshold),
            Op(["pfa", *_window("full-multi", 300, 1000),
                "--tau", repr(0.3 + 0.3 * rnd.random()), "--variant", "paper"],
               _check_pfa),
        ]
        for i in range(4):
            large += [
                Op(["threshold", *_window("full-multi", 128, 128),
                    "--pfa", repr(_in_decade(rnd, -3 - i))],
                   _check_threshold),
                Op(["threshold", *_window("partial-multi", 1000, 100),
                    "--pfa", repr(_in_decade(rnd, -3 - i))],
                   _check_threshold),
                Op(["sweep", *_window("full-multi", 128, 64), "--tau-range",
                    _tau_range(0.5 * rnd.random(), 2.75), "--step", "0.25"],
                   _check_tau_sweep),
                Op(["sweep", *_window("partial-multi", 500, 500), "--pfa-range",
                    f"{_in_decade(rnd, -5)!r}:1e-2"], _check_pfa_sweep),
                # tau >= 1 sends N = M = 10**3 into the log-domain fallback.
                Op(["pfa", *_window("partial-multi", 1000, 1000),
                    "--tau", repr(1.05 + 0.45 * rnd.random()),
                    "--variant", "validated"], _check_pfa),
            ]
    else:
        large.append(Op(["threshold", *_window("full-multi", 64, 64),
                         "--pfa", repr(_in_decade(rnd, -4))],
                        _check_threshold))
        small = small[::8]
    ops = small + large
    for op in ops:
        op.argv += common
    rnd.shuffle(ops)
    return ops


# -- simulate ---------------------------------------------------------------

# (kind, N, M, tau range): tau spans Pfa ~0.1 down to ~0.01 for the window.
SIMULATIONS = (
    ("partial-single", 16, None, (0.155, 0.333)),
    ("full-single", 16, None, (0.161, 0.353)),
    ("partial-multi", 4, 32, (0.221, 0.350)),
    ("full-multi", 8, 64, (0.192, 0.270)),
)


def _closed_form(kind: str, n: int, m: Optional[int], tau: float) -> float:
    """The adjudicated closed form: printed for the partial kinds, the
    re-derived candidate for the full kinds."""
    from gmcfar import pfa

    candidate = pfa.PfaFormulaVariant.CANDIDATE
    if kind == "partial-single":
        return pfa.pfa_gm_partial_single(n, tau)
    if kind == "full-single":
        return pfa.pfa_gm_full_single(n, tau, candidate)
    if kind == "partial-multi":
        return pfa.pfa_gm_partial_multi(n, m, tau)
    return pfa.pfa_gm_full_multi(n, m, tau, candidate)


def _simulate_check(kind: str, n: int, m: Optional[int], tau: float):
    def check(rc: int, stdout: str) -> None:
        doc = _json_output(rc, stdout)
        expected = _closed_form(kind, n, m, tau)
        sigma = math.sqrt(expected * (1.0 - expected) / doc["trials"])
        if abs(doc["estimate"] - expected) > SIMULATE_SIGMAS * sigma:
            raise CheckFailed(f"{kind} estimate {doc['estimate']!r} is more "
                              f"than {SIMULATE_SIGMAS} sigma from {expected!r}")
    return check


def _sample_check(path: Path, count: int, beta: float):
    def check(rc: int, _stdout: str) -> None:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        finally:
            path.unlink(missing_ok=True)
        if len(lines) != count:
            raise CheckFailed(f"{len(lines)} samples, expected {count}")
        if min(float(v) for v in lines) < beta:
            raise CheckFailed(f"a sample lies below beta={beta!r}")
    return check


def simulate_ops(rnd: random.Random, scale: Scale, out_dir: Path) -> list[Op]:
    """Pareto-domain simulations at millions of trials, plus one
    `sample --out`."""
    threads = str(min(2, os.cpu_count() or 1))
    ops = []
    for (kind, n, m, (lo, hi)), trials in zip(SIMULATIONS, scale.sim_trials):
        tau = lo + (hi - lo) * rnd.random()
        alpha = 1.5 + 8.5 * rnd.random()
        beta = 10.0 ** rnd.uniform(-2.0, 2.0)
        ops.append(Op(["simulate", *_window(kind, n, m), "--tau", repr(tau),
                       "--alpha", repr(alpha), "--beta", repr(beta),
                       "--trials", str(trials),
                       "--seed", str(rnd.randrange(2 ** 32)),
                       "--threads", threads, "--format", "json"],
                      _simulate_check(kind, n, m, tau)))
    path = out_dir / "samples.txt"
    beta = 10.0 ** rnd.uniform(-2.0, 2.0)
    ops.append(Op(["sample", "--alpha", repr(1.5 + 8.5 * rnd.random()),
                   "--beta", repr(beta), "--count", str(scale.sample_count),
                   "--seed", str(rnd.randrange(2 ** 32)), "--threads", threads,
                   "--out", str(path)],
                  _sample_check(path, scale.sample_count, beta)))
    return ops
