"""Tests for the package's public surface."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmcfar
from gmcfar import (DetectorKind, EstimateWithCI, ParameterDomainError,
                    ParetoParams, RandomStream, SolverConfig, SweepSpec,
                    Window, adjudicate, cfar_grid_check, dual_to_pareto,
                    empirical_pfa, gamma_tail_poisson_sum, gm_full_multi,
                    gm_full_single, gm_partial_multi, gm_partial_single,
                    mc_dual_pfa, pareto_cdf, pareto_quantile, pareto_to_dual,
                    pfa_gm_partial_multi, quadrature_pfa_full_multi,
                    quadrature_pfa_partial_multi, sample_pareto,
                    solve_tau_numeric, solve_tau_partial_single, stable_u64,
                    validated_pfa, wilson_interval)
from gmcfar.oracles import _check_tol

ROOT = str(Path(gmcfar.__file__).resolve().parents[1])

# The names of the scipy modules an interpreter has loaded.
SCIPY_MODULES = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")

# Runs each argv list of the JSON list on stdin through gmcfar.cli.main in
# order, printing one JSON line per call: its exit code, its stdout and the
# scipy modules loaded after it.
CLI_SESSION = f"""
import contextlib, io, json, sys
sys.path.insert(0, {ROOT!r})
import gmcfar.cli
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gmcfar.cli.main(argv)
    print(json.dumps([code, out.getvalue(), {SCIPY_MODULES}]))
"""


def test_every_export_resolves():
    missing = [name for name in gmcfar.__all__ if not hasattr(gmcfar, name)]
    assert missing == []


def test_import_leaves_heavy_scipy_modules_unloaded():
    # Importing scipy takes most of the CLI's start-up time, so only the
    # quadrature oracle and the chi-square test load it, when first called.
    code = (f"import json, sys; sys.path.insert(0, {ROOT!r}); import gmcfar; "
            f"print(json.dumps({SCIPY_MODULES}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_cli_loads_scipy_only_for_quadrature(tmp_path):
    report = adjudicate(DetectorKind.GM_FULL_MULTI, [(2, 8, 1.0)],
                        trials=10 ** 6, seed=0)
    assert report.verdict == "candidate"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(
        {"reports": {"full-multi": json.loads(report.to_json())}}))
    window = ["--kind", "full-multi", "--n", "2", "--m", "8"]
    calls = [
        ["pfa", *window, "--tau", "0.7", "--variant", "paper"],
        ["pfa", *window, "--tau", "0.7", "--variant", "candidate"],
        ["simulate", *window, "--tau", "1", "--alpha", "5", "--beta", "1",
         "--trials", "1000"],
        ["sample", "--alpha", "5", "--beta", "1", "--count", "10"],
        ["threshold", *window, "--pfa", "1e-3", "--report", str(path)],
        ["sweep", *window, "--pfa-range", "1e-2:1e-4", "--report",
         str(path)],
        ["pfa", *window, "--tau", "0.7", "--variant", "quadrature"],
    ]
    out = subprocess.run([sys.executable, "-c", CLI_SESSION],
                         input=json.dumps(calls), check=True,
                         capture_output=True, text=True).stdout
    results = [json.loads(line) for line in out.splitlines()]

    assert [code for code, _, _ in results] == [0] * len(calls)
    # Every call before the quadrature one ran without scipy.
    assert results[-2][2] == []
    quadrature_csv, loaded = results[-1][1], results[-1][2]
    value = float(quadrature_csv.splitlines()[1].split(",")[-1])
    assert value == quadrature_pfa_full_multi(2, 8, 0.7)
    assert "scipy.special" in loaded


# Bad values by the kind of argument.  A bool is not a number, and 10**400
# is beyond the double range; a count has no upper bound, so 10**400 is a
# valid count, while a seed or stream id stops at 2**64 - 1.
COUNTS = (("true", True), ("1.5", 1.5), ("inf", math.inf), ("nan", math.nan))
REALS = (("true", True), ("1e400", 10 ** 400), ("inf", math.inf),
         ("nan", math.nan))
IDS = (("true", True), ("1e400", 10 ** 400), ("-1", -1), ("1.5", 1.5))
FULL = DetectorKind.GM_FULL_MULTI
PARAMS = ParetoParams(2.0, 1.0)
WINDOW = Window(cut=[2.0], reference=[3.0, 4.0])
# Object arguments of the wrong type: a (shape, scale) pair for Pareto
# parameters, a (cut, reference) pair for a window.
PAIR = (("tuple", (2.0, 1.0)),)
CELLS = (("tuple", ([2.0], [3.0, 4.0])),)

# Each public entry point, a call that passes it one argument, and the bad
# values of that argument; object arguments get one value of the wrong type.
ENTRIES = {
    "pfa_gm_partial_multi-tau": (
        lambda v: pfa_gm_partial_multi(2, 4, v), REALS),
    "pfa_gm_partial_multi-n_cut": (
        lambda v: pfa_gm_partial_multi(v, 4, 1.0), COUNTS),
    "gamma_tail_poisson_sum-x": (
        lambda v: gamma_tail_poisson_sum(v, 3), REALS),
    "gamma_tail_poisson_sum-k": (
        lambda v: gamma_tail_poisson_sum(1.0, v), COUNTS),
    "ParetoParams-shape": (lambda v: ParetoParams(v, 1.0), REALS),
    "gm_partial_single-scale": (
        lambda v: gm_partial_single(WINDOW, 1.0, v), REALS),
    "RandomStream-seed": (lambda v: RandomStream(v), IDS),
    "RandomStream-stream_id": (lambda v: RandomStream(0, v), IDS),
    "uniforms-count": (lambda v: RandomStream(0).uniforms(v), COUNTS),
    "uniforms-start": (lambda v: RandomStream(0).uniforms(4, v), COUNTS),
    "wilson_interval-successes": (lambda v: wilson_interval(v, 10), COUNTS),
    "wilson_interval-trials": (lambda v: wilson_interval(1, v), COUNTS),
    "EstimateWithCI-successes": (lambda v: EstimateWithCI(v, 10), COUNTS),
    "mc_dual_pfa-tau": (lambda v: mc_dual_pfa(FULL, 2, 4, v, 10), REALS),
    "mc_dual_pfa-seed": (lambda v: mc_dual_pfa(FULL, 2, 4, 1.0, 10, v), IDS),
    "quadrature_pfa_partial_multi-tol": (
        lambda v: quadrature_pfa_partial_multi(2, 4, 1.0, v), REALS),
    "empirical_pfa-detector_scale": (
        lambda v: empirical_pfa(FULL, 2, 4, 1.0, PARAMS, 100,
                                detector_scale=v), REALS),
    "empirical_pfa-trials": (
        lambda v: empirical_pfa(FULL, 2, 4, 1.0, PARAMS, v), COUNTS),
    "SolverConfig-target_pfa": (lambda v: SolverConfig(v), REALS),
    "SolverConfig-abs_tol": (lambda v: SolverConfig(1e-3, v), REALS),
    "SolverConfig-max_iterations": (
        lambda v: SolverConfig(1e-3, max_iterations=v), COUNTS),
    "solve_tau_partial_single-target": (
        lambda v: solve_tau_partial_single(4, v), REALS),
    "mc_dual_pfa-kind": (lambda v: mc_dual_pfa(v, 2, 4, 1.0, 1000),
                         (("str", "full-multi"),)),
    "adjudicate-kind": (lambda v: adjudicate(v, [(2, 4, 1.0)], trials=10),
                        (("str", "full-multi"),)),
    "adjudicate-default-grid-kind": (lambda v: adjudicate(v, trials=10),
                                     (("str", "full-multi"),)),
    "solve_tau_numeric-kind": (
        lambda v: solve_tau_numeric(v, 2, 4, SolverConfig(1e-3), None),
        (("str", "full-multi"),)),
    "empirical_pfa-params": (
        lambda v: empirical_pfa(FULL, 2, 4, 1.0, v, 10),
        (("tuple", (2.0, 1.0)),)),
    "cfar_grid_check-params_grid": (
        lambda v: cfar_grid_check(SweepSpec(FULL, 2, 4, 1.0, v, 10, 0)),
        (("ints", (1, 2)),)),
    "validated_pfa-report": (
        lambda v: validated_pfa(FULL, v, 2, 4, 1.0), (("none", None),)),
    "pareto_cdf-params": (lambda v: pareto_cdf(v, 3.0), PAIR),
    "pareto_quantile-params": (lambda v: pareto_quantile(v, 0.5), PAIR),
    "dual_to_pareto-params": (lambda v: dual_to_pareto(v, 1.0), PAIR),
    "pareto_to_dual-params": (lambda v: pareto_to_dual(v, 3.0), PAIR),
    "sample_pareto-params": (
        lambda v: sample_pareto(v, RandomStream(0), 4), PAIR),
    "sample_pareto-stream": (
        lambda v: sample_pareto(PARAMS, v, 4), (("int", 0),)),
    "gm_partial_single-window": (
        lambda v: gm_partial_single(v, 1.0, 1.0), CELLS),
    "gm_full_single-window": (lambda v: gm_full_single(v, 1.0), CELLS),
    "gm_partial_multi-window": (
        lambda v: gm_partial_multi(v, 1.0, 1.0), CELLS),
    "gm_full_multi-window": (lambda v: gm_full_multi(v, 1.0), CELLS),
    "stable_u64-tag": (stable_u64, (("true", True), ("none", None))),
    "child-tag": (lambda v: RandomStream(0).child(v), (("true", True),)),
}


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{entry}-{label}")
    for entry, (call, values) in ENTRIES.items() for label, value in values])
def test_bad_arguments_raise_parameter_domain_error(call, value):
    with pytest.raises(ParameterDomainError):
        call(value)


def test_numpy_scalars_are_numbers():
    target, tol, count = np.float32(1e-3), np.float32(1e-8), np.int64(3)
    assert SolverConfig(target).target_pfa == float(target)
    assert _check_tol(tol) == float(tol)
    assert solve_tau_partial_single(count, target) == \
        solve_tau_partial_single(3, float(target))
    assert pfa_gm_partial_multi(count, np.int64(4), 1.0) == \
        pfa_gm_partial_multi(3, 4, 1.0)
    assert np.array_equal(
        RandomStream(np.uint64(5), np.int64(1)).uniforms(count, np.int64(2)),
        RandomStream(5, 1).uniforms(3, 2))
    assert wilson_interval(np.int64(1), count) == wilson_interval(1, 3)
