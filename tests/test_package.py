"""Tests for the package's public surface."""

import json
import subprocess
import sys
from pathlib import Path

import gmcfar
from gmcfar import DetectorKind, adjudicate, quadrature_pfa_full_multi

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
