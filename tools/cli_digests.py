"""Digests of a fixed set of CLI invocations, run in-process.

Usage:

    python3 tools/cli_digests.py CHECKOUT > digests.txt

Imports ``gmcfar`` from ``CHECKOUT/src`` and calls ``gmcfar.cli.main`` once
per invocation, printing one ``exit-code sha256 argv`` line each.  The hash
covers stdout, stderr and every file the call writes, with the temporary
directory's path replaced by ``{tmp}``, as in the printed argv.  Two
checkouts print the same lines exactly when every call gives the same bytes
and exit code, so comparing the CLI output of two versions is a ``diff`` of
two runs.  The set covers every kind under each ``pfa`` variant (CSV and
JSON), ``--all-variants`` (also at M = 1, and at N = 10**3, M = 1, the
largest window the closed forms document), ``threshold``, both ``sweep``
modes in both formats, a ``sweep`` at its 10,000-row cap and two just past
it, ``simulate``, ``sample``, a reduced ``verify`` (its report file and
stdout) and one whose ``--n-grid`` leaves out 1, so that the single-pulse
kinds count on a cut sum no multi-pulse window of the grid takes, usage
errors (among them out-of-range seeds, an infinite Pareto shape, a
``sample`` and two ``simulate`` calls whose clutter can exceed the double
range, next to a ``sample`` just inside that bound, and a ``pfa``, a
partial-single ``threshold`` and a partial-single ``sweep`` given a report
file that does not exist) and ``--help``.  A
``simulate`` at 8x64 and 4x32 also reaches numpy's own row reductions,
which windows under 8 (sums) and 32 (minima) cells do not, and a
``verify`` at M = 8 and 32 carries the dual Monte Carlo's running
reference sum and minimum across columns no rule tests.  Two small
``verify`` calls check the reduction identities at
M = 200, tau = 100, where the single-pulse forms underflow to 0, and at
M = 1000, tau = 1, and one refuses ``--cfar-trials 0`` before any draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# The adjudication windows each kind is asked about: (kind, --n, --m).
WINDOWS = (("partial-single", "8", None), ("full-single", "8", None),
           ("full-single", "1", None), ("partial-multi", "2", "4"),
           ("full-multi", "2", "4"), ("full-multi", "2", "1"),
           ("full-multi", "1", "3"))

REPORT = "{tmp}/report.json"
VERIFY = ["verify", "--trials", "1000000", "--cfar-trials", "20000",
          "--n-grid", "1,2", "--m-grid", "1,2,4", "--tau-grid", "0.5,1",
          "--out", REPORT]


def window(kind: str, n: str, m) -> list[str]:
    return ["--kind", kind, "--n", n] + ([] if m is None else ["--m", m])


def invocations() -> list[list[str]]:
    calls = [VERIFY]
    for w in WINDOWS:
        base = ["pfa", *window(*w), "--tau", "0.7"]
        for fmt in ("csv", "json"):
            for variant in ("paper", "candidate", "quadrature"):
                calls.append(base + ["--variant", variant, "--format", fmt])
            calls.append(base + ["--report", REPORT, "--format", fmt])
            calls.append(base + ["--all-variants", "--format", fmt])
        calls += [base, base + ["--trials", "20000"]]
        calls.append(["threshold", *window(*w), "--pfa", "1e-3",
                      "--report", REPORT])
    for w in (WINDOWS[0], WINDOWS[1], WINDOWS[3], WINDOWS[4]):
        calls += [
            ["threshold", *window(*w), "--pfa", "1e-6", "--report", REPORT,
             "--format", "json"],
            ["sweep", *window(*w), "--tau-range", "0:2", "--step", "0.25",
             "--report", REPORT],
            ["sweep", *window(*w), "--tau-range", "0:2", "--step", "0.25",
             "--report", REPORT, "--format", "json"],
            ["sweep", *window(*w), "--pfa-range", "1e-1:1e-7", "--step", "7",
             "--report", REPORT, "--format", "json"],
            ["simulate", *window(*w), "--tau", "0.8", "--alpha", "3",
             "--beta", "2", "--trials", "20000", "--seed", "5"],
            ["simulate", *window(*w), "--tau", "0.8", "--alpha", "3",
             "--beta", "2", "--trials", "20000", "--format", "json"],
        ]
    # Windows whose rows take numpy's reductions as well as the column
    # loops: 8 cells and more are summed pairwise, 32 and more are minimised
    # per row.
    for w in (("full-multi", "8", "64"), ("partial-multi", "4", "32")):
        calls.append(["simulate", *window(*w), "--tau", "0.25", "--alpha",
                      "3", "--beta", "2", "--trials", "20000"])
    # Reference widths that the running column sum and minimum reach only
    # past columns no rule tests.
    calls.append(["verify", "--trials", "100000", "--cfar-trials", "20000",
                  "--n-grid", "1,2", "--m-grid", "8,32", "--tau-grid", "0.5",
                  "--out", "{tmp}/wide.json"])
    # The full-multi candidate's shape-0 pass over 10**3 cut cells.
    calls.append(["pfa", *window("full-multi", "1000", "1"), "--tau", "0.3",
                  "--all-variants", "--format", "json"])
    # Monte Carlo draws are keyed by cell column, so here the single-pulse
    # windows (1, m) count on a cut sum that no multi-pulse window takes.
    calls.append(["verify", "--trials", "1000000", "--cfar-trials", "20000",
                  "--n-grid", "2,4", "--m-grid", "1,2,4", "--tau-grid",
                  "0.5,1", "--out", "{tmp}/apart.json"])
    # Reduction identities where the single-pulse forms underflow to 0, and
    # where the O(N) pass keeps only about 13 digits.
    for m, tau in (("200", "100"), ("1000", "1")):
        calls.append(["verify", "--trials", "1000", "--cfar-trials", "1000",
                      "--n-grid", "1", "--m-grid", m, "--tau-grid", tau,
                      "--out", "{tmp}/reduce-" + m + ".json"])
    calls += [
        ["threshold", *window(*WINDOWS[3]), "--pfa", "1e-4",
         "--trials", "20000"],
        ["sample", "--alpha", "3", "--beta", "2", "--count", "200"],
        ["sample", "--alpha", "1.5", "--beta", "0.5", "--count", "200",
         "--seed", "9", "--out", "{tmp}/samples.txt"],
        # Usage errors, refusals and help.
        ["pfa", "--kind", "bogus", "--n", "1", "--tau", "1"],
        ["pfa", *window("partial-single", "4", "2"), "--tau", "1"],
        ["pfa", "--kind", "full-multi", "--n", "2", "--tau", "1"],
        ["pfa", *window("full-multi", "0", "4"), "--tau", "1",
         "--variant", "paper"],
        ["pfa", *window("partial-multi", "2", "4"), "--tau", "-1",
         "--variant", "paper"],
        ["pfa", *window("full-multi", "2", "4"), "--tau", "1",
         "--report", "{tmp}/absent.json"],
        # Partial-single reads a given report too, though it answers in
        # closed form.
        ["threshold", *window("partial-single", "8", None), "--pfa", "1e-3",
         "--report", "{tmp}/absent.json"],
        ["sweep", *window("partial-single", "8", None), "--tau-range", "0:1",
         "--step", "0.5", "--report", "{tmp}/absent.json"],
        ["sweep", *window("partial-single", "4", None)],
        ["sweep", *window("full-multi", "4", "16"), "--tau-range=-1:1",
         "--step", "0.5", "--trials", "20000"],
        ["sweep", *window("full-multi", "4", "16"), "--tau-range", "nan:1",
         "--step", "0.5", "--trials", "20000"],
        ["sweep", *window("full-multi", "4", "16"), "--tau-range", "2:1",
         "--step", "0.5", "--trials", "20000"],
        ["sweep", *window("full-multi", "4", "16"), "--tau-range", "1:2:3",
         "--step", "0.5"],
        ["sweep", *window("full-multi", "4", "16"), "--tau-range", "0:1",
         "--step", "0"],
        ["sweep", *window("partial-single", "8", None), "--tau-range", "0:1",
         "--step", "inf"],
        ["sweep", *window("full-multi", "4", "16"), "--tau-range", "0:1",
         "--step", "1e-6"],
        ["sweep", *window("partial-single", "4", None), "--tau-range",
         "0:9999", "--step", "1"],
        ["sweep", *window("partial-single", "4", None), "--tau-range",
         "0:10000", "--step", "1"],
        ["sweep", *window("partial-single", "4", None), "--pfa-range",
         "1e-1:1e-12", "--step", "1.0001"],
        ["sweep", *window("full-multi", "4", "16"), "--pfa-range",
         "1e-2:1e-4:1"],
        ["sweep", *window("full-multi", "4", "16"), "--pfa-range", "0:1e-4"],
        ["sweep", *window("full-multi", "4", "16"), "--pfa-range",
         "1e-2:1e-4", "--step", "1"],
        ["threshold", *window("partial-multi", "2", "4"), "--pfa", "2",
         "--report", REPORT],
        ["threshold", *window("partial-multi", "2", "4"), "--pfa", "1e-4",
         "--trials", "1000", "--abs-tol", "inf"],
        ["simulate", *window("full-multi", "2", "4"), "--tau", "1",
         "--alpha", "3", "--beta", "2", "--trials", "0"],
        ["sample", "--alpha", "3", "--beta", "2", "--count", "0"],
        # One seed check for every layer, so one message for each refusal.
        ["sample", "--alpha", "3", "--beta", "2", "--count", "10", "--seed",
         "-1"],
        # Clutter whose variates can exceed the double range is refused
        # before any draw; just above the bound it samples.
        ["sample", "--alpha", "0.01", "--beta", "1", "--count", "100000",
         "--seed", "0", "--out", "{tmp}/overflow.txt"],
        ["simulate", *window("full-multi", "2", "8"), "--tau", "1",
         "--alpha", "0.01", "--beta", "1", "--trials", "100000"],
        ["simulate", *window("partial-multi", "2", "8"), "--tau", "1",
         "--alpha", "0.2", "--beta", "1e300", "--trials", "100000"],
        ["sample", "--alpha", "0.0518", "--beta", "1", "--count", "1000",
         "--seed", "0", "--out", "{tmp}/edge.txt"],
        ["simulate", *window("full-multi", "2", "4"), "--tau", "1",
         "--alpha", "3", "--beta", "2", "--trials", "1000", "--seed", "-1"],
        ["verify", "--seed", "18446744073709551616", "--trials", "1000000",
         "--cfar-trials", "20000", "--out", "{tmp}/big-seed.json"],
        ["simulate", *window("full-multi", "2", "4"), "--tau", "1",
         "--alpha", "inf", "--beta", "2", "--trials", "1000"],
        ["verify", "--n-grid", "1,x", "--out", "{tmp}/bad.json"],
        ["verify", "--cfar-trials", "0", "--out", "{tmp}/no-cfar.json"],
        ["pfa", *window("partial-single", "4", None), "--tau", "1",
         "--threads", "0"],
        [],
        ["--help"],
    ]
    calls += [[command, "--help"] for command in
              ("pfa", "threshold", "simulate", "verify", "sweep", "sample")]
    return calls


def digest(main, argv: list[str], tmp: str) -> tuple[int, str]:
    """Exit code and sha256 of one call's stdout, stderr and new files."""
    before = set(os.listdir(tmp))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{tmp}", tmp) for arg in argv])
    h = hashlib.sha256()
    for text in (out.getvalue(), err.getvalue()):
        h.update(text.replace(tmp, "{tmp}").encode() + b"\0")
    for name in sorted(set(os.listdir(tmp)) - before):
        h.update(name.encode() + b"\0" + (Path(tmp) / name).read_bytes())
    return code, h.hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    os.environ["COLUMNS"] = "80"  # help text wraps at a fixed width
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    from gmcfar.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for argv in invocations():
            code, sha = digest(cli_main, argv, tmp)
            print(code, sha, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
