"""Cold-start wall time of one-shot CLI commands in two checkouts.

Usage:

    python3 tools/cold_start.py PARENT CHANGE

Runs each of a fixed set of ``python -m gmcfar.cli`` invocations in a fresh
interpreter with ``PYTHONPATH=DIR/src``, once in each checkout in each of
ten pairs; even pairs run the parent first and odd pairs the change.  The
time is what a user of the subcommand waits for: interpreter start,
imports, parsing and the computation.  A reduced ``verify`` run first, with the change's
checkout, writes the report that the ``--report`` commands read.  For each
command the tool prints each side's median and quartiles in seconds.  It
exits 1 if the runs of any command, on either side, differ in exit code or
stdout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, interleave, quartiles

PAIRS = 10

WINDOW = ["--kind", "full-multi", "--n", "2", "--m", "8"]
REPORT = "{tmp}/report.json"
VERIFY = ["verify", "--trials", "1000000", "--cfar-trials", "20000",
          "--n-grid", "2", "--m-grid", "8", "--tau-grid", "0.5,1",
          "--out", REPORT]
COMMANDS = (
    ["pfa", *WINDOW, "--tau", "0.7", "--variant", "candidate"],
    ["pfa", *WINDOW, "--tau", "0.7", "--report", REPORT],
    ["threshold", *WINDOW, "--pfa", "1e-6", "--report", REPORT],
    ["simulate", *WINDOW, "--tau", "1", "--alpha", "3", "--beta", "2",
     "--trials", "10000"],
    ["sample", "--alpha", "3", "--beta", "2", "--count", "10"],
    ["pfa", *WINDOW, "--tau", "0.7", "--variant", "quadrature"],
)


def run_once(checkout: Path, argv: list[str]) -> tuple[float, int, str]:
    """Wall seconds, exit code and stdout of one fresh-interpreter call."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gmcfar.cli", *argv],
                          cwd=checkout, env=env, capture_output=True,
                          text=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}

    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        _, code, _ = run_once(checkouts["change"],
                              [a.replace("{tmp}", tmp) for a in VERIFY])
        if code != 0:
            sys.stderr.write(f"cold_start: verify exited {code}\n")
            return 1
        print("command | parent median [q1, q3] s | change median [q1, q3] s")
        for command in COMMANDS:
            argv = [a.replace("{tmp}", tmp) for a in command]
            runs = interleave(
                PAIRS, lambda i, side: run_once(checkouts[side], argv))
            differs = len({(code, out) for side in SIDES
                           for _, code, out in runs[side]}) != 1
            mismatches += differs
            cells = []
            for side in SIDES:
                q = quartiles([seconds for seconds, _, _ in runs[side]])
                cells.append(
                    f"{q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}]")
            print(" ".join(command), "|", " | ".join(cells)
                  + (" | OUTPUT DIFFERS" if differs else ""), flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
