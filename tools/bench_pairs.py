"""Interleaved parent/change runs of the benchmark, summarised as BENCH JSON.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \\
        [--pairs 10] [--workloads verify,design,simulate] [--seed 1000] \\
        [--seconds 25]

``DIR`` is a checkout of each side.  Pair ``i`` of a workload runs
``perfbench/run.py --trace 0`` once in each checkout with the same seed;
even pairs run the parent first and odd pairs the change.  The summary
holds, per workload and end-to-end metric, each side's median and quartiles
over its runs and the number of pairs the change won (ties count for
neither), with every run's metrics, seeds and environment line.  It is
written to ``BENCH_<label>.json`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2]), **json.loads(lines[-1])}


def interleave(pairs: int, run) -> dict:
    """Each side's ``run(i, side)`` results over ``pairs`` pairs, in order.

    Even pairs run the parent first and odd pairs the change, so a drift of
    the machine during the runs weighs on both sides alike.
    """
    results = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            results[side].append(run(i, side))
    return results


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(values["parent"], values["change"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "pairs_won_by_change": won,
                     **{side: quartiles(values[side]) for side in SIDES}}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="verify,design,simulate")
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first pair of the first workload")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    doc = {"pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
    for w_index, workload in enumerate(args.workloads.split(",")):
        seeds = [args.seed + 100 * w_index + i for i in range(args.pairs)]

        def run(i: int, side: str) -> dict:
            result = run_once(getattr(args, side), workload, seeds[i],
                              args.seconds)
            print(workload, seeds[i], side,
                  result["metrics"]["wall_s"]["value"], flush=True)
            return result

        runs = interleave(args.pairs, run)
        doc["workloads"][workload] = {
            "seeds": seeds,
            "machine": runs["change"][0]["record"]["environment"],
            "all_correct": all(r["correct"] for s in SIDES for r in runs[s]),
            "failed_ops": {s: sum(r["failed"] for r in runs[s])
                           for s in SIDES},
            "metrics": summarise(runs, spec),
            "runs": {s: [{name: m["value"] for name, m in r["metrics"].items()}
                         for r in runs[s]] for s in SIDES},
        }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
