"""Benchmark of the gmcfar CLI: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,design,simulate} --seed N \\
        --seconds S --trace {0,1}

Set-up runs in a fresh interpreter that imports the package from ``src/``
and, for ``design``, writes an adjudication report with the program itself.
With ``--trace 0`` the benchmark repeats untraced passes of the workload
for about ``--seconds`` seconds and reports the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics.  Outputs are checked outside the
timed region.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample count behind each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DESIGN_REPORT = OUT_DIR / "design-report.json"

SETUP_REPEATS = 7
# Passes that must follow the first before it is dropped as a warm-up.
WARMUP_AFTER = 4

# Layer metrics each workload must leave at zero: the workload bypasses
# that layer, so a non-zero count means its composition drifted.
BYPASS = {
    "verify": ("solver.solves", "clutter.calls"),
    "design": ("rng.variates", "detectors.calls", "simulate.calls",
               "clutter.calls", "oracles.adjudicate_calls",
               "oracles.quad_integrals", "oracles.quadrature_calls"),
    "simulate": ("solver.solves", "pfa.calls", "oracles.adjudicate_calls",
                 "oracles.quad_integrals", "oracles.quadrature_calls",
                 "oracles.validated_pfa_calls", "oracles.report_loads"),
}


def make_ops(workload: str, seed: int, scale: workloads.Scale):
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return workloads.verify_ops(rnd, scale, OUT_DIR)
    if workload == "design":
        return workloads.design_ops(rnd, scale, DESIGN_REPORT)
    return workloads.simulate_ops(rnd, scale, OUT_DIR)


def setup(workload: str, seed: int) -> float:
    """Set the workload up once; return the seconds it took.  One set-up is
    a fresh interpreter that imports the package and, for ``design``,
    writes the report the ops read with the program's own `verify`."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; "
            "import gmcfar")
    if workload == "design":
        report_seed = random.Random(f"report:{seed}").randrange(2 ** 32)
        code += ("; import workloads; workloads.make_design_report("
                 f"{report_seed}, {str(DESIGN_REPORT)!r})")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Pass:
    """One pass over a workload's ops: timings and raw outputs."""

    def __init__(self, ops, tracer=None):
        import gmcfar.cli

        gc.collect()
        self.outputs, self.latencies = [], []
        cpu_start, start = time.process_time(), time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            # Looked up per call, so a traced pass calls the wrapper.
            rc, out, err, seconds = workloads.call_cli(gmcfar.cli.main,
                                                       op.argv)
            self.outputs.append((rc, out, err))
            self.latencies.append(seconds)
        self.wall = time.perf_counter() - start
        self.cpu = time.process_time() - cpu_start


class Checks:
    """Output checks across passes, run outside the timed region."""

    def __init__(self):
        self.attempted = self.failed = self.stat_misses = 0
        self.messages: list[str] = []
        self.notes: set[str] = set()

    def add(self, ops, run: Pass) -> None:
        for op, (rc, out, err) in zip(ops, run.outputs):
            self.attempted += 1
            try:
                note = op.check(rc, out)
            except workloads.StatisticalMiss as exc:
                self.stat_misses += 1
                self.messages.append(f"statistical miss: {exc}")
            except workloads.CheckFailed as exc:
                self._fail(op, f"{exc} {err.strip()}")
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self._fail(op, f"malformed output: {exc!r}")
            else:
                if note:
                    self.notes.add(note)

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        self.messages.append(f"FAILED {' '.join(op.argv[:7])}: {message}")


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes, setup_seconds) -> tuple[dict, dict]:
    latencies = [s for p in passes for s in p.latencies]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup_seconds), "wall_s": len(passes),
               "cpu_s": len(passes), "op_p50_ms": len(latencies),
               "op_p90_ms": len(latencies), "peak_rss_mb": 1}
    return values, samples


def per_layer(workload, untraced: Pass, traced: Pass, spans):
    values = tracing.layer_metrics(spans)
    values["mc_cells_per_s"] = values.pop("mc.cells") / untraced.wall
    values["solves_per_s"] = values["solver.solves"] / untraced.wall
    values["trace.overhead_s"] = traced.wall - untraced.wall
    problems = [f"bypass: {name} = {values[name]} on {workload}"
                for name in BYPASS[workload] if values[name] != 0]
    problems += tracing.nesting_violations(spans)
    return values, problems


def git_commit():
    """The checkout's commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": git_commit()}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale_name: str = "full") -> tuple[dict, dict, object]:
    """Run one benchmark; return the result, the record printed before it,
    and the tracer (None untraced)."""
    scale = workloads.SCALES[scale_name]
    OUT_DIR.mkdir(exist_ok=True)
    checks = Checks()
    problems: list[str] = []
    tracer = None
    ops = make_ops(workload, seed, scale)
    if trace:
        setup(workload, seed)
        untraced = Pass(ops)
        checks.add(ops, untraced)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Pass(ops, tracer)
        finally:
            tracer.uninstall()
        checks.add(ops, traced)
        values, problems = per_layer(workload, untraced, traced, tracer.spans)
        samples = {"passes": 2, "ops_per_pass": len(ops),
                   "spans": len(tracer.spans)}
        tracer.write(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    else:
        setup_seconds = [setup(workload, seed) for _ in range(SETUP_REPEATS)]
        passes: list[Pass] = []
        measured = 0.0
        while True:
            passes.append(Pass(ops))
            checks.add(ops, passes[-1])
            measured += passes[-1].wall
            # Start another pass only if it should end within the budget.
            typical = statistics.median(p.wall for p in passes)
            if measured + typical > seconds:
                break
        # The first pass warms caches and the allocator up.  Where passes
        # are short enough that at least four others ran, it is checked
        # but left out of the medians.
        if len(passes) > WARMUP_AFTER:
            passes = passes[1:]
        values, samples = end_to_end(passes, setup_seconds)

    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    problems += [f"metric not computed: {name}" for name in missing]
    result = {
        "correct": checks.failed == 0 and not problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    record = {"environment": environment(workload, seed), "samples": samples,
              "scale": scale_name, "stat_misses": checks.stat_misses,
              "checks": sorted(checks.notes),
              "messages": checks.messages + problems}
    return result, record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BYPASS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmcfar" / "__init__.py").is_file():
        print(f"perfbench: no gmcfar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record, _tracer = run(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for message in record["messages"]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
