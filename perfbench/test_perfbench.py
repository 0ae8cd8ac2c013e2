"""Self-test of the benchmark at toy sizes.

Run from the repository root with ``python -m pytest perfbench``.  It is
outside the package's ``testpaths``, so the package's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

WORKLOADS = sorted(run.BYPASS)


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _public_bindings() -> dict[tuple[str, str], object]:
    bindings = {}
    for key, module in list(sys.modules.items()):
        if key == "gmcfar" or key.startswith("gmcfar."):
            for name, value in vars(module).items():
                if callable(value):
                    bindings[(key, name)] = value
    for layer, cls_name, attr in tracing.METHODS:
        cls = getattr(sys.modules[f"gmcfar.{layer}"], cls_name)
        bindings[(cls_name, attr)] = cls.__dict__[attr]
    return bindings


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record, tracer = run.run(workload, seed=3, seconds=0.01,
                                     trace=False, scale_name="toy")
    assert tracer is None
    assert result["correct"], record["messages"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert set(record["samples"]) == set(metrics)
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit",
            "seed"} <= set(record["environment"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_nested_spans(workload):
    import gmcfar.cli
    import gmcfar.oracles

    before = _public_bindings()
    result, record, tracer = run.run(workload, seed=3, seconds=0.01,
                                     trace=True, scale_name="toy")
    assert result["correct"], record["messages"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        _declared("per_layer")
    for name in run.BYPASS[workload]:
        assert metrics[name]["value"] == 0, name
    assert metrics["cli.ops"]["value"] == result["attempted"] // 2

    spans = tracer.spans
    assert spans and tracing.nesting_violations(spans) == []
    for rec in spans:
        parent = rec[tracing.PARENT]
        if parent >= 0:
            assert spans[parent][tracing.START] <= rec[tracing.START]
            assert rec[tracing.END] <= spans[parent][tracing.END]
            assert rec[tracing.OP] == spans[parent][tracing.OP]
        else:
            assert rec[tracing.NAME] == "cli.main"

    # Uninstalling restores every binding the tracer replaced.
    assert _public_bindings() == before
    assert gmcfar.oracles.quad.__module__.startswith("scipy")
    assert not hasattr(gmcfar.cli.main, "__wrapped__")


def test_design_exposes_tau0_fallback():
    result, _record, _tracer = run.run("design", seed=5, seconds=0.01,
                                       trace=True, scale_name="toy")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["solver.solves"] > 0
    assert metrics["pfa.fallback_calls"] >= metrics["solver.tau0_fallbacks"] > 0


def test_span_outside_an_op_is_flagged():
    # A worker thread's span starts a stack of its own, so it has no parent.
    spans = [["cli.main", "cli", 0.0, 2.0, -1, 0, False, None],
             ["rng.RandomStream.uniforms", "rng", 0.5, 1.0, -1, 0, False,
              None]]
    assert tracing.nesting_violations(spans) == [
        "span 1 rng.RandomStream.uniforms has no parent"]


def test_same_seed_same_inputs():
    scale = run.workloads.SCALES["toy"]
    first = [op.argv for op in run.make_ops("simulate", 9, scale)]
    again = [op.argv for op in run.make_ops("simulate", 9, scale)]
    other = [op.argv for op in run.make_ops("simulate", 10, scale)]
    assert first == again and first != other


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
