"""Tests for the command-line interface.

Most tests call ``main`` in-process for speed; one smoke test exercises the
installed console script.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess

import pytest

import gmcfar.cli
from gmcfar import (DetectorKind, PfaFormulaVariant, RandomStream,
                    adjudicate, default_grid, pfa_gm_full_multi,
                    pfa_gm_partial_multi, pfa_gm_partial_single,
                    quadrature_pfa_full_multi, solve_tau_partial_single,
                    verify)
from gmcfar.cli import main
from test_oracles import TAMPERINGS

VERIFY_ARGS = ["verify", "--trials", "1000000", "--cfar-trials", "100000",
               "--n-grid", "1,2", "--m-grid", "2,4", "--tau-grid", "0.5,1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture(scope="module")
def verify_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(VERIFY_ARGS + ["--out", str(path)])
    return path, code, out.getvalue()


@pytest.fixture
def no_adjudication(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adjudicate must not run")
    monkeypatch.setattr("gmcfar.cli.adjudicate", refuse)


class TestPfaCommand:
    def test_validated_partial_multi(self, capsys, verify_file):
        path, _, _ = verify_file
        code, out, _ = run_cli(capsys, "pfa", "--kind", "partial-multi",
                               "--n", "2", "--m", "4", "--tau", "1.0",
                               "--report", str(path))
        assert code == 0
        header, row = csv_rows(out)
        assert header == ["kind", "n_cut", "m_ref", "tau", "variant", "pfa"]
        assert row[4] == "validated:paper"
        assert float(row[5]) == 0.1875

    def test_validated_full_multi(self, capsys, verify_file):
        path, _, _ = verify_file
        code, out, _ = run_cli(capsys, "pfa", "--kind", "full-multi",
                               "--n", "2", "--m", "4", "--tau", "1.0",
                               "--report", str(path))
        assert code == 0
        row = csv_rows(out)[1]
        assert row[4] == "validated:candidate"
        want = pfa_gm_full_multi(2, 4, 1.0, PfaFormulaVariant.CANDIDATE)
        assert float(row[5]) == want

    def test_explicit_variant_needs_no_report(self, capsys):
        code, out, _ = run_cli(capsys, "pfa", "--kind", "partial-single",
                               "--n", "1", "--tau", "1.0",
                               "--variant", "paper")
        assert code == 0
        assert float(csv_rows(out)[1][5]) == 0.5

    @pytest.mark.parametrize("window", [["--kind", "partial-single", "--n", "8"],
                                        ["--kind", "partial-multi", "--n", "2",
                                         "--m", "4"]])
    def test_partial_kinds_answer_candidate_with_their_form(self, capsys,
                                                            window):
        values = []
        for variant in ("paper", "candidate"):
            code, out, _ = run_cli(capsys, "pfa", *window, "--tau", "0.7",
                                   "--variant", variant)
            assert code == 0
            values.append(csv_rows(out)[1][5])
        assert values[0] == values[1]

    def test_all_variants_full_multi(self, capsys):
        code, out, _ = run_cli(capsys, "pfa", "--kind", "full-multi",
                               "--n", "2", "--m", "4", "--tau", "1.0",
                               "--all-variants")
        assert code == 0
        rows = csv_rows(out)[1:]
        by_name = {row[4]: float(row[5]) for row in rows}
        assert set(by_name) == {"paper", "candidate", "quadrature"}
        assert by_name["paper"] == pytest.approx(19 / 144, rel=1e-14)
        assert by_name["candidate"] == pytest.approx(17 / 72, rel=1e-14)
        assert by_name["quadrature"] == pytest.approx(17 / 72, rel=1e-9)

    def test_all_variants_at_one_reference(self, capsys):
        argv = ["pfa", "--kind", "full-multi", "--n", "2", "--m", "1",
                "--tau", "1.0", "--all-variants"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = {row[4]: float(row[5]) for row in csv_rows(out)[1:]}
        assert list(rows) == ["paper", "candidate", "quadrature"]
        assert all(math.isfinite(value) for value in rows.values())
        assert rows["candidate"] == pytest.approx(5 / 9, rel=1e-14)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        results = {r["variant"]: r["pfa"]
                   for r in json.loads(out)["results"]}
        assert results == rows

    def test_crlf_csv(self, capsys):
        _, out, _ = run_cli(capsys, "pfa", "--kind", "partial-single",
                            "--n", "1", "--tau", "1.0", "--variant", "paper")
        assert out.endswith("\r\n")
        assert out.count("\r\n") == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "pfa", "--kind", "partial-single",
                               "--n", "4", "--tau", "0.5", "--variant",
                               "paper", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "partial-single"
        assert doc["m_ref"] == 4
        assert doc["results"][0]["pfa"] == pfa_gm_partial_single(4, 0.5)

    def test_without_report_low_trials_uses_quadrature(self, capsys):
        code, out, _ = run_cli(capsys, "pfa", "--kind", "full-multi",
                               "--n", "2", "--m", "4", "--tau", "1.0",
                               "--trials", "200000")
        assert code == 0
        row = csv_rows(out)[1]
        assert row[4] == "validated:no-verdict-insufficient-trials"
        assert float(row[5]) == quadrature_pfa_full_multi(2, 4, 1.0)

    def test_single_kind_rejects_m(self, capsys):
        code, _, err = run_cli(capsys, "pfa", "--kind", "full-single",
                               "--n", "1", "--m", "8", "--tau", "1.0",
                               "--variant", "paper")
        assert code == 2
        assert "not applicable" in err

    def test_multi_kind_requires_m(self, capsys):
        code, _, _ = run_cli(capsys, "pfa", "--kind", "full-multi",
                             "--n", "2", "--tau", "1.0", "--variant", "paper")
        assert code == 2

    def test_stored_null_closed_form_is_usage_error(self, capsys, tmp_path,
                                                    verify_file):
        # Reports written while full-multi refused M = 1 stored its closed
        # forms there as null.
        path, _, _ = verify_file
        good = json.loads(path.read_text())["reports"]["full-multi"]
        old = {**good["points"][0], "m_ref": 1, "paper": None,
               "candidate": None, "paper_verdict": "not-evaluated",
               "candidate_verdict": "not-evaluated", "discriminates": False,
               "insufficient_precision": False}
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({**good, "points": [old, *good["points"]]}))
        code, _, err = run_cli(capsys, "pfa", "--kind", "full-multi",
                               "--n", "2", "--m", "1", "--tau", "1.0",
                               "--report", str(bad))
        assert code == 2
        assert "field 'paper' cannot be None" in err

    def test_unknown_kind_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "pfa", "--kind", "bogus",
                             "--n", "1", "--tau", "1.0")
        assert code == 2

    def test_missing_report_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "pfa", "--kind", "full-multi",
                               "--n", "2", "--m", "4", "--tau", "1.0",
                               "--report", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read report" in err

    @pytest.mark.parametrize("damage", [
        lambda good: [1, 2],
        lambda good: {"reports": []},
        lambda good: {"schema_version": 1, "detector": "full-multi"},
        lambda good: {**good, "validated_variant": "quadrature"},
        lambda good: {**good, "points": [
            {**good["points"][0], "quadrature_excess_m": None},
            *good["points"][1:]]},
        lambda good: {**good, "unknown_field": 0},
        lambda good: {**good, "points": [
            {**good["points"][0], "mystery": 0}, *good["points"][1:]]},
    ], ids=["list", "reports-list", "no-seed", "quadrature-variant",
            "null-excess-m", "unknown-field", "unknown-point-field"])
    def test_malformed_report_exits_two(self, capsys, tmp_path, verify_file,
                                        damage):
        path, _, _ = verify_file
        good = json.loads(path.read_text())["reports"]["full-multi"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(damage(good)))
        code, _, err = run_cli(capsys, "pfa", "--kind", "full-multi",
                               "--n", "2", "--m", "4", "--tau", "1.0",
                               "--report", str(bad))
        assert code == 2
        assert err.startswith("gmcfar: ")

    @pytest.mark.parametrize("tamper", TAMPERINGS.values(), ids=TAMPERINGS)
    def test_tampered_report_exits_one(self, capsys, tmp_path, verify_file,
                                       tamper):
        path, _, _ = verify_file
        doc = json.loads(path.read_text())["reports"]["full-multi"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tamper(doc)))
        code, out, err = run_cli(capsys, "pfa", "--kind", "full-multi",
                                 "--n", "2", "--m", "4", "--tau", "1.0",
                                 "--report", str(bad))
        assert code == 1
        assert out == ""
        assert "disagree" in err


class TestThresholdCommand:
    def test_partial_single_closed_form(self, capsys, no_adjudication):
        code, out, _ = run_cli(capsys, "threshold", "--kind", "partial-single",
                               "--n", "8", "--pfa", "1e-4")
        assert code == 0
        header, row = csv_rows(out)
        assert header == ["kind", "n_cut", "m_ref", "target_pfa", "tau",
                          "achieved_pfa"]
        assert float(row[4]) == solve_tau_partial_single(8, 1e-4)
        assert float(row[5]) == pytest.approx(1e-4, rel=1e-13)

    def test_full_multi_round_trip(self, capsys, verify_file):
        path, _, _ = verify_file
        code, out, _ = run_cli(capsys, "threshold", "--kind", "full-multi",
                               "--n", "2", "--m", "8", "--pfa", "1e-3",
                               "--report", str(path))
        assert code == 0
        row = csv_rows(out)[1]
        assert abs(float(row[5]) - 1e-3) <= 1e-15

    def test_no_report_partial_multi_meets_abs_tol(self, capsys):
        # Below 10**6 trials the in-process report withholds its verdict,
        # so the solver inverts the quadrature oracle.
        code, out, _ = run_cli(capsys, "threshold", "--kind", "partial-multi",
                               "--n", "3", "--m", "8", "--pfa", "1e-6",
                               "--trials", "20000", "--format", "json")
        assert code == 0
        tau = json.loads(out)["tau"]
        assert abs(pfa_gm_partial_multi(3, 8, tau) - 1e-6) <= 1e-12 * 1e-6

    def test_one_reference_full_kind_exits_three(self, capsys, verify_file):
        path, _, _ = verify_file
        code, _, err = run_cli(capsys, "threshold", "--kind", "full-multi",
                               "--n", "2", "--m", "1", "--pfa", "1e-3",
                               "--report", str(path))
        assert code == 3
        assert "tau-invariant" in err

    def test_bad_target_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "threshold", "--kind", "partial-single",
                             "--n", "8", "--pfa", "1.5")
        assert code == 2

    def test_infinite_abs_tol_exits_two(self, capsys, no_adjudication):
        # An infinite tolerance would accept the first bracket end.
        code, out, err = run_cli(capsys, "threshold", "--kind",
                                 "partial-multi", "--n", "2", "--m", "4",
                                 "--pfa", "1e-4", "--trials", "1000",
                                 "--abs-tol", "inf")
        assert code == 2
        assert out == ""
        assert "abs_tol" in err


class TestSimulateCommand:
    ARGS = ["simulate", "--kind", "partial-multi", "--n", "2", "--m", "4",
            "--tau", "1.0", "--alpha", "5.0", "--beta", "1.0",
            "--trials", "20000", "--seed", "9"]

    def test_estimate_near_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        header, row = csv_rows(out)
        assert header == ["alpha", "beta", "trials", "rejections",
                          "estimate", "ci_low", "ci_high"]
        estimate, lo, hi = float(row[4]), float(row[5]), float(row[6])
        sigma = (hi - lo) / (2 * 1.959963984540054)
        assert abs(estimate - 0.1875) <= 4 * sigma

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 20000
        assert isinstance(doc["rejections"], int)

    def test_zero_trials_exits_two(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--trials") + 1] = "0"
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, alpha, beta", [
        ("full-multi", "0.01", "1"), ("partial-multi", "0.2", "1e300")])
    def test_beyond_double_range_exits_two(self, capsys, kind, alpha, beta):
        code, out, err = run_cli(
            capsys, "simulate", "--kind", kind, "--n", "2", "--m", "8",
            "--tau", "1", "--alpha", alpha, "--beta", beta,
            "--trials", "100000")
        assert code == 2
        assert out == ""
        assert f"alpha={float(alpha)!r} and beta={float(beta)!r}" in err
        assert "double range" in err


class TestSweepCommand:
    def test_tau_sweep_matches_closed_form(self, capsys, no_adjudication):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                               "--n", "4", "--tau-range", "0.5:2.5",
                               "--step", "0.5")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["tau", "pfa"]
        assert len(rows) == 6
        values = [(float(t), float(p)) for t, p in rows[1:]]
        for tau, pfa in values:
            assert pfa == pfa_gm_partial_single(4, tau)
        pfas = [p for _, p in values]
        assert all(a > b for a, b in zip(pfas, pfas[1:]))

    def test_pfa_sweep_round_trips(self, capsys, no_adjudication):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                               "--n", "8", "--pfa-range", "1e-2:1e-6")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["pfa", "tau"]
        assert len(rows) == 6
        taus = [float(t) for _, t in rows[1:]]
        assert all(a < b for a, b in zip(taus, taus[1:]))
        for target, tau in ((float(a), float(b)) for a, b in rows[1:]):
            assert pfa_gm_partial_single(8, tau) == pytest.approx(target,
                                                                  rel=1e-12)

    def test_full_kind_uses_validated_form(self, capsys, verify_file):
        path, _, _ = verify_file
        code, out, _ = run_cli(capsys, "sweep", "--kind", "full-multi",
                               "--n", "2", "--m", "4", "--tau-range",
                               "0.5:1.5", "--step", "0.5",
                               "--report", str(path))
        assert code == 0
        for tau_text, pfa_text in csv_rows(out)[1:]:
            want = pfa_gm_full_multi(2, 4, float(tau_text),
                                     PfaFormulaVariant.CANDIDATE)
            assert float(pfa_text) == want

    def test_requires_exactly_one_range(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                             "--n", "4")
        assert code == 2
        code, _, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                             "--n", "4", "--tau-range", "0:1",
                             "--pfa-range", "1e-2:1e-4", "--step", "0.5")
        assert code == 2

    def test_bad_range_syntax_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                             "--n", "4", "--tau-range", "1:2:3",
                             "--step", "0.5")
        assert code == 2

    @pytest.mark.parametrize("range_args", [
        ("--tau-range", "1:2:3", "--step", "0.5"),
        ("--pfa-range", "1e-2:1e-4:1"),
        ("--tau-range", "nan:1", "--step", "0.5"),
        ("--tau-range=-1:1", "--step", "0.5"),
        ("--tau-range", "0:1", "--step", "inf"),
    ])
    def test_bad_range_exits_before_adjudication(self, capsys, range_args,
                                                 no_adjudication):
        code, _, err = run_cli(capsys, "sweep", "--kind", "full-multi",
                               "--n", "4", "--m", "16", *range_args)
        assert code == 2
        assert err.startswith("gmcfar:")

    @pytest.mark.parametrize("range_args", [
        ("--tau-range", "0:1", "--step", "1e-6"),
        ("--pfa-range", "1e-1:1e-12", "--step", "1.0001"),
        # Walks of 10,001 rows, one past the cap.
        ("--tau-range", "0:999.999999999", "--step", "0.1"),
        ("--pfa-range", "0.5:2.283648659013154e-05", "--step", "1.001"),
    ])
    def test_oversized_range_exits_before_adjudication(self, capsys,
                                                       range_args,
                                                       no_adjudication):
        code, out, err = run_cli(capsys, "sweep", "--kind", "full-multi",
                                 "--n", "4", "--m", "16", *range_args)
        assert code == 2
        assert out == ""
        assert "10000 rows" in err

    def test_row_cap_is_ten_thousand(self, capsys, no_adjudication):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                               "--n", "4", "--tau-range", "0:9999",
                               "--step", "1")
        assert code == 0
        assert len(csv_rows(out)) == 1 + 10_000
        code, out, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                               "--n", "4", "--tau-range", "0:10000",
                               "--step", "1")
        assert (code, out) == (2, "")
        code, out, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                               "--n", "4", "--pfa-range",
                               "0.1:0.03679346237926673", "--step", "1.0001")
        assert code == 0
        assert len(csv_rows(out)) == 1 + 10_000

    @pytest.mark.parametrize("range_args, columns", [
        (("--tau-range", "0.5:1.5", "--step", "0.5"), ["tau", "pfa"]),
        (("--pfa-range", "1e-2:1e-4"), ["pfa", "tau"]),
    ])
    def test_json_layout(self, capsys, no_adjudication, range_args, columns):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "partial-single",
                               "--n", "4", *range_args, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"kind": "partial-single", "n_cut": 1, "m_ref": 4,
                       "columns": columns, "rows": doc["rows"]}
        assert len(doc["rows"]) == 3
        for row in doc["rows"]:
            values = dict(zip(columns, row))
            assert values["pfa"] == pytest.approx(
                pfa_gm_partial_single(4, values["tau"]), rel=1e-12)


class TestSampleCommand:
    def test_samples_above_scale(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "2.0",
                               "--beta", "2.0", "--count", "3", "--seed", "5")
        assert code == 0
        values = [float(line) for line in out.splitlines()]
        assert len(values) == 3
        assert all(v > 2.0 for v in values)

    def test_deterministic(self, capsys):
        args = ("sample", "--alpha", "2.0", "--beta", "1.0",
                "--count", "4", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "samples.txt"
        code, out, _ = run_cli(capsys, "sample", "--alpha", "2.0",
                               "--beta", "1.0", "--count", "2",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 2

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sample", "--alpha", "2.0",
                               "--beta", "1.0", "--count", "2",
                               "--out", str(tmp_path / "no-dir" / "x.txt"))
        assert code == 2
        assert "cannot write samples" in err

    def test_zero_count_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--alpha", "2.0",
                             "--beta", "1.0", "--count", "0")
        assert code == 2

    @pytest.mark.filterwarnings("error")
    def test_beyond_double_range_exits_two(self, capsys, tmp_path):
        target = tmp_path / "samples.txt"
        code, out, err = run_cli(capsys, "sample", "--alpha", "0.01",
                                 "--beta", "1", "--count", "100000",
                                 "--seed", "0", "--out", str(target))
        assert code == 2
        assert out == ""
        assert "alpha=0.01 and beta=1.0" in err
        assert not target.exists()


class TestVerifyCommand:
    def test_reduced_verify_passes(self, verify_file):
        path, code, summary = verify_file
        assert code == 0
        assert "verify: PASS" in summary
        assert path.exists()

    def test_report_contents(self, verify_file):
        path, _, _ = verify_file
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert set(doc["reports"]) == {k.value for k in DetectorKind}
        assert doc["reports"]["full-multi"]["verdict"] == "candidate"
        assert doc["reports"]["full-single"]["verdict"] == "candidate"
        assert doc["reports"]["partial-multi"]["verdict"] == "paper"
        assert doc["reports"]["partial-single"]["verdict"] == "paper"
        assert len(doc["cfar"]) == 2
        assert all(c["chi_square"]["passed"] for c in doc["cfar"])
        assert doc["reductions"]["passed"] is True
        assert doc["reductions"]["max_rel_error"] <= 1e-14

    def test_library_verify_is_what_the_cli_writes(self, verify_file):
        path, _, summary = verify_file
        report = verify((1, 2), (2, 4), (0.5, 1.0), trials=1_000_000,
                        cfar_trials=100_000)
        assert json.dumps(report._to_dict(), indent=2) + "\n" == \
            path.read_text()
        assert "\n".join(report.summary) + "\n" == summary

    def test_failing_report_exits_one(self, capsys, tmp_path, monkeypatch):
        real = gmcfar.cli.verify

        def failing(*args):
            return dataclasses.replace(real(*args), reduction_error=1.0)

        monkeypatch.setattr(gmcfar.cli, "verify", failing)
        path = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, "verify", "--trials", "20000",
                               "--cfar-trials", "2000", "--n-grid", "1",
                               "--m-grid", "2", "--tau-grid", "1",
                               "--out", str(path))
        assert code == 1
        assert out.endswith("reductions: max_rel_error=1 FAIL\n"
                            "verify: FAIL\n")
        assert json.loads(path.read_text())["passed"] is False

    def test_tiny_verify_is_reproducible(self, capsys, tmp_path):
        args = ["verify", "--trials", "50000", "--cfar-trials", "20000",
                "--n-grid", "1", "--m-grid", "2", "--tau-grid", "1"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        code_a, out_a, _ = run_cli(capsys, *args, "--out", str(first))
        code_b, out_b, _ = run_cli(capsys, *args, "--out", str(second),
                                   "--threads", "4")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert first.read_bytes() == second.read_bytes()

    def test_shared_draws_change_no_kind_evidence(self, capsys, tmp_path):
        # The kinds and windows share one draw of per-column streams, and
        # the single-pulse kinds share (1, m) with the multi-pulse kinds;
        # each report still equals that kind's adjudication on its own.
        n_grid, m_grid, taus = (1, 2), (2, 4), (0.5, 1.0)
        path = tmp_path / "r.json"
        run_cli(capsys, "verify", "--trials", "50000", "--cfar-trials",
                "2000", "--n-grid", "1,2", "--m-grid", "2,4", "--tau-grid",
                "0.5,1", "--seed", "3", "--out", str(path))
        reports = json.loads(path.read_text())["reports"]
        for kind in DetectorKind:
            alone = adjudicate(kind, default_grid(kind, n_grid, m_grid, taus),
                               trials=50_000, seed=3, tol=1e-10)
            assert reports[kind.value] == alone._to_dict()

    def test_draws_do_not_outlive_a_call(self, capsys, tmp_path, monkeypatch):
        # Each verify draws one column of trials for each cell of its widest
        # windows, which every window of the grid shares, and the CFAR stage
        # its windows once per clutter point; a second call at the same
        # seed draws all of it again.
        drawn = []
        uniforms = RandomStream.uniforms

        def counting(stream, count, start=0):
            drawn.append(count)
            return uniforms(stream, count, start)

        monkeypatch.setattr(RandomStream, "uniforms", counting)
        trials, cfar_trials = 20_000, 2_000
        cfar_points = len(gmcfar.simulate._CFAR_PARAMS)
        want = (trials * (2 + 4)
                + cfar_points * cfar_trials * ((1 + 8) + (2 + 8)))
        for _ in range(2):
            drawn.clear()
            code, _, _ = run_cli(
                capsys, "verify", "--trials", str(trials), "--cfar-trials",
                str(cfar_trials), "--n-grid", "1,2", "--m-grid", "2,4",
                "--tau-grid", "0.5,1", "--out", str(tmp_path / "r.json"))
            assert code == 0
            assert sum(drawn) == want

    def test_bad_grid_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", "--m-grid", "oops",
                             "--out", str(tmp_path / "r.json"))
        assert code == 2


class TestEntryPoint:
    def test_console_script(self):
        exe = shutil.which("gmcfar")
        assert exe is not None
        proc = subprocess.run(
            [exe, "pfa", "--kind", "partial-single", "--n", "1",
             "--tau", "1.0", "--variant", "paper"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "0.5" in proc.stdout

    def test_one_parser_serves_many_calls(self, capsys, monkeypatch):
        builds = []
        real = gmcfar.cli.build_parser

        def spy():
            builds.append(1)
            return real()

        monkeypatch.setattr(gmcfar.cli, "build_parser", spy)
        usage_error = ("threshold", "--kind", "no-such-kind", "--n", "8",
                       "--pfa", "1e-4")
        valid = ("threshold", "--kind", "partial-single", "--n", "8",
                 "--pfa", "1e-4")
        first_error = run_cli(capsys, *usage_error)
        code, help_text, _ = run_cli(capsys, "threshold", "--help")
        first_valid = run_cli(capsys, *valid)
        assert run_cli(capsys, *usage_error) == first_error
        assert run_cli(capsys, *valid) == first_valid
        assert first_error[0] == 2 and "no-such-kind" in first_error[2]
        assert code == 0 and "--pfa" in help_text
        assert first_valid[0] == 0
        assert len(builds) <= 1

    def test_bad_threads_rejected(self, capsys):
        code, _, err = run_cli(capsys, "pfa", "--kind", "partial-single",
                               "--n", "1", "--tau", "1.0",
                               "--variant", "paper", "--threads", "0")
        assert code == 2
        assert "--threads" in err
