import argparse
import csv
import io
import re
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

import mfbwalk
from mfbwalk import (make_model, occupancy_residual, oracle, validate_model,
                     visit_engine)
from mfbwalk.cli import build_parser, main
from conftest import CFG_DRIFT, CFG_SYM, FLOAT_RANGE_MODELS, model_strategy

SYM_ARGS = ["--p", "0.5", "--q", "0.5", "--p0", "0.25", "--q0", "0.25",
            "--r0", "0.25", "--s0", "0.25", "--N", "2", "--i0", "0"]
DRIFT_ARGS = ["--p", "0.4", "--q", "0.2", "--p0", "0.2", "--q0", "0.2",
              "--s0", "0.2", "--N", "2", "--i0", "0"]
# |p - q| = 1e-7, so N |log(q/p)| = 2e-6
REPO = Path(__file__).resolve().parent.parent
REFERENCE_MODELS = ["cfg-drift", "cfg-sym"]
NEAR_BALANCE_ARGS = ["--p", "0.30000005", "--q", "0.29999995", "--p0", ".2",
                     "--q0", ".3", "--s0", ".1", "--N", "6", "--i0", "0"]
# models on which the truncated lattice lost digits: tiny p, q (the hold
# 1 - p - q stored rounded), a q0 of 1e-3 at N = 2000 (reduction pivots
# that cancelled gave negative tails) and an s0 of 4.33e-6
DEFECT_MODELS = [
    "--p 7.02e-8 --q 7.02e-8 --p0 .428 --q0 .2755 --s0 .16 --N 3 --i0 1",
    "--p 1.5e-7 --q 1.5e-7 --p0 .428 --q0 .2755 --s0 .16 --N 2000 --i0 0",
    "--p .24313762749108847 --q .2285860976598959 --p0 .14550605289525223"
    " --q0 .0010126714182545685 --s0 .49409249115434833 --N 2000 --i0 119",
    "--p .148 --q .148 --p0 .377 --q0 .386 --s0 4.33e-6 --N 1000 --i0 250",
]
# q / p = 2e-17: (q - p) / p rounds to -1
EXTREME_DRIFT_ARGS = ["--p", "0.5", "--q", "1e-17", "--p0", ".3", "--q0",
                      ".3", "--s0", ".2", "--N", "10", "--i0", "0"]
# reports above the MAX_SITES row budget: a visits or verify window holds
# (B - A) N + 1 rows, an absorb-dist or barrier-time window B - A + 1 and
# the full mean-time period N + 1
OVERSIZED = [
    ["visits", *DRIFT_ARGS, "--window=-600000..600000"],
    ["verify", *DRIFT_ARGS, "--window=-600000..600000"],
    ["absorb-dist", *DRIFT_ARGS, "--window=-1000000..1000000"],
    ["barrier-time", *DRIFT_ARGS, "--window=-1000000..1000000"],
    ["mean-time", *DRIFT_ARGS[:-4], "--N", "100000000", "--i0", "0"],
]


@pytest.fixture
def sym_file(tmp_path):
    path = tmp_path / "cfg-sym.json"
    path.write_text(json.dumps(CFG_SYM))
    return str(path)


@pytest.fixture
def drift_file(tmp_path):
    path = tmp_path / "cfg-drift.json"
    path.write_text(json.dumps(CFG_DRIFT))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _model_args(raw):
    return [arg for name, value in raw.items()
            for arg in (f"--{name}", repr(value))]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestVisits:
    def test_csv_window(self, sym_file, capsys):
        code, out, _ = run(["visits", "--model", sym_file,
                            "--window", "-3..3", "--output", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 13  # sites -6..6 for N = 2
        by_site = {int(r["site"]): r for r in rows}
        assert float(by_site[0]["x"]) == pytest.approx(2.309401, abs=1e-6)
        assert by_site[1]["absorption_mass"] == ""
        assert float(by_site[0]["absorption_mass"]) == \
            pytest.approx(0.577350, abs=1e-6)

    def test_json_embeds_model(self, sym_file, capsys):
        code, out, _ = run(["visits", "--model", sym_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert validate_model(report["model"]) == validate_model(CFG_SYM)

    def test_explicit_flags(self, capsys):
        code, out, _ = run(["visits", *DRIFT_ARGS], capsys)
        assert code == 0
        rows = {r["site"]: r["x"] for r in json.loads(out)["rows"]}
        assert rows[0] == pytest.approx(2.8347335475692046, rel=1e-9)


class TestReach:
    def test_self_reach(self, sym_file, capsys):
        code, out, _ = run(["reach", "--model", sym_file,
                            "--from", "0", "--to", "0"], capsys)
        assert code == 0
        assert json.loads(out)["probability"] == \
            pytest.approx(0.566987, abs=1e-6)

    def test_negative_target(self, sym_file, capsys):
        code, out, _ = run(["reach", "--model", sym_file,
                            "--from", "0", "--to", "-2"], capsys)
        assert code == 0
        assert json.loads(out)["probability"] == \
            pytest.approx(0.2679491924311227, rel=1e-9)


class TestMeanTime:
    def test_period_rows(self, drift_file, capsys):
        code, out, _ = run(["mean-time", "--model", drift_file], capsys)
        assert code == 0
        rows = {r["i"]: r["mean_time"] for r in json.loads(out)["rows"]}
        assert rows[0] == pytest.approx(22.0 / 3.0, rel=1e-9)
        assert rows[1] == pytest.approx(9.0, rel=1e-9)
        assert rows[2] == rows[0]
        model = validate_model(CFG_DRIFT)
        assert list(rows.values()) == [mfbwalk.mean_time_any(model, i)
                                       for i in range(model.N + 1)]

    def test_single_site_csv(self, drift_file, capsys):
        code, out, _ = run(["mean-time", "--model", drift_file, "--i", "5",
                            "--output", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["mean_time"]) == pytest.approx(9.0, rel=1e-9)


class TestBarrierTime:
    def test_drift_window(self, drift_file, capsys):
        code, out, err = run(["barrier-time", "--model", drift_file,
                              "--window", "-1..1"], capsys)
        assert code == 0
        rows = {r["k"]: r["mean_time"] for r in json.loads(out)["rows"]}
        assert rows[0] == pytest.approx(2.132799526266355, rel=1e-9)
        assert err == ""  # display forms are checked by verify only

    def test_balanced_rejected(self, sym_file, capsys):
        code, _, err = run(["barrier-time", "--model", sym_file], capsys)
        assert code == 2
        assert "balanced" in err.lower()

    def test_off_barrier_start_rejected(self, capsys):
        args = DRIFT_ARGS[:-1] + ["1"]  # i0 = 1
        code, _, err = run(["barrier-time", *args], capsys)
        assert code == 2
        assert "i0" in err

    def test_near_balance_served(self, capsys):
        # a form that divides by q - p cancels here, to m_00 = -158.97
        code, out, err = run(["barrier-time", *NEAR_BALANCE_ARGS], capsys)
        assert code == 0
        assert err == ""
        rows = json.loads(out)["rows"]
        model = validate_model(json.loads(out)["model"])
        deriv = oracle.truncated_visit_derivatives(model)
        assert [r["k"] for r in rows] == list(range(-3, 4))
        for r in rows:
            assert r["mean_time"] == \
                pytest.approx(model.s0 * deriv[r["site"]], rel=1e-12)


class TestSimulate:
    def test_small_run(self, sym_file, capsys):
        code, out, _ = run(["simulate", "--model", sym_file,
                            "--walks", "2000", "--seed", "11"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["absorbed"] + report["censored"] == 2000
        assert abs(report["mean_steps"] - 5.0) < 6.0 * report["mean_steps_se"]

    def test_csv_shape(self, sym_file, capsys):
        code, out, _ = run(["simulate", "--model", sym_file,
                            "--walks", "500", "--output", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        kinds = {r["kind"] for r in rows}
        assert kinds == {"mean_steps", "absorption_frequency", "visit_mean"}

    @pytest.mark.parametrize("window", ["--window=5..6", "--window=3..6",
                                        "--window=-9..-7"])
    def test_window_without_start_site(self, drift_file, window, capsys):
        code, out, err = run(["simulate", "--model", drift_file,
                              "--walks", "3000", window], capsys)
        assert code == 0
        assert "Traceback" not in err
        lo, hi = (int(x) for x in window.split("=")[1].split(".."))
        assert [int(k) for k in json.loads(out)["visit_means"]] == \
            list(range(lo, hi + 1))


    def test_censoring_warning_is_one_stable_line(self, capsys):
        code, _, err = run(["simulate", "--model",
                            str(REPO / "models" / "cfg-drift.json"),
                            "--walks", "2000", "--step-cap", "2"], capsys)
        assert code == 0
        assert err.splitlines() == [
            "warning: ExcessCensoring: 1405 of 2000 walks hit the step cap 2"]
        assert "oracle.py" not in err

    def test_negative_step_cap_exits_2(self, drift_file, capsys):
        code, out, err = run(["simulate", "--model", drift_file,
                              "--walks", "100", "--step-cap", "-3"], capsys)
        assert (code, out) == (2, "")
        assert "step_cap must be >= 0" in err

    @pytest.mark.parametrize("argv", [["--walks", "1"],
                                      ["--walks", "3", "--step-cap", "0"]])
    def test_undefined_statistics_print_null(self, drift_file, argv, capsys):
        # one walk has no standard error, and no absorbed walk no step mean
        code, out, _ = run(["simulate", "--model", drift_file, *argv], capsys)
        assert code == 0
        report = json.loads(out, parse_constant=_reject_constant)
        if report["walks"] == 1:
            assert report["mean_steps_se"] is None
            assert all(se is None for _, se in report["visit_means"].values())
        else:
            assert report["mean_steps"] is None
            assert report["mean_steps_se"] is None

    def test_undefined_statistics_print_empty_csv_fields(self, drift_file, capsys):
        code, out, _ = run(["simulate", "--model", drift_file, "--walks", "3",
                            "--step-cap", "0", "--output", "csv"], capsys)
        assert code == 0
        assert "nan" not in out.lower()
        rows = list(csv.DictReader(io.StringIO(out)))
        steps = next(r for r in rows if r["kind"] == "mean_steps")
        assert (steps["value"], steps["se"]) == ("", "")

    def test_window_beyond_max_sites_exits_2_at_once(self, drift_file, capsys):
        t0 = time.perf_counter()
        code, out, err = run(["simulate", "--model", drift_file, "--walks", "10",
                              "--window=-100000000..100000000"], capsys)
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert f"more than {oracle.MAX_SITES}" in err


class TestExitCodes:
    def test_usage_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 64

    def test_usage_bad_window(self, sym_file, capsys):
        assert run(["visits", "--model", sym_file, "--window", "oops"],
                   capsys)[0] == 64

    def test_usage_model_and_flags_conflict(self, sym_file, capsys):
        assert run(["visits", "--model", sym_file, "--p", "0.5"],
                   capsys)[0] == 64

    def test_usage_no_model(self, capsys):
        assert run(["visits"], capsys)[0] == 64

    def test_truncation_flag_is_gone(self, sym_file, capsys):
        assert run(["verify", "--model", sym_file, "--K", "40"],
                   capsys)[0] == 64

    @pytest.mark.parametrize("argv", OVERSIZED, ids=lambda argv: argv[0])
    def test_oversized_report_exits_2_before_any_row(self, argv, capsys):
        t0 = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert f"more than {oracle.MAX_SITES}" in err

    def test_missing_file_is_66(self, capsys):
        assert run(["visits", "--model", "/nonexistent/x.json"],
                   capsys)[0] == 66

    def test_overflow_is_2_without_traceback(self, monkeypatch, capsys):
        def overflow(model):
            raise OverflowError("math range error")

        monkeypatch.setattr(visit_engine, "total_absorption", overflow)
        code, _, err = run(["absorb-dist", *DRIFT_ARGS], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert err.strip() == "cannot compute: OverflowError: math range error"

    @pytest.mark.parametrize("raw,command", [
        *[(raw, command) for raw in FLOAT_RANGE_MODELS
          for command in (["mean-time"], ["mean-time", "--i", "1"])],
        *[(raw, ["absorb-dist"]) for raw in FLOAT_RANGE_MODELS[1:]],
        (FLOAT_RANGE_MODELS[2], ["barrier-time"]),
    ])
    def test_beyond_the_float_range_is_2_in_one_line(self, raw, command,
                                                      capsys):
        code, out, err = run([*command, *_model_args(raw)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("cannot compute: OverflowError: ")

    @pytest.mark.parametrize("command", ["mean-time", "barrier-time", "verify"])
    def test_extreme_drift_is_0(self, command, capsys):
        code, out, _ = run([command, *EXTREME_DRIFT_ARGS], capsys)
        assert code == 0
        if command == "verify":
            assert json.loads(out)["ok"]

    @pytest.mark.parametrize("p,q", [("0.4", "0.1"), ("0.1", "0.4")])
    def test_large_drift_absorb_dist_is_0(self, p, q, capsys):
        # N |log rho| = 832: every power of max(rho, 1/rho) overflows a double
        code, out, err = run(["absorb-dist", "--p", p, "--q", q,
                              "--p0", "0.3", "--q0", "0.3", "--s0", "0.2",
                              "--N", "600", "--i0", "0"], capsys)
        assert code == 0
        assert err == ""
        assert json.loads(out)["total"] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_model_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CFG_SYM, s0=0.0, r0=0.5)))
        code, _, err = run(["visits", "--model", str(bad)], capsys)
        assert code == 2
        assert "s0" in err


class TestVerify:
    def test_drift_passes_with_discrepancy_note(self, drift_file, capsys):
        code, out, err = run(["verify", "--model", drift_file], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["ok"]
        assert all(r["status"] == "pass" for r in report["rows"])
        # the display-form deviation is reported but not fatal
        assert report["formula_discrepancies"]
        assert "FormulaDiscrepancy" in err

    def test_strict_formulas_exit_code(self, drift_file, capsys):
        code, out, _ = run(["verify", "--model", drift_file,
                            "--strict-formulas"], capsys)
        assert code == 3
        assert json.loads(out)["ok"]  # rows pass; the strict flag trips

    def test_balanced_passes_clean(self, sym_file, capsys):
        code, out, _ = run(["verify", "--model", sym_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["formula_discrepancies"] == []

    def test_single_walk_exits_2(self, sym_file, capsys):
        # one walk has no standard error to set the Monte-Carlo tolerance
        code, out, err = run(["verify", "--model", sym_file, "--walks", "1"],
                             capsys)
        assert (code, out) == (2, "")
        assert "--walks" in err

    def test_verify_with_monte_carlo(self, sym_file, capsys):
        code, out, _ = run(["verify", "--model", sym_file,
                            "--walks", "50000", "--seed", "42"], capsys)
        assert code == 0
        report = json.loads(out)
        quantities = {r["quantity"] for r in report["rows"]}
        assert "mc_mean_steps" in quantities
        assert "mc_absorption_frequency" in quantities

    def test_csv_column_order(self, sym_file, capsys):
        code, out, _ = run(["verify", "--model", sym_file,
                            "--output", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "quantity,index,closed_form,oracle,delta," \
                         "tolerance,mode,status"

    def test_bless_then_diff_clean(self, drift_file, tmp_path, capsys):
        golden = str(tmp_path / "drift.golden.json")
        code, _, err = run(["verify", "--model", drift_file,
                            "--golden", golden, "--bless"], capsys)
        assert code == 0
        assert "blessed" in err
        code, out, _ = run(["verify", "--model", drift_file,
                            "--golden", golden], capsys)
        assert code == 0
        assert json.loads(out)["golden_mismatches"] == []

    def test_golden_mismatch_detected(self, drift_file, tmp_path, capsys):
        golden = tmp_path / "drift.golden.json"
        run(["verify", "--model", drift_file, "--golden", str(golden),
             "--bless"], capsys)
        records = json.loads(golden.read_text())
        records[0]["value"] += 1.0
        golden.write_text(json.dumps(records))
        code, out, err = run(["verify", "--model", drift_file,
                              "--golden", str(golden)], capsys)
        assert code == 3
        assert json.loads(out)["golden_mismatches"]
        assert "golden mismatch" in err

    @pytest.mark.parametrize("args", DEFECT_MODELS, ids=[
        "tiny-pq-N3", "tiny-pq-N2000", "small-q0-N2000", "small-s0-N1000"])
    def test_defect_models_pass(self, args, capsys):
        code, out, _ = run(["verify", *args.split(), "--window=-1..1"],
                           capsys)
        report = json.loads(out)
        assert [r for r in report["rows"] if r["status"] != "pass"] == []
        assert code == 0

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_golden_simulate_runs_once(self, name, monkeypatch, capsys):
        calls = []
        real = oracle.simulate

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "simulate", counting)
        golden = REPO / "goldens" / f"{name}.json"
        records = json.loads(golden.read_text())
        assert sum(r["oracle"] == "simulate" for r in records) == 6
        code, out, _ = run(["verify", "--model",
                            str(REPO / "models" / f"{name}.json"),
                            "--golden", str(golden)], capsys)
        assert code == 0
        assert json.loads(out)["golden_mismatches"] == []
        assert len(calls) == 1

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_golden_tampering_detected_per_record(self, name, tmp_path,
                                                  capsys):
        records = json.loads((REPO / "goldens" / f"{name}.json").read_text())
        freq = next(r for r in records
                    if r["quantity"] == "absorption_frequency"
                    and r["index"] == 1)
        site = next(r for r in records
                    if r["quantity"] == "site_visits" and r["index"] == 2)
        freq["value"] += 1e-5
        site["value"] *= 1.0 + 1e-6
        golden = tmp_path / f"{name}.json"
        golden.write_text(json.dumps(records))
        code, out, err = run(["verify", "--model",
                              str(REPO / "models" / f"{name}.json"),
                              "--golden", str(golden)], capsys)
        assert code == 3
        misses = json.loads(out)["golden_mismatches"]
        assert [(m["quantity"], m["index"]) for m in misses] == \
            [("site_visits", 2), ("absorption_frequency", 1)]
        assert sum(line.startswith("golden mismatch")
                   for line in err.splitlines()) == 2

    @pytest.mark.parametrize("oracle_name,key,value,misses", [
        ("truncated_solver", "K", 31, 13),    # another truncation
        ("simulate", "step_cap", 999, 6),     # another step cap
        ("periodic_solve", None, None, 3),    # an oracle the battery never names
    ])
    def test_golden_provenance_tampering_detected(self, oracle_name, key, value,
                                                  misses, tmp_path, capsys):
        # values that the edited params still reproduce within bound are
        # mismatches too: a record matches only the call the battery makes
        records = json.loads((REPO / "goldens" / "cfg-drift.json").read_text())
        for rec in records:
            if rec["oracle"] == oracle_name:
                if key is None:
                    rec["oracle"] = "dense_solve"
                else:
                    rec["params"][key] = value
        golden = tmp_path / "cfg-drift.json"
        golden.write_text(json.dumps(records))
        code, out, err = run(["verify", "--model",
                              str(REPO / "models" / "cfg-drift.json"),
                              "--golden", str(golden)], capsys)
        assert code == 3
        assert len(json.loads(out)["golden_mismatches"]) == misses
        assert sum(line.startswith("golden mismatch")
                   for line in err.splitlines()) == misses

    @pytest.mark.parametrize("content", [
        [{}],
        {"a": 1},
        [1],
        [{"model": CFG_DRIFT, "quantity": "site_visits", "index": 0.5,
          "value": 1.0, "oracle": "truncated_solver"}],
        [{"model": CFG_DRIFT, "quantity": "mean_steps", "index": 0,
          "value": 7.0, "oracle": "simulate", "params": {"walks": 10}}],
    ], ids=["empty-record", "not-a-list", "not-an-object", "float-index",
            "simulate-without-seed"])
    def test_malformed_golden_is_2_in_one_line(self, content, drift_file,
                                               tmp_path, capsys):
        golden = tmp_path / "bad.json"
        golden.write_text(json.dumps(content))
        code, out, err = run(["verify", "--model", drift_file,
                              "--golden", str(golden)], capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("model,golden", [("cfg-sym", "cfg-drift"),
                                              ("cfg-drift", "cfg-sym")])
    def test_golden_of_another_model_is_2_in_one_line(self, model, golden,
                                                      capsys):
        # the matching pairs exit 0 in test_golden_simulate_runs_once
        code, out, err = run(["verify", "--model",
                              str(REPO / "models" / f"{model}.json"),
                              "--golden", str(REPO / "goldens" / f"{golden}.json")],
                             capsys)
        assert code == 2
        assert out == ""
        assert "another model" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("how", ["window", "bless", "golden"])
    def test_window_past_truncation_is_2_in_one_line(self, how, tmp_path,
                                                     capsys):
        # cfg-sym truncates at K = 26 barriers, sites -52..52
        model = str(REPO / "models" / "cfg-sym.json")
        golden = tmp_path / "cfg-sym.json"
        argv = ["verify", "--model", model]
        if how in ("window", "bless"):
            argv += ["--window", "-40..40"]
        if how == "bless":
            argv += ["--golden", str(golden), "--bless"]
        if how == "golden":
            records = json.loads((REPO / "goldens" / "cfg-sym.json").read_text())
            records[0]["index"] = -80
            golden.write_text(json.dumps(records))
            argv += ["--golden", str(golden)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "truncated lattice" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert golden.exists() == (how == "golden")

    def test_barrier_times_exact_at_n100(self, capsys):
        # m_0 is about 300 here, so a difference quotient in z with a fixed
        # step is far off; the exact derivative agrees to round-off
        code, out, _ = run(["verify", "--p", ".26", "--q", ".24", "--p0", ".3",
                            "--q0", ".3", "--s0", ".2", "--N", "100",
                            "--i0", "0"], capsys)
        assert code == 0
        rows = [r for r in json.loads(out)["rows"]
                if r["quantity"] == "mean_time_to_barrier"]
        assert len(rows) == 11
        assert all(r["delta"] < 1e-12 for r in rows)

    def test_near_balance_has_barrier_time_checks(self, capsys):
        code, out, _ = run(["verify", *NEAR_BALANCE_ARGS], capsys)
        assert code == 0
        rows = [r for r in json.loads(out)["rows"]
                if r["quantity"] == "mean_time_to_barrier"]
        assert [r["index"] for r in rows] == list(range(-5, 6))
        assert all(r["status"] == "pass" for r in rows)

    @pytest.mark.parametrize("p,q", [("0.4", "0.1"), ("0.1", "0.4")])
    @pytest.mark.parametrize("i0", ["0", "599"])
    def test_large_drift_passes(self, p, q, i0, capsys):
        code, out, _ = run(["verify", "--p", p, "--q", q, "--p0", "0.3",
                            "--q0", "0.3", "--s0", "0.2", "--N", "600",
                            "--i0", i0], capsys)
        assert code == 0
        assert json.loads(out)["ok"]

    def test_oversized_truncation_is_2(self, capsys):
        code, _, err = run(["verify", "--p", "0.3", "--q", "0.25", "--p0", "0.3",
                            "--q0", "0.3", "--s0", "1e-7", "--N", "10",
                            "--i0", "0"], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_bless_requires_golden_path(self, drift_file, capsys):
        assert run(["verify", "--model", drift_file, "--bless"],
                   capsys)[0] == 64


class TestParserReuse:
    """One parser serves every ``main`` call of a process; nothing a call
    parses reaches the next one."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_output_format_does_not_carry_over(self, sym_file, capsys):
        code, out, _ = run(["visits", "--model", sym_file, "--output", "csv"],
                           capsys)
        assert code == 0 and out.startswith("site,x,absorption_mass")
        code, out, _ = run(["visits", "--model", sym_file], capsys)
        assert code == 0 and json.loads(out)["quantity"] == "visits"

    @pytest.mark.parametrize("file_first", [True, False])
    def test_model_source_does_not_carry_over(self, file_first, sym_file,
                                              capsys):
        calls = [["visits", "--model", sym_file], ["visits", *SYM_ARGS]]
        for argv in calls if file_first else calls[::-1]:
            code, out, err = run(argv, capsys)
            assert (code, err) == (0, "")
            assert validate_model(json.loads(out)["model"]) == \
                validate_model(CFG_SYM)

    def test_usage_error_leaves_no_trace(self, sym_file, capsys):
        valid = ["reach", "--model", sym_file, "--from", "0", "--to", "3"]
        first = run(valid, capsys)
        assert run(["reach", "--model", sym_file, "--from", "0"],
                   capsys)[0] == 64
        assert run(valid, capsys) == first

    def test_verify_switches_do_not_carry_over(self, drift_file, tmp_path,
                                               capsys):
        assert run(["verify", "--model", drift_file, "--strict-formulas"],
                   capsys)[0] == 3
        assert run(["verify", "--model", drift_file], capsys)[0] == 0
        golden = tmp_path / "drift.golden.json"
        run(["verify", "--model", drift_file, "--golden", str(golden),
             "--bless"], capsys)
        records = json.loads(golden.read_text())
        records[0]["value"] += 1.0
        golden.write_text(json.dumps(records))
        # diffed, not blessed again: the tampered record stays and fails
        code, _, err = run(["verify", "--model", drift_file,
                            "--golden", str(golden)], capsys)
        assert code == 3 and "blessed" not in err
        assert json.loads(golden.read_text()) == records


class TestModuleEntry:
    """``python -m mfbwalk`` and ``python -m mfbwalk.cli`` run the CLI."""

    def _run_module(self, module, *argv):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(mfbwalk.__file__).parent.parent))
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env,
                              cwd=REPO, timeout=120)

    @pytest.mark.parametrize("module", ["mfbwalk", "mfbwalk.cli"])
    def test_verify_report_and_exit_code(self, module):
        done = self._run_module(module, "verify", "--model",
                                "models/cfg-drift.json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["ok"]

    def test_tampered_golden_exits_3(self, tmp_path):
        records = json.loads((REPO / "goldens" / "cfg-sym.json").read_text())
        records[0]["value"] += 1.0
        golden = tmp_path / "cfg-sym.json"
        golden.write_text(json.dumps(records))
        done = self._run_module("mfbwalk", "verify", "--model",
                                "models/cfg-sym.json", "--golden", str(golden))
        assert done.returncode == 3
        assert len(json.loads(done.stdout)["golden_mismatches"]) == 1


class TestCompactJson:
    """Each JSON report is one ``json.dumps`` line of the report dict."""

    COMMANDS = [
        ["visits", "--window", "-2..2"],
        ["absorb-dist"],
        ["reach", "--from", "0", "--to", "3"],
        ["mean-time"],
        ["mean-time", "--i", "1"],
        ["barrier-time"],
        ["simulate", "--walks", "300", "--seed", "5"],
        ["verify", "--walks", "300"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_one_line_of_the_report(self, command, drift_file, monkeypatch,
                                    capsys):
        reports = []
        emit = mfbwalk.cli._emit

        def spy(args, model, rows, columns, report):
            reports.append({"model": model.to_dict(), "quantity": args.command,
                            **report})
            return emit(args, model, rows, columns, report)

        monkeypatch.setattr(mfbwalk.cli, "_emit", spy)
        code, out, _ = run([*command, "--model", drift_file], capsys)
        assert code == 0
        [report] = reports
        assert out == json.dumps(report) + "\n"
        assert out.count("\n") == 1
        # the same values as the indented report printed before
        assert json.loads(out) == json.loads(json.dumps(report, indent=1))


class TestVerifyResiduals:
    """verify's occupancy rows, read from the window's visit profile, equal
    the per-site residual bit for bit."""

    @staticmethod
    def _assert_rows_equal(m, window):
        rows = [r for r in mfbwalk.cli._verify_rows(m, window, 0, 42)
                if r["quantity"] == "occupancy_residual"]
        lo, hi = window
        assert [r["index"] for r in rows] == \
            list(range(lo * m.N + 1, hi * m.N))
        for r in rows:
            assert r["closed_form"] == occupancy_residual(m, r["index"])

    @settings(max_examples=50, deadline=None)
    @given(model_strategy())
    def test_equals_occupancy_residual(self, m):
        self._assert_rows_equal(m, (-3, 3))

    @pytest.mark.parametrize("p,q", [(0.3, 0.25), (0.25, 0.3)])
    def test_equals_occupancy_residual_n100(self, p, q):
        # p > q walks are evaluated in their mirror frame
        for i0 in (0, 37):
            m = make_model(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=100, i0=i0)
            self._assert_rows_equal(m, (-2, 1))


# the command-line surface, action by action: (option strings, dest,
# default, type, choices, required, metavar, help)
HELP_FLAG = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, False,
             None, "show this help message and exit")
MODEL_FLAGS = [
    (("--model",), "model", None, None, None, False, "FILE",
     "model JSON file {p,q,r,p0,q0,r0,s0,N,i0}; exclusive with explicit flags"),
    (("--p",), "p", None, float, None, False, None, None),
    (("--q",), "q", None, float, None, False, None, None),
    (("--r",), "r", None, float, None, False, None, None),
    (("--p0",), "p0", None, float, None, False, None, None),
    (("--q0",), "q0", None, float, None, False, None, None),
    (("--r0",), "r0", None, float, None, False, None, None),
    (("--s0",), "s0", None, float, None, False, None, None),
    (("--N",), "N", None, int, None, False, None, None),
    (("--i0",), "i0", None, int, None, False, None, None),
    (("--output",), "output", "json", None, ("json", "csv"), False, None, None),
]
BARRIER_WINDOW = (("--window",), "window", "-3..3", None, None, False, "A..B",
                  None)
COMMAND_FLAGS = [
    ("visits", "expected arrivals per site", [
        (("--window",), "window", "-3..3", None, None, False, "A..B",
         "barrier index range (default -3..3)")]),
    ("absorb-dist", "absorption mass per barrier", [BARRIER_WINDOW]),
    ("reach", "probability of reaching a site", [
        (("--from",), "src", None, int, None, True, None, None),
        (("--to",), "dst", None, int, None, True, None, None)]),
    ("mean-time", "mean absorption time per start site", [
        (("--i",), "i", None, int, None, False, None,
         "single start site (default: one full period)")]),
    ("barrier-time", "mean time split per absorbing barrier (drift, i0=0)",
     [BARRIER_WINDOW]),
    ("simulate", "seeded Monte-Carlo estimates", [
        (("--walks",), "walks", 100_000, int, None, False, None, None),
        (("--seed",), "seed", 42, int, None, False, None, None),
        (("--step-cap",), "step_cap", None, int, None, False, None, None),
        (("--workers",), "workers", 1, int, None, False, None,
         "batch threads, at most one per batch and usable CPU"),
        (("--window",), "window", None, None, None, False, "A..B",
         "site window for visit means (default -3N..3N)")]),
    ("verify", "closed forms vs oracles; golden file upkeep", [
        BARRIER_WINDOW,
        (("--walks",), "walks", 0, int, None, False, None,
         "Monte-Carlo walks (0 skips simulation)"),
        (("--seed",), "seed", 42, int, None, False, None, None),
        (("--golden",), "golden", None, None, None, False, "FILE",
         "golden record file to diff (or write with --bless)"),
        (("--bless",), "bless", False, None, None, False, None,
         "regenerate the golden file from the oracles"),
        (("--strict-formulas",), "strict_formulas", False, None, None, False,
         None, "exit 3 if any display-form discrepancy is recorded")]),
]


def _subcommands() -> argparse._SubParsersAction:
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub


class TestCliSurface:
    """The commands, their flags and the report header stay as documented;
    help text is not compared, since its layout varies across Python
    versions."""

    def test_commands_and_flags(self):
        sub = _subcommands()
        summaries = {a.dest: a.help for a in sub._choices_actions}
        surface = [(name, summaries[name],
                    [(tuple(a.option_strings), a.dest, a.default, a.type,
                      a.choices, a.required, a.metavar, a.help)
                     for a in sp._actions])
                   for name, sp in sub.choices.items()]
        assert surface == [(name, summary, [HELP_FLAG, *MODEL_FLAGS, *flags])
                           for name, summary, flags in COMMAND_FLAGS]

    @pytest.mark.parametrize("command", TestCompactJson.COMMANDS, ids=" ".join)
    def test_report_starts_with_model_and_quantity(self, command, drift_file,
                                                   capsys):
        code, out, _ = run([*command, "--model", drift_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert list(report)[:2] == ["model", "quantity"]
        assert report["quantity"] == command[0]
        assert validate_model(report["model"]) == validate_model(CFG_DRIFT)

    def test_module_docstring_names_the_commands(self):
        listed = re.search(r"Subcommands:(.*?)\.", mfbwalk.cli.__doc__,
                           re.DOTALL).group(1)
        assert [name.strip() for name in listed.split(",")] == \
            list(_subcommands().choices)

    def test_readme_names_the_commands(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
        named = [[line.split()[1] for line in block.splitlines()
                  if line.startswith("mfbwalk ")] for block in blocks]
        assert list(_subcommands().choices) in named
