import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import re
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfbwalk
from mfbwalk import (absorption_engine, has_barrier_split, load_model,
                     make_model, occupancy_residual, oracle, validate_model,
                     visit_engine)
from mfbwalk.cli import _merge_dash_values, _UsageError, build_parser, main
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
# a subnormal p: (q - p) / p and p0 / p overflow, though every arrival,
# reach probability and mean time of the walk is finite
SUBNORMAL_P = dict(p=1e-310, q=0.5, p0=0.3, q0=0.3, s0=0.2, N=10, i0=0)
# p = q = 1e-305 at s0 = 1e-3: the oracles give their records, but the mean
# times, about 1e309, are beyond the float range
BEYOND_RANGE_TIMES = dict(p=1e-305, q=1e-305, p0=0.3, q0=0.3, s0=1e-3, N=10,
                          i0=0)
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


def layout_of(command):
    """The row layout that the parser compiled for ``command``; a command
    declared without columns fails here."""
    layout = build_parser().commands[command][0]["layout"]
    assert layout.columns, f"{command} declares no report columns"
    return layout


def row_dicts(layout, groups):
    """Each row of ``groups``, as a report hands them to its layout, as the
    dict of the layout's columns: the group's fixed values and its fields'
    values."""
    dicts = []
    for key, columns in groups:
        group = layout.groups[key]
        for values in zip(*columns):
            row = {**group.fixed, **dict(zip(group.fields, values))}
            dicts.append({name: row[name] for name in layout.columns})
    return dicts


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
        (FLOAT_RANGE_MODELS[2], ["barrier-time"]),
    ])
    def test_beyond_the_float_range_is_2_in_one_line(self, raw, command,
                                                      capsys):
        code, out, err = run([*command, *_model_args(raw)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("cannot compute: OverflowError: ")

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("command", ["visits", "reach", "mean-time"])
    def test_subnormal_p_report_is_the_library_values(self, command, output,
                                                      capsys):
        m = make_model(**SUBNORMAL_P)
        argv, key, want = {
            "visits": ([], "site", visit_engine.visit_profile(m).values),
            "reach": (["--from", "0", "--to", "3"], "from",
                      {0: visit_engine.reach_probability(m, 0, 3)}),
            "mean-time": ([], "i", dict(enumerate(
                mfbwalk.mean_time_period(m)))),
        }[command]
        code, out, err = run([command, *argv, *_model_args(SUBNORMAL_P),
                              "--output", output], capsys)
        assert (code, err) == (0, "")
        if output == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            report = json.loads(out)
            rows = report.get("rows", [report])
        value = {"site": "x", "from": "probability", "i": "mean_time"}[key]
        got = {int(r[key]): float(r[value]) for r in rows}
        assert got == want
        assert all(map(math.isfinite, got.values()))

    def test_subnormal_s0_total_absorption_is_one(self, capsys):
        # s0 is divided by each root's gap before the product
        code, out, err = run(["absorb-dist",
                              *_model_args(FLOAT_RANGE_MODELS[1])], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["total"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("command", [
        "visits", "absorb-dist", "reach", "mean-time", "mean-time --i",
        "barrier-time", "simulate", "verify"])
    def test_no_report_prints_a_non_finite_value(self, command, value, output,
                                                 monkeypatch, capsys):
        # one float of the report's rows is replaced by the value
        def one_site(profile):
            profile.values[1] = value
            return profile

        def one_frequency(stats):
            return dataclasses.replace(
                stats, absorption_hist={**stats.absorption_hist, 0: value})

        argv, module, name, put = {
            "visits": ([], visit_engine, "visit_profile", one_site),
            "absorb-dist": ([], visit_engine, "absorption_mass",
                            lambda mass: value),
            "reach": (["--from", "0", "--to", "3"], visit_engine,
                      "reach_probability", lambda probability: value),
            "mean-time": ([], absorption_engine, "mean_time_period",
                          lambda times: (*times[:-1], value)),
            "mean-time --i": (["--i", "1"], absorption_engine,
                              "mean_time_any", lambda time: value),
            "barrier-time": ([], absorption_engine, "mean_time_to_barrier",
                             lambda time: value),
            "simulate": (["--walks", "300"], oracle, "simulate",
                         one_frequency),
            "verify": ([], visit_engine, "total_absorption",
                       lambda total: value),
        }[command]
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: put(real(*args, **kwargs)))
        code, out, err = run([command.split()[0], *argv, *DRIFT_ARGS,
                              "--output", output], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("cannot compute: OverflowError: ")

    def test_subnormal_s0_refuses_the_default_step_cap(self, capsys):
        # the mean time from the start, 1/s0 in scale, is beyond the float
        # range, and 50 times it is no step count
        code, out, err = run(["simulate", "--walks", "10",
                              *_model_args(FLOAT_RANGE_MODELS[1])], capsys)
        assert (code, out) == (2, "")
        assert err == ("cannot compute: OverflowError: the default step cap "
                       "is beyond the float range\n")

    def test_subnormal_s0_bless_refuses_the_truncation(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        code, out, err = run(["verify", *_model_args(FLOAT_RANGE_MODELS[1]),
                              "--golden", str(golden), "--bless"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("invalid request: the tail decays by ")
        assert "no truncation K reaches the tolerance" in err
        assert len(err.splitlines()) == 1
        assert not golden.exists()

    def test_refused_bless_leaves_no_golden(self, tmp_path, capsys):
        # the period's mean times are beyond the float range: the periodic
        # solve refuses them by name, with no numpy warning on the way
        golden = tmp_path / "golden.json"
        code, out, err = run(["verify", *_model_args(BEYOND_RANGE_TIMES),
                              "--golden", str(golden), "--bless"], capsys)
        assert (code, out) == (2, "")
        assert err == ("cannot compute: OverflowError: a mean time of "
                       "the period is beyond the float range\n")
        assert not golden.exists()

    def test_bless_of_a_non_finite_report_leaves_no_golden(
            self, drift_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(visit_engine, "total_absorption",
                            lambda model: math.nan)
        golden = tmp_path / "golden.json"
        code, out, err = run(["verify", "--model", drift_file,
                              "--golden", str(golden), "--bless"], capsys)
        assert (code, out) == (2, "")
        assert err == ("cannot compute: OverflowError: a value of the verify "
                       "report is beyond the float range\n")
        assert not golden.exists()

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

    @pytest.mark.parametrize("bless", [False, True])
    def test_negative_walks_exits_2_before_any_oracle(
            self, bless, sym_file, tmp_path, monkeypatch, capsys):
        # refused like simulate --walks -5, not run with the walker rows
        # dropped or blessed into a golden without simulate records
        golden = tmp_path / "g.json"
        argv = ["verify", "--model", sym_file, "--walks", "-5"]
        if bless:
            argv += ["--golden", str(golden), "--bless"]
        monkeypatch.setattr(oracle, "Battery",
                            mock.Mock(side_effect=AssertionError))
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "invalid request: walks must be >= 0 (got -5)\n"
        assert not golden.exists()

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

    @pytest.mark.parametrize("name,window,site,K", [
        ("cfg-drift", "-40..40", -80, 32), ("cfg-drift", "-1..40", 64, 32),
        ("cfg-drift", "30..40", 64, 32), ("cfg-sym", "-1..40", 52, 26),
        ("cfg-sym", "30..40", 60, 26)])
    def test_window_reaching_the_sinks_names_its_first_site(
            self, name, window, site, K, capsys):
        # the oracle column is one slice of the lattice; a window that
        # reaches the sinks is refused at the first of its sites that does
        code, out, err = run(["verify", "--model",
                              str(REPO / "models" / f"{name}.json"),
                              f"--window={window}"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"invalid request: site {site} is not inside the "
                       f"truncated lattice (K={K}, |site| < {2 * K})\n")

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


# the (quantity, index, tolerance, mode) of each row of ``verify --walks
# 300``, in order; the Monte-Carlo tolerances are four standard errors of
# the seeded run
VERIFY_ROWS_AT_300_WALKS = {
    "cfg-drift": [
        ("total_absorption", "", 1e-10, "abs"),
        ("conservation", "", 1e-10, "abs"),
        *[("site_visits", j, 1e-8, "rel") for j in range(-6, 7)],
        *[("mean_time_any", i, 1e-10, "rel") for i in range(3)],
        *[("barrier_recurrence_residual", k, 1e-10, "abs") for k in range(-3, 4)],
        *[("occupancy_residual", j, 1e-10, "abs") for j in range(-5, 6)],
        *[("mean_time_to_barrier", k, 1e-10, "rel") for k in range(-5, 6)],
        ("mc_mean_steps", "", 1.875484825216467, "abs"),
        ("mc_absorption_frequency", -2, 0.03486269363384602, "abs"),
        ("mc_absorption_frequency", -1, 0.06928203230275509, "abs"),
        ("mc_absorption_frequency", 0, 0.11398245479020006, "abs"),
        ("mc_absorption_frequency", 1, 0.09406380813043877, "abs"),
        ("mc_absorption_frequency", 2, 0.05189162495760506, "abs"),
    ],
    "cfg-sym": [
        ("total_absorption", "", 1e-10, "abs"),
        ("conservation", "", 1e-10, "abs"),
        *[("site_visits", j, 1e-8, "rel") for j in range(-6, 7)],
        *[("mean_time_any", i, 1e-10, "rel") for i in range(3)],
        *[("barrier_recurrence_residual", k, 1e-10, "abs") for k in range(-3, 4)],
        *[("occupancy_residual", j, 1e-10, "abs") for j in range(-5, 6)],
        ("mc_mean_steps", "", 1.3515093342224922, "abs"),
        ("mc_absorption_frequency", -2, 0.04525483399593904, "abs"),
        ("mc_absorption_frequency", -1, 0.0801332224070225, "abs"),
        ("mc_absorption_frequency", 0, 0.11433284742365162, "abs"),
        ("mc_absorption_frequency", 1, 0.088077407032846, "abs"),
        ("mc_absorption_frequency", 2, 0.050332229568471665, "abs"),
    ],
}


class TestVerifyBattery:
    """One ``verify`` process runs each oracle once: its rows, the records
    ``--bless`` writes and the golden diff read one battery, which draws a
    second walker run only for a golden made with other walks or seed."""

    @staticmethod
    def _count_oracle_calls(monkeypatch) -> dict:
        calls = dict.fromkeys(("truncated_visits", "derivatives",
                               "periodic_mean_times", "simulate"), 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("truncated_visits", "periodic_mean_times", "simulate"):
            monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
        monkeypatch.setattr(oracle.TruncatedVisits, "derivatives",
                            counting("derivatives",
                                     oracle.TruncatedVisits.derivatives))
        return calls

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_each_oracle_runs_once_per_process(self, name, monkeypatch,
                                               tmp_path, capsys):
        model = str(REPO / "models" / f"{name}.json")
        split = int(has_barrier_split(load_model(model)))
        golden = str(tmp_path / "golden.json")
        committed = str(REPO / "goldens" / f"{name}.json")
        calls = self._count_oracle_calls(monkeypatch)
        for flags, simulations in [
                (["--golden", golden, "--bless", "--walks", "300", "--seed", "7"], 1),
                (["--golden", golden, "--walks", "300", "--seed", "7"], 1),
                (["--golden", golden, "--walks", "400", "--seed", "7"], 2),
                (["--golden", golden, "--walks", "300", "--seed", "8"], 2),
                (["--golden", golden], 1),
                (["--walks", "300"], 1),
                (["--golden", committed, "--walks", "100000"], 1)]:
            calls.update(dict.fromkeys(calls, 0))
            code, out, _ = run(["verify", "--model", model, *flags], capsys)
            assert json.loads(out)["golden_mismatches"] == [], flags
            assert calls == {"truncated_visits": 1, "derivatives": split,
                             "periodic_mean_times": 1,
                             "simulate": simulations}, flags

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_bless_writes_the_battery_records(self, name, tmp_path, capsys):
        model = REPO / "models" / f"{name}.json"
        golden = tmp_path / "golden.json"
        run(["verify", "--model", str(model), "--golden", str(golden),
             "--bless", "--window=-2..1", "--walks", "300", "--seed", "7"],
            capsys)
        assert json.loads(golden.read_text()) == \
            oracle.Battery(load_model(model)).records(2, 300, 7)

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_row_sequence_at_300_walks(self, name, capsys):
        code, out, _ = run(["verify", "--model",
                            str(REPO / "models" / f"{name}.json"),
                            "--walks", "300"], capsys)
        assert code == 0
        assert [(r["quantity"], r["index"], r["tolerance"], r["mode"])
                for r in json.loads(out)["rows"]] == \
            VERIFY_ROWS_AT_300_WALKS[name]


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


def _command_actions(name: str) -> list[argparse.Action]:
    """The actions of command ``name`` that take a flag, help aside."""
    return [a for a in _subcommands().choices[name]._actions
            if not isinstance(a, argparse._HelpAction)]


def _value_text(action: argparse.Action):
    """A strategy of valid value texts for ``action``."""
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.integers(-10**6, 10**6).map(str)
    if action.type is float:
        return st.floats().map(repr)
    if action.metavar == "A..B":
        return st.sampled_from(["-3..3", "0..2", "-1..1"])
    return st.sampled_from(["models/cfg-sym.json", "g.json"])


@st.composite
def _flag_argv(draw) -> list[str]:
    """One command line drawn from the parser's own actions: a command and
    some of its flags, each as '--flag value' or '--flag=value', then
    mutated the ways a user gets a command line wrong."""
    name = draw(st.sampled_from([*_subcommands().choices, "nope"]))
    actions = _command_actions(name) if name != "nope" else []
    argv = [name]
    for action in draw(st.lists(st.sampled_from(actions), max_size=6)
                       if actions else st.just([])):
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(_value_text(action))}")
        else:
            argv += [flag, draw(_value_text(action))]
    mutation = draw(st.sampled_from([
        "none", "abbreviate", "duplicate", "help", "dashes", "unknown",
        "missing value", "malformed", "bless=x", "positional"]))
    if mutation == "abbreviate" and len(argv) > 1:
        i = draw(st.integers(1, len(argv) - 1))
        if argv[i].startswith("--"):
            argv[i] = argv[i][:draw(st.integers(2, max(2, len(argv[i]) - 1)))]
    elif mutation == "duplicate" and len(argv) > 1:
        argv += argv[1:]
    elif mutation in ("help", "dashes", "unknown", "positional"):
        token = {"help": draw(st.sampled_from(["-h", "--help"])),
                 "dashes": "--", "unknown": "--bogus",
                 "positional": "visits"}[mutation]
        argv.insert(draw(st.integers(1, len(argv))), token)
    elif mutation == "missing value" and actions:
        argv.append(draw(st.sampled_from(
            [a.option_strings[0] for a in actions if a.nargs != 0])))
    elif mutation == "malformed" and actions:
        action = draw(st.sampled_from([a for a in actions if a.nargs != 0]))
        argv += [action.option_strings[0], draw(st.sampled_from(
            ["abc", "1e3", "1.5", "0x10", " 7", "", "xml", "-x", "--", "a=b"]))]
    elif mutation == "bless=x":
        argv.append(draw(st.sampled_from(["--bless=x", "--bless=",
                                          "--strict-formulas=1"])))
    return argv


def _outcome(fn, *args):
    """``fn(*args)`` as (result, stdout, stderr), a usage error or a
    SystemExit (help) standing in for the result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(*args)
        except (_UsageError, SystemExit) as exc:
            result = (type(exc).__name__, str(exc))
    return result, out.getvalue(), err.getvalue()


class TestFlagTable:
    """The flag table compiled with the parser parses every exact command
    line as argparse does, and hands every other one to argparse."""

    @settings(max_examples=600, deadline=None)
    @given(_flag_argv())
    def test_table_agrees_with_argparse(self, argv):
        argv = _merge_dash_values(argv)
        table = build_parser().parse_exact(argv)
        reference, _, _ = _outcome(build_parser().parse_args, argv)
        # compared by repr, so that a nan value equals itself
        assert table is None or isinstance(reference, argparse.Namespace) \
            and repr(sorted(vars(table).items())) == \
            repr(sorted(vars(reference).items()))

    @settings(max_examples=300, deadline=None)
    @given(_flag_argv())
    def test_main_is_unchanged_without_the_table(self, argv):
        # the parsed namespace stands in for the command's run, so that
        # every draw costs a parse, not a computation
        def stop(args):
            raise _UsageError(f"parsed {sorted(vars(args).items())}")

        with mock.patch.object(mfbwalk.cli, "_model_from_args", stop):
            fast = _outcome(main, argv)
            with mock.patch.object(type(build_parser()), "parse_exact",
                                   lambda self, argv: None):
                slow = _outcome(main, argv)
        assert fast == slow

    @pytest.mark.parametrize("argv,message", [
        (["reach", "--model", "m.json", "--from", "0"],
         "the following arguments are required: --to"),
        (["visits", "--output", "xml"],
         "argument --output: invalid choice: 'xml' (choose from 'json', 'csv')"),
        (["verify", "--bless=x"],
         "argument --bless: ignored explicit argument 'x'"),
        (["simulate", "--walks", "1e3"],
         "argument --walks: invalid int value: '1e3'"),
        (["mean-time", "--golden", "g.json"],
         "unrecognized arguments: --golden g.json"),
        (["visits", "--model"], "argument --model: expected one argument"),
    ])
    def test_usage_errors_are_argparse_texts(self, argv, message, capsys):
        assert build_parser().parse_exact(argv) is None
        assert run(argv, capsys) == (64, "", f"usage error: {message}\n")

    def test_abbreviations_still_parse(self, capsys):
        argv = ["reach", *DRIFT_ARGS, "--fr", "0", "--t", "3"]
        assert build_parser().parse_exact(argv) is None
        assert run(argv, capsys) == \
            run(["reach", *DRIFT_ARGS, "--from", "0", "--to", "3"], capsys)

    @staticmethod
    def _spy_main(argvs, monkeypatch) -> list:
        """Run ``main`` on each of ``argvs`` up to the model step; the
        argv of each call that reached ``ArgumentParser.parse_args``."""
        slow = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, args=None, namespace=None):
            slow.append(args)
            return parse_args(self, args, namespace)

        def stop(args):
            raise _UsageError("parsed")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        monkeypatch.setattr(mfbwalk.cli, "_model_from_args", stop)
        for argv in argvs:
            _outcome(main, argv)
        return slow

    def test_readme_command_lines_take_the_table(self, monkeypatch):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        lines = [line.partition("#")[0].split()[1:]
                 for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
                 for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("mfbwalk ")]
        assert {line[0] for line in lines} == set(_subcommands().choices)
        assert self._spy_main(lines, monkeypatch) == []

    def test_every_flag_takes_the_table(self, monkeypatch):
        def value(action):
            if action.choices is not None:
                return [f"{action.option_strings[0]}={action.choices[-1]}"]
            text = {int: "2", float: ".3", None: "x.json"}[action.type]
            if action.metavar == "A..B":
                text = "-1..1"
            return [action.option_strings[0], text]

        argvs = [[name, *(token for a in _command_actions(name)
                          for token in (a.option_strings if a.nargs == 0
                                        else value(a)))]
                 for name in _subcommands().choices]
        assert all(build_parser().parse_exact(_merge_dash_values(argv))
                   for argv in argvs)
        assert self._spy_main(argvs, monkeypatch) == []

    def test_every_action_is_of_a_kind_the_table_reads(self):
        # a flag of another kind (append, count, nargs, a typed string
        # default...) fails here, before it silently takes argparse's path
        top = build_parser()._actions
        assert [type(a) for a in top] == [argparse._HelpAction,
                                         argparse._SubParsersAction]
        for name in _subcommands().choices:
            for a in _command_actions(name):
                assert a.option_strings and a.nargs in (None, 0)
                if type(a) is argparse._StoreAction:
                    assert a.type in (None, int, float)
                    assert a.type is None or not isinstance(a.default, str)
                else:
                    assert type(a) is argparse._StoreTrueAction


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
    """Each JSON report is one ``json.dumps`` line of the report dict, its
    rows, handed over in groups, as dicts of the layout's columns."""

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
        render = mfbwalk.cli._render

        def spy(args, model, groups, report):
            assert args.layout is layout_of(args.command)
            reports.append({"model": model.to_dict(), "quantity": args.command,
                            **report})
            if "rows" in report:
                reports[-1]["rows"] = row_dicts(args.layout, groups)
            return render(args, model, groups, report)

        monkeypatch.setattr(mfbwalk.cli, "_render", spy)
        code, out, _ = run([*command, "--model", drift_file], capsys)
        assert code == 0
        [report] = reports
        assert out == json.dumps(report) + "\n"
        assert out.count("\n") == 1
        # the same values as the indented report printed before
        assert json.loads(out) == json.loads(json.dumps(report, indent=1))


# (exit code, sha256 of stdout) of each command on the reference models
STDOUT_PINS = {
    ("cfg-drift", "visits", "json"): (0, "fd29e26a26a4228585bc67d55d082ff384ddc3cd801a8da6d400bc580e1c134d"),
    ("cfg-drift", "visits", "csv"): (0, "a26fc3ec722815bf13c0bb0c7fef243e3785039428617cac06217c2f9c9f10e0"),
    ("cfg-drift", "absorb-dist", "json"): (0, "3c0ba19daf9c75bf421215b1ec88020e90c29fc4c3270b6479f7066646269afa"),
    ("cfg-drift", "absorb-dist", "csv"): (0, "382b563ff40f90dceb5c61eb815b8c700fd9b2f1353cac5b9f9187af5cd85771"),
    ("cfg-drift", "reach", "json"): (0, "5d9841ef96afa9e15042d50c2e04f8aa78fd839a506e9d70f0d508259cac4d65"),
    ("cfg-drift", "reach", "csv"): (0, "239706eb2b03f58f5b10e2f6c6af7cfaaae6815966b60d23f506e3c52ed146ac"),
    ("cfg-drift", "mean-time", "json"): (0, "7e4ca8f6c4ee7823d3fc14e4f093c128f8060621acee698c617c634eb909451b"),
    ("cfg-drift", "mean-time", "csv"): (0, "08fb40df6c9995f6decdc92e212d226a63749e605eda5a965ec7ec3e982327ca"),
    ("cfg-drift", "mean-time --i", "json"): (0, "5d9d8343e2b8ca588abac6b1bd486f51925a09a5bb56cc769a849caefa6a6c77"),
    ("cfg-drift", "mean-time --i", "csv"): (0, "336da97175870a5ead30ea024c86a5f8885813a7411918fcfa2eb3b3049739a5"),
    ("cfg-drift", "barrier-time", "json"): (0, "e9c4545be6d4babc6757d81b7d04b25f58b4263447159a1faf13ff1e724cc11d"),
    ("cfg-drift", "barrier-time", "csv"): (0, "1ca20cde04aba7dc7bb29a0013dcc90d31e2c0d83460c6e155042f96dc03ada3"),
    ("cfg-drift", "simulate", "json"): (0, "005f283c8a37c098fff27d2ce261dcac92f38f28b457fa9f356b5183c077821b"),
    ("cfg-drift", "simulate", "csv"): (0, "60acbc7dfeb39416f1e6851e9165cb9f64b9b7a46de7ed4c67583f44d5ca1fa5"),
    ("cfg-drift", "verify", "json"): (0, "5cd235781ed2e9c4dd84f5d7e01519e0c2dd09b4c5bc41e2c7c5e4eed0df4fba"),
    ("cfg-drift", "verify", "csv"): (0, "9f68c51ff16a3b0d7f56617367c74ff5c063f29219202978c2205e928a19ec18"),
    ("cfg-sym", "visits", "json"): (0, "62eeb7f97c98075044e2c41c65d36b5ae24ea4615be30d30911c06c0455307d4"),
    ("cfg-sym", "visits", "csv"): (0, "9d245bbc6ae9f9ad956c1a0642bf42edbb09cec84062601f412d86e39214f789"),
    ("cfg-sym", "absorb-dist", "json"): (0, "3c81ed7dba77d8fc72de948fcc49cc6098273d869609787669670479e3f3285b"),
    ("cfg-sym", "absorb-dist", "csv"): (0, "bc6a1fd97f33c26e4609f1e561c975b4d7503d7986a0259ebcdfb9baa4912980"),
    ("cfg-sym", "reach", "json"): (0, "51b139ec9e9bdd84252705329d95433e58724bfd9fd02e8d3bc9036ae2e2af44"),
    ("cfg-sym", "reach", "csv"): (0, "181d42d4e254fb8f22dc0b5373bebd563a041b975db15def154382846d76006b"),
    ("cfg-sym", "mean-time", "json"): (0, "d7c8f183814656eed312e11eec0eb034c4e68db34332162771762f1d321a85f6"),
    ("cfg-sym", "mean-time", "csv"): (0, "a63b3dc054f2a899984af05ca34eb7985b05286ec8b4956f68f037d27b1d623d"),
    ("cfg-sym", "mean-time --i", "json"): (0, "6d028732783fda03706b5d5b4ecaf01775997666d11b961bd81c2e66fb178487"),
    ("cfg-sym", "mean-time --i", "csv"): (0, "2ddda5bd82178a26bbba1add0be8068261a97ff352e8f0d506d15e50c5a310a2"),
    # balanced: the per-barrier split is refused and nothing is printed
    ("cfg-sym", "barrier-time", "json"): (2, hashlib.sha256(b"").hexdigest()),
    ("cfg-sym", "barrier-time", "csv"): (2, hashlib.sha256(b"").hexdigest()),
    ("cfg-sym", "simulate", "json"): (0, "64180eab07db0dd06b6d09e0b6045f6b0217bb7b5416056dc494c6decaf8f602"),
    ("cfg-sym", "simulate", "csv"): (0, "fd9005ece112b8d2b0f7dc744f6d3537e891cc31c3c48a19bfe5a5a747f82de4"),
    ("cfg-sym", "verify", "json"): (0, "d8c3986a2f40779e234c4a063d1046c612e402d2fd1f8e2f9a583d70e96dfdac"),
    ("cfg-sym", "verify", "csv"): (0, "5e738d2ecb46ee8206bf5c7df2a8833ba105b61f4cd5af3d31f7a9c4e83e9b10"),
}
PINNED_ARGS = {
    "visits": [], "absorb-dist": [], "reach": ["--from", "1", "--to", "-3"],
    "mean-time": [], "mean-time --i": ["--i", "1"], "barrier-time": [],
    "simulate": ["--walks", "300", "--seed", "5"], "verify": ["--walks", "300"],
}
# values of each form of a layout column; the floats span the whole range
FORM_VALUES = {
    int: st.integers(),
    float: st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308,
                                      -1e-310, -0.0, 0.0, 1e16, -1e16,
                                      9999999999999998.0, 1e-5, -1e-5, 1e-4,
                                      1e22, 1.5e300,
                                      1.7976931348623157e308])),
    str: st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
    None: st.none(),
}


class TestRowLayouts:
    """The rows of every report print from compiled layouts, byte for byte
    what ``json.dumps`` and ``csv.writer`` printed."""

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("command", sorted(PINNED_ARGS))
    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_stdout_is_pinned(self, name, command, output, capsys):
        argv = [command.split()[0], *PINNED_ARGS[command], "--model",
                str(REPO / "models" / f"{name}.json"), "--output", output]
        code, out, _ = run(argv, capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
            STDOUT_PINS[name, command, output]

    @pytest.mark.parametrize("command,key", [
        (command, key) for command in sorted(build_parser().commands)
        for key in layout_of(command).groups], ids=str)
    def test_rows_print_as_json_dumps_and_csv_writer(self, command, key):
        # each group of rows prints through its own compiled formatter, its
        # fixed columns written in once
        layout = layout_of(command)
        group = layout.groups[key]
        row = st.tuples(*[st.one_of(*[FORM_VALUES[form] for form in forms])
                          for forms in group.forms])

        @settings(max_examples=150, deadline=None)
        @given(st.lists(row, min_size=1, max_size=6))
        def check(rows):
            groups = [(key, tuple(zip(*rows)))]
            dicts = row_dicts(layout, groups)
            assert layout.finite(groups)
            assert layout.lines("json", groups) == list(map(json.dumps, dicts))
            table = io.StringIO()
            writer = csv.writer(table)
            writer.writerow(layout.columns)
            writer.writerows([["" if v is None else v for v in d.values()]
                              for d in dicts])
            assert layout.csv_header + "".join(layout.lines("csv", groups)) == \
                table.getvalue()

        check()


class TestVerifyResiduals:
    """verify's occupancy rows, read from the window's visit profile, equal
    the per-site residual bit for bit, and a residual row's delta is the
    residual's abs."""

    @staticmethod
    def _assert_rows_equal(m, window):
        battery = oracle.Battery(m)
        groups = mfbwalk.cli._verify_rows(battery, window, 0, 42)
        rows = [row for row in row_dicts(layout_of("verify"), groups)
                if row["quantity"] == "occupancy_residual"]
        lo, hi = window
        assert [r["index"] for r in rows] == \
            list(range(lo * m.N + 1, hi * m.N))
        for r in rows:
            assert r["closed_form"] == occupancy_residual(m, r["index"])
        # a residual's delta is the abs of its closed form against the 0.0
        # oracle, also at a signed zero, a subnormal and a negative residual
        closed = [r["closed_form"] for r in rows] + [
            -0.0, 0.0, 5e-324, -5e-324, -2.5e-11, -1e-10]
        for quantity in ("barrier_recurrence_residual", "occupancy_residual"):
            group = mfbwalk.cli._checked(quantity, range(len(closed)), closed)
            for r in row_dicts(layout_of("verify"), [group]):
                assert repr(r["delta"]) == \
                    repr(abs(r["closed_form"] - r["oracle"])) == \
                    repr(r["closed_form"]).lstrip("-")

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
