"""Output checks, run after the timed pass on the first outcome of each op.

An op fails when it raises anything other than the typed error documented
for its input, returns a non-finite value, returns an exit code other than
the documented one, or fails its output check.  Output checks compare
library values with the independent oracles at the tolerances of the
``verify`` battery, and CLI output with the library.

A check can also find the output *invalid*: CLI stdout that does not parse
as the documented JSON or CSV, or values that differ from the library's
for the same request, or a repeat of an op that returned something else.
Those make the run incorrect, not just the op failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# tolerances of the verify battery
REL_VISITS = 1e-8          # closed x_j against the truncated solver
REL_MEAN_TIME = 1e-10      # mean_time_any against the periodic solve
REL_BARRIER_TIME = 1e-6    # per-barrier times against the derivative oracle
ABS_TOTAL = 1e-10          # total absorption against one
# reach probabilities are ratios of two arrivals checked at REL_VISITS each
REL_REACH = 2 * REL_VISITS
# CLI values against the library for the same request: equal up to
# summation order
REL_CLI = 1e-9
# Monte-Carlo mean steps against the closed form.  verify uses 4 standard
# errors per row; with 120 to 170 simulate ops in a run, 5 keeps the
# chance of a false failure in one run below 1e-3
MC_SIGMAS = 5.0
# the truncated oracles are skipped above this many sites; at s0 = 1e-7 the
# default truncation would need about 1e8
ORACLE_MAX_SITES = 2_000_000

VERIFY_COLUMNS = ("quantity", "index", "closed_form", "oracle", "delta",
                  "tolerance", "mode", "status")


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    invalid: bool = False


OK = Verdict(True)


class Invalid(Exception):
    """Output that does not parse or does not match the library."""


class Failed(Exception):
    """Output that parses but holds a non-finite value, or a request the
    library itself cannot answer when recomputing it."""


class Checker:
    def __init__(self, env):
        self.env = env
        self.mw = env.mw
        from mfbwalk import oracle
        self.oracle = oracle
        self._tv_cache = {}
        self._deriv_cache = {}
        self._periodic_cache = {}
        self.unchecked = 0          # successful results with no feasible oracle

    # -- oracles (None when the truncated system would be too large) -------

    def _truncation(self, model):
        try:
            K = self.oracle.default_truncation(model)
        except ArithmeticError:
            return None
        return K if 2 * K * model.N + 1 <= ORACLE_MAX_SITES else None

    def _sized(self, solve, model):
        K = self._truncation(model)
        if K is None:
            return None
        try:
            return solve(model, K=K)
        except ArithmeticError:
            return None

    def visits(self, model):
        if model not in self._tv_cache:
            tv = self._sized(self.oracle.truncated_visits, model)
            self._tv_cache[model] = None if tv is None else tv.values
        return self._tv_cache[model]

    def derivatives(self, model):
        if model not in self._deriv_cache:
            self._deriv_cache[model] = self._sized(self.oracle.truncated_visit_derivatives, model)
        return self._deriv_cache[model]

    def periodic(self, model):
        if model not in self._periodic_cache:
            self._periodic_cache[model] = self.oracle.periodic_mean_times(model)
        return self._periodic_cache[model]

    def arrivals(self, model, start, target):
        """Oracle x_{start -> target}, re-anchored as reach_probability does."""
        shift = (start // model.N) * model.N
        values = self.visits(self.mw.reanchored(model, start - shift))
        return None if values is None else values[target - shift]

    # -- closed form against oracle ------------------------------------------

    def _close(self, value, ref, rel=None, abs_=None) -> bool:
        if ref is None:
            self.unchecked += 1
            return True
        if abs_ is not None:
            return abs(value - ref) <= abs_
        return abs(value - ref) <= rel * max(abs(ref), 1e-30)

    def site_value(self, model, j, value) -> bool:
        tv = self.visits(model)
        return self._close(value, None if tv is None else tv[j], rel=REL_VISITS)

    def mass_value(self, model, k, value) -> bool:
        tv = self.visits(model)
        return self._close(value, None if tv is None else model.s0 * tv[k * model.N],
                           rel=REL_VISITS)

    def mean_time_value(self, model, i, value) -> bool:
        return self._close(value, float(self.periodic(model)[i % model.N]), rel=REL_MEAN_TIME)

    def barrier_time_value(self, model, k, value) -> bool:
        d = self.derivatives(model)
        return self._close(value, None if d is None else model.s0 * d[k * model.N],
                           rel=REL_BARRIER_TIME)

    def reach_value(self, model, i, j, value) -> bool:
        if i == j:
            x = self.arrivals(model, i, i)
            return self._close(value, None if x is None else 1.0 - 1.0 / x, abs_=REL_REACH)
        num, den = self.arrivals(model, i, j), self.arrivals(model, j, j)
        return self._close(value, None if num is None or den is None else num / den,
                           rel=REL_REACH)

    # -- library ops ----------------------------------------------------------

    def library(self, op, outcome) -> Verdict:
        status, value = outcome
        if status == "typed":
            return OK
        if status == "raised":
            return Verdict(False, value)
        model = self.env.models[op.model]
        fn, args = op.name, op.args
        if fn == "absorption_times":
            values = list(value.period_values) + list(value.per_barrier.values())
            if not all(math.isfinite(v) for v in values):
                return Verdict(False, "non-finite value")
            good = all(self.mean_time_value(model, i, v)
                       for i, v in enumerate(value.period_values))
            expect_split = model.branch.value == "DRIFT" and model.i0 == 0
            if expect_split and sorted(value.per_barrier) != list(range(args[0], args[1] + 1)):
                return Verdict(False, "per-barrier split has the wrong window")
            good = good and all(self.barrier_time_value(model, k, v)
                                for k, v in value.per_barrier.items())
            return OK if good else Verdict(False, "absorption_times disagrees with the oracles")
        if not math.isfinite(value):
            return Verdict(False, "non-finite value")
        good = {
            "site_visits": lambda: self.site_value(model, args[0], value),
            "absorption_mass": lambda: self.mass_value(model, args[0], value),
            "total_absorption": lambda: abs(value - 1.0) <= ABS_TOTAL,
            "reach_probability": lambda: self.reach_value(model, args[0], args[1], value),
            "mean_time_any": lambda: self.mean_time_value(model, args[0], value),
            "mean_time_to_barrier": lambda: self.barrier_time_value(model, args[0], value),
        }[fn]()
        return OK if good else Verdict(False, f"{fn} disagrees with its oracle")

    # -- CLI ops --------------------------------------------------------------

    def cli(self, op, outcome) -> Verdict:
        status, code, out = outcome
        if status == "raised":
            return Verdict(False, f"exception escaped cli.main: {code}")
        try:
            good = self._cli_output(op, code, out)
        except Invalid as exc:
            return Verdict(False, str(exc), invalid=True)
        except Failed as exc:
            return Verdict(False, str(exc))
        if code != op.expect:
            return Verdict(False, f"exit code {code}, documented {op.expect}")
        return OK if good else Verdict(False, f"{op.name} disagrees with its oracle")

    def _cli_output(self, op, code, out) -> bool:
        """Parse stdout and match it against the library; returns whether the
        library values also agree with the oracles."""
        if code not in (0, 3) or (code == 3 and op.name not in ("verify", "verify-golden")):
            if out:
                raise Invalid(f"{op.name} exited {code} with output on stdout")
            return True
        model = self.env.models[op.model]
        argv = op.args
        csv_out = "csv" in argv
        try:
            parsed = _parse_csv(out) if csv_out else json.loads(out)
        except (ValueError, csv.Error) as exc:
            raise Invalid(f"{op.name} stdout does not parse: {exc}")
        try:
            return getattr(self, "_" + op.name.replace("-", "_"))(model, argv, parsed, csv_out)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise Invalid(f"{op.name} output lacks a documented field: {exc!r}")

    def _lib_match(self, what, got, fn, *args):
        """CLI value ``got`` against the library's ``fn(*args)``."""
        if not math.isfinite(got):
            raise Failed(f"non-finite value: {what} = {got!r}")
        try:
            want = fn(*args)
        except Exception as exc:  # the library failing on the request is a failed op
            raise Failed(f"library raised {type(exc).__name__}: recomputing {what}")
        if not abs(got - want) <= REL_CLI * max(abs(want), 1e-300):
            raise Invalid(f"{what}: CLI printed {got!r}, library gives {want!r}")

    def _rows(self, parsed, csv_out, columns):
        if csv_out:
            header, rows = parsed
            if tuple(header) != columns:
                raise Invalid(f"CSV header {header} is not {columns}")
            return [dict(zip(columns, r)) for r in rows]
        return parsed["rows"]

    def _visits(self, model, argv, parsed, csv_out) -> bool:
        lo, hi = _window(argv, (-3, 3))
        rows = self._rows(parsed, csv_out, ("site", "x", "absorption_mass"))
        sites = [int(r["site"]) for r in rows]
        if sites != list(range(lo * model.N, hi * model.N + 1)):
            raise Invalid("visits rows do not cover the window")
        good = True
        for r, j in zip(rows, sites):
            x = float(r["x"])
            self._lib_match(f"x[{j}]", x, self.mw.site_visits, model, j)
            mass = r["absorption_mass"]
            if j % model.N == 0:
                if float(mass) != model.s0 * x:
                    raise Invalid(f"mass[{j}] is not s0 * x")
            elif mass not in (None, ""):
                raise Invalid(f"interior site {j} has an absorption mass")
            good = self.site_value(model, j, x) and good
        return good

    def _absorb_dist(self, model, argv, parsed, csv_out) -> bool:
        lo, hi = _window(argv, (-3, 3))
        rows = self._rows(parsed, csv_out, ("k", "site", "absorption_mass"))
        if [int(r["k"]) for r in rows] != list(range(lo, hi + 1)):
            raise Invalid("absorb-dist rows do not cover the window")
        good = True
        for r in rows:
            k = int(r["k"])
            if int(r["site"]) != k * model.N:
                raise Invalid(f"absorb-dist row k={k} has the wrong site")
            mass = float(r["absorption_mass"])
            self._lib_match(f"mass[{k}]", mass, self.mw.absorption_mass, model, k)
            good = self.mass_value(model, k, mass) and good
        if not csv_out:
            total = float(parsed["total"])
            self._lib_match("total", total, self.mw.total_absorption, model)
            good = abs(total - 1.0) <= ABS_TOTAL and good
        return good

    def _barrier_time(self, model, argv, parsed, csv_out) -> bool:
        lo, hi = _window(argv, (-3, 3))
        rows = self._rows(parsed, csv_out, ("k", "site", "mean_time"))
        if [int(r["k"]) for r in rows] != list(range(lo, hi + 1)):
            raise Invalid("barrier-time rows do not cover the window")
        good = True
        for r in rows:
            k, t = int(r["k"]), float(r["mean_time"])
            self._lib_match(f"m_0{k}", t, self.mw.mean_time_to_barrier, model, k)
            good = self.barrier_time_value(model, k, t) and good
        return good

    def _mean_time(self, model, argv, parsed, csv_out) -> bool:
        single = _flag(argv, "--i")
        want = [int(single)] if single is not None else list(range(model.N + 1))
        rows = self._rows(parsed, csv_out, ("i", "mean_time"))
        if [int(r["i"]) for r in rows] != want:
            raise Invalid("mean-time rows are not the requested sites")
        good = True
        for r in rows:
            i, t = int(r["i"]), float(r["mean_time"])
            self._lib_match(f"m_{i}", t, self.mw.mean_time_any, model, i)
            good = self.mean_time_value(model, i, t) and good
        return good

    def _verify(self, model, argv, parsed, csv_out) -> bool:
        rows = parsed["rows"]
        failed = False
        for r in rows:
            if tuple(r) != VERIFY_COLUMNS:
                raise Invalid(f"verify row has columns {tuple(r)}")
            passed = r["delta"] <= r["tolerance"]
            if r["status"] != ("pass" if passed else "fail"):
                raise Invalid(f"verify row status {r['status']} contradicts its delta")
            failed = failed or not passed
            if r["quantity"] == "site_visits":
                self._lib_match(f"verify x[{r['index']}]", r["closed_form"],
                                self.mw.site_visits, model, r["index"])
            elif r["quantity"] == "mean_time_any":
                self._lib_match(f"verify m_{r['index']}", r["closed_form"],
                                self.mw.mean_time_any, model, r["index"])
        if parsed["ok"] != (not failed and not parsed["golden_mismatches"]):
            raise Invalid("verify 'ok' contradicts its rows")
        return parsed["ok"]

    _verify_golden = _verify

    def _simulate(self, model, argv, parsed, csv_out) -> bool:
        walks = int(_flag(argv, "--walks"))
        if csv_out:
            header, rows = parsed
            if tuple(header) != ("kind", "index", "value", "se"):
                raise Invalid(f"simulate CSV header {header}")
            steps = [r for r in rows if r[0] == "mean_steps"][0]
            mean, se = float(steps[2]), float(steps[3])
            freq = sum(float(r[2]) for r in rows if r[0] == "absorption_frequency")
            censored = round((1.0 - freq) * walks)
        else:
            if parsed["walks"] != walks or parsed["absorbed"] + parsed["censored"] != walks:
                raise Invalid("simulate walk counts do not add up")
            freq = sum(parsed["absorption_hist"].values())
            if abs(freq + parsed["censored"] / walks - 1.0) > 1e-12:
                raise Invalid("simulate frequencies and censoring do not sum to one")
            lo, hi = _window(argv, (-3 * model.N, 3 * model.N))
            if sorted(int(s) for s in parsed["visit_means"]) != list(range(lo, hi + 1)):
                raise Invalid("simulate visit means do not cover the window")
            mean, se, censored = parsed["mean_steps"], parsed["mean_steps_se"], parsed["censored"]
        if censored:
            return True  # censored walks bias the step mean; nothing to compare
        return abs(mean - self.mw.mean_time_any(model, model.i0)) <= MC_SIGMAS * se


def _parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _flag(argv, name):
    for a in argv:
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


def _window(argv, default):
    text = _flag(argv, "--window")
    if text is None:
        return default
    lo, hi = text.split("..")
    return int(lo), int(hi)
