"""Command-line front end.

Subcommands: visits, absorb-dist, reach, mean-time, barrier-time, simulate,
verify.  Reports go to stdout as JSON (default) or CSV with a fixed column
order; diagnostics go to stderr.  Exit codes: 0 success, 2 invalid model,
inapplicable closed form, a value that cannot be computed in floating
point (an ArithmeticError such as an overflow) or a report of more than
MAX_SITES rows, 3 verify found a discrepancy beyond tolerance, 64 usage
error, 66 model or golden file not found.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import cache
from typing import Callable, NamedTuple

from . import absorption_engine as ae
from . import visit_engine as ve
from .errors import (BalancedUnsupported, RejectedParameter, StartNotBarrier,
                     beyond_float_range)
from .walk_model import MAX_SITES, WalkModel, load_model, validate_model

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DISCREPANCY = 3
EXIT_USAGE = 64
EXIT_NOFILE = 66

# relative deviation of a display form beyond which verify records a note
FORMULA_TOL = 1e-9

# flags whose values may start with "-" (negative numbers, k-ranges)
_DASH_VALUE_FLAGS = {"--window", "--from", "--to", "--i"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # command name -> (default namespace, {option string: action},
    # required actions), compiled by build_parser from the parser's actions
    commands: dict

    def error(self, message):
        raise _UsageError(message)

    def parse_exact(self, argv: list[str]) -> argparse.Namespace | None:
        """``parse_args(argv)`` read from the compiled table, or None where
        argparse must judge: an unknown command, a token that is not one of
        the command's exact option strings (abbreviations, help, ``--``), a
        missing value or a separate one starting with "-", a value given to
        a switch, a value its type or choices refuse, or a required flag
        left out."""
        command = self.commands.get(argv[0]) if argv else None
        if command is None:
            return None
        defaults, actions, required = command
        values = dict(defaults)
        given = set()
        tokens = iter(argv[1:])
        for token in tokens:
            option, eq, text = token.partition("=")
            action = actions.get(option)
            if action is None:
                return None
            if action.nargs == 0:
                if eq:
                    return None
                value = action.const
            else:
                if not eq:
                    text = next(tokens, None)
                    if text is None or text.startswith("-"):
                        return None
                try:
                    value = text if action.type is None else action.type(text)
                except (TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
            values[action.dest] = value
            given.add(action)
        if not required <= given:
            return None
        return argparse.Namespace(**values)


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join '--flag -3..3' into '--flag=-3..3' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in _DASH_VALUE_FLAGS and nxt is not None
                and nxt.startswith("-") and len(nxt) > 1
                and (nxt[1].isdigit() or nxt[1] == ".")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_window(text: str, sites_per_step: int = 1) -> tuple[int, int]:
    """``A..B`` as (A, B); a window of more than ``MAX_SITES`` rows, at
    ``sites_per_step`` rows per step, is refused before any row is built."""
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise _UsageError(f"window must look like A..B (got {text!r})")
    if lo > hi:
        raise _UsageError(f"empty window {text!r}")
    rows = (hi - lo) * sites_per_step + 1
    if rows > MAX_SITES:
        raise ValueError(f"window {text} holds {rows} rows, more than "
                         f"{MAX_SITES}")
    return lo, hi


def _defined(x: float) -> float | None:
    """``x``, or None for an undefined (NaN) mean or standard error: JSON
    prints it as null and CSV as an empty field."""
    return None if math.isnan(x) else x


@cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call and no call changes a default,
    so one ``main`` call leaves nothing behind for the next.  Each command
    takes the model flags and ``--output`` from one parent parser, names its
    handler as the ``run`` default and compiles its report's columns (name
    and ``_FORMS``), with the fixed columns of each group of its rows, into
    the ``layout`` default.  The same call compiles,
    from each command's own actions, the table that ``_Parser.parse_exact``
    reads: the default namespace and the action of each exact option."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", metavar="FILE", help="model JSON file "
                        "{p,q,r,p0,q0,r0,s0,N,i0}; exclusive with explicit flags")
    for name in ("p", "q", "r", "p0", "q0", "r0", "s0"):
        common.add_argument(f"--{name}", type=float, default=None)
    common.add_argument("--N", type=int, default=None)
    common.add_argument("--i0", type=int, default=None)
    common.add_argument("--output", choices=("json", "csv"), default="json")

    parser = _Parser(prog="mfbwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *columns, groups=None):
        sp = sub.add_parser(name, parents=[common], help=summary)
        sp.set_defaults(run=run, layout=_Layout(*columns, groups=groups))
        return sp

    sp = command("visits", _cmd_visits, "expected arrivals per site",
                 ("site", int), ("x", float), ("absorption_mass", float, None))
    sp.add_argument("--window", default="-3..3", metavar="A..B",
                    help="barrier index range (default -3..3)")

    sp = command("absorb-dist", _cmd_absorb_dist,
                 "absorption mass per barrier",
                 ("k", int), ("site", int), ("absorption_mass", float))
    sp.add_argument("--window", default="-3..3", metavar="A..B")

    sp = command("reach", _cmd_reach, "probability of reaching a site",
                 ("from", int), ("to", int), ("probability", float))
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)

    sp = command("mean-time", _cmd_mean_time,
                 "mean absorption time per start site",
                 ("i", int), ("mean_time", float))
    sp.add_argument("--i", type=int, default=None,
                    help="single start site (default: one full period)")

    sp = command("barrier-time", _cmd_barrier_time,
                 "mean time split per absorbing barrier (drift, i0=0)",
                 ("k", int), ("site", int), ("mean_time", float))
    sp.add_argument("--window", default="-3..3", metavar="A..B")

    sp = command("simulate", _cmd_simulate, "seeded Monte-Carlo estimates",
                 ("kind", str), ("index", int, ""), ("value", float, None),
                 ("se", float, None, ""),
                 groups={"mean_steps": {"kind": "mean_steps", "index": ""},
                         "absorption_frequency": {
                             "kind": "absorption_frequency", "se": ""},
                         "visit_mean": {"kind": "visit_mean"}})
    sp.add_argument("--walks", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--step-cap", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1,
                    help="batch threads, at most one per batch and usable CPU")
    sp.add_argument("--window", default=None, metavar="A..B",
                    help="site window for visit means (default -3N..3N)")

    sp = command("verify", _cmd_verify,
                 "closed forms vs oracles; golden file upkeep",
                 ("quantity", str), ("index", int, ""), ("closed_form", float),
                 ("oracle", float), ("delta", float), ("tolerance", float),
                 ("mode", str), ("status", str),
                 groups={quantity: {"quantity": quantity, **fixed}
                         for quantity, fixed in _VERIFY.items()})
    sp.add_argument("--window", default="-3..3", metavar="A..B")
    sp.add_argument("--walks", type=int, default=0,
                    help="Monte-Carlo walks (0 skips simulation)")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--golden", metavar="FILE",
                    help="golden record file to diff (or write with --bless)")
    sp.add_argument("--bless", action="store_true",
                    help="regenerate the golden file from the oracles")
    sp.add_argument("--strict-formulas", action="store_true",
                    help="exit 3 if any display-form discrepancy is recorded")

    parser.commands = {}
    for name, sp in sub.choices.items():
        actions = [a for a in sp._actions
                   if not isinstance(a, argparse._HelpAction)]
        defaults = {"command": name, **sp._defaults,
                    **{a.dest: a.default for a in actions
                       if a.default is not argparse.SUPPRESS}}
        parser.commands[name] = (
            defaults, {opt: a for a in actions for opt in a.option_strings},
            {a for a in actions if a.required})
    return parser


def _model_from_args(args) -> WalkModel:
    flags = {name: getattr(args, name)
             for name in ("p", "q", "r", "p0", "q0", "r0", "s0", "N", "i0")
             if getattr(args, name) is not None}
    if args.model and flags:
        raise _UsageError("give either --model FILE or explicit parameter "
                          "flags, not both")
    if args.model:
        return load_model(args.model)
    if not flags:
        raise _UsageError("no model given; use --model FILE or parameter flags")
    return validate_model(flags)


# how a row prints a value of each form, as (JSON, CSV) f-string text of
# the value ``v``: a form is the class of a column's values (identifiers
# for str), or its one null or empty value, which prints fixed text
_FORMS = {int: ("{v}", "{v}"), float: ("{v!r}", "{v!r}"),
          str: ('"{v}"', "{v}"), None: ("null", ""), "": ('""', "")}


class _Unsigned(NamedTuple):
    """A fixed column that prints the text of the float column ``of``, a
    column before it, with its sign stripped, which is the text of its
    ``abs``: ``repr(abs(x)) == repr(x).lstrip("-")`` for every finite
    float."""

    of: str


class _Format:
    """One group of a report's rows, compiled once into a function per
    output that prints them: a list comprehension over one f-string, so no
    format is parsed per row.  The group's ``fixed`` columns (name -> value,
    or :class:`_Unsigned`) are literal text in it; its other columns,
    ``fields``, are the columns of values it takes, in column order, each
    of the forms in ``forms``.  A field of one form prints through the
    form's replacement field; an int or float field that also takes the
    null or empty value chooses its text by a conditional expression."""

    def __init__(self, columns: tuple, forms: dict, fixed: dict):
        self.fixed = fixed
        self.fields = [name for name in columns if name not in fixed]
        self.forms = [forms[name] for name in self.fields]
        self._floats = [i for i, f in enumerate(self.forms) if float in f]
        self.print = {output: self._compile(columns, forms, o)
                      for o, output in enumerate(("json", "csv"))}

    def _compile(self, columns: tuple, forms: dict, o: int) -> Callable:
        var = {name: f"c{i}" for i, name in enumerate(self.fields)}
        unsigned = {u.of for u in self.fixed.values()
                    if isinstance(u, _Unsigned)}
        names, parts = {"_r": repr, "_minus": "-", "_empty": ""}, []
        for name in columns:
            v = var.get(name)
            if name in unsigned:
                text = "{(t%s := _r(%s))}" % (v, v)
            elif v and len(forms[name]) == 1:
                text = _FORMS[forms[name][0]][o].replace("{v", "{" + v)
            elif v:
                cls, *values = forms[name]
                text = v if cls is int else f"_r({v})"
                for j, value in enumerate(values):
                    names[f"_{v}_{j}"] = _FORMS[value][o]
                    test = "is None" if value is None else "== _empty"
                    text = f"_{v}_{j} if {v} {test} else {text}"
                text = "{%s}" % text
            elif isinstance(self.fixed[name], _Unsigned):
                text = "{t%s.lstrip(_minus)}" % var[self.fixed[name].of]
            else:
                value = self.fixed[name]
                form = value if value is None or value == "" else type(value)
                text = (_FORMS[form][o].format(v=value)
                        .replace("{", "{{").replace("}", "}}"))
            parts.append(f"{json.dumps(name)}: {text}" if o == 0 else text)
        line = ("{{%s}}" % ", ".join(parts) if o == 0
                else ",".join(parts) + "\r\n")
        exec(f"def lines(columns):\n    return [f{line!r} for "
             f"{''.join(v + ', ' for v in var.values())}in zip(*columns)]",
             names)
        return names["lines"]

    def finite(self, columns: tuple) -> bool:
        """Whether every float of ``columns`` is finite.  A column whose sum
        is finite holds no NaN or infinity; only one whose sum is not is
        read value by value.  Null and empty values are skipped."""
        for i in self._floats:
            values = columns[i]
            if (not math.isfinite(sum(filter(None, values), 0.0))
                    and not all(map(math.isfinite, filter(None, values)))):
                return False
        return True


class _Layout:
    """The columns of a report's rows, each given as its name and the forms
    of ``_FORMS`` its values take, compiled once into a :class:`_Format`
    per group of rows: ``groups`` maps each group's key to its fixed
    columns, and a layout declared without groups has one, keyed None, that
    fixes none.  A report hands its rows over as ``(key, columns)`` pairs,
    the columns of values of the key's fields, and they print with no
    format parsed per row.  The text is what ``json.dumps`` of each row as
    a dict and ``csv.writer`` print, given Python floats (``repr`` of a
    numpy float names its type) and identifier strings (printed as they
    are)."""

    def __init__(self, *columns: tuple, groups: dict | None = None):
        self.columns = tuple(name for name, *_ in columns)
        self.csv_header = ",".join(self.columns) + "\r\n"
        forms = {name: tuple(forms) for name, *forms in columns}
        self.groups = {key: _Format(self.columns, forms, fixed)
                       for key, fixed in (groups or {None: {}}).items()}

    def lines(self, output: str, groups: list[tuple]) -> list[str]:
        """The text of each row of ``groups`` in ``output`` ("json" or
        "csv"), group by group."""
        lines = []
        for key, columns in groups:
            lines += self.groups[key].print[output](columns)
        return lines

    def finite(self, groups: list[tuple]) -> bool:
        """Whether every float of ``groups`` is finite."""
        return all(self.groups[key].finite(columns) for key, columns in groups)


def _render(args, model: WalkModel, groups: list[tuple], report: dict) -> str:
    """The text of ``report`` under the header ``{model, quantity}`` as one
    compact JSON line, or of its rows as CSV; the command's layout prints
    the rows, handed over as ``groups`` of :meth:`_Layout.lines`, in both.
    ``json.dumps`` without ``indent`` (the C encoder) renders the header
    alone, with an empty list as its ``rows`` entry, and the rows' text
    takes that list's place: every quote inside a JSON string is escaped,
    so the first ``"rows": []`` of the text is that entry.  A report
    holding a NaN or an infinity raises OverflowError."""
    layout = args.layout
    what = f"a value of the {args.command} report"
    if not layout.finite(groups):
        raise beyond_float_range(what)
    if args.output == "csv":
        return layout.csv_header + "".join(layout.lines("csv", groups))
    header = {"model": model.to_dict(), "quantity": args.command, **report}
    if "rows" in header:
        header["rows"] = []
    try:
        text = json.dumps(header, allow_nan=False)
    except ValueError:  # the encoder refuses NaN and the infinities
        raise beyond_float_range(what) from None
    if "rows" in header:
        head, _, tail = text.partition('"rows": []')
        text = (f'{head}"rows": [{", ".join(layout.lines("json", groups))}]'
                f'{tail}')
    return text + "\n"


def _emit(args, model: WalkModel, groups: list[tuple], report: dict) -> int:
    """Print the :func:`_render` text of the report."""
    sys.stdout.write(_render(args, model, groups, report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def _cmd_visits(model, args) -> int:
    lo, hi = _parse_window(args.window, model.N)
    values = ve.visit_profile(model, lo, hi).values
    x = list(values.values())
    # the window opens on a barrier, so every N-th site from its first is one
    masses = [None] * len(x)
    masses[::model.N] = [model.s0 * v for v in x[::model.N]]
    groups = [(None, (values.keys(), x, masses))]
    return _emit(args, model, groups, {"window": [lo, hi], "rows": groups})


def _barrier_columns(model, window: str, fn) -> tuple:
    """``window`` as [lo, hi] and the columns ``k``, ``site`` and
    ``fn(model, k)`` of its barriers."""
    lo, hi = _parse_window(window)
    n = model.N
    return [lo, hi], (range(lo, hi + 1), range(lo * n, hi * n + 1, n),
                      [fn(model, k) for k in range(lo, hi + 1)])


def _cmd_absorb_dist(model, args) -> int:
    window, columns = _barrier_columns(model, args.window, ve.absorption_mass)
    groups = [(None, columns)]
    return _emit(args, model, groups,
                 {"window": window, "rows": groups,
                  "total": ve.total_absorption(model)})


def _cmd_reach(model, args) -> int:
    row = (args.src, args.dst,
           ve.reach_probability(model, args.src, args.dst))
    return _emit(args, model, [(None, [[value] for value in row])],
                 dict(zip(args.layout.columns, row)))


def _cmd_mean_time(model, args) -> int:
    if args.i is not None:
        columns = ([args.i], [ae.mean_time_any(model, args.i)])
    else:
        period = ae.mean_time_period(model)
        columns = (range(len(period)), period)
    groups = [(None, columns)]
    return _emit(args, model, groups, {"rows": groups})


def _cmd_barrier_time(model, args) -> int:
    window, columns = _barrier_columns(model, args.window,
                                       ae.mean_time_to_barrier)
    groups = [(None, columns)]
    return _emit(args, model, groups, {"window": window, "rows": groups})


def _caught(fn, *args, **kwargs) -> tuple[object, list[str]]:
    """``fn(*args, **kwargs)`` and each warning it raises, such as
    ExcessCensoring, as one line that carries no install path or line
    number."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [f"warning: {w.category.__name__}: {w.message}"
                    for w in caught]


def _quiet(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with its warning lines printed to stderr."""
    result, lines = _caught(fn, *args, **kwargs)
    for line in lines:
        print(line, file=sys.stderr)
    return result


def _cmd_simulate(model, args) -> int:
    from . import oracle
    window = _parse_window(args.window) if args.window else None
    stats = _quiet(oracle.simulate, model, walks=args.walks, seed=args.seed,
                   step_cap=args.step_cap, workers=args.workers,
                   window=window)
    mean, se = _defined(stats.mean_steps), _defined(stats.mean_steps_se)
    hist, visits = stats.absorption_hist, stats.visit_means
    groups = [("mean_steps", ([mean], [se])),
              ("absorption_frequency", (hist.keys(), hist.values())),
              ("visit_mean", (visits.keys(), [m for m, _ in visits.values()],
                              [_defined(s) for _, s in visits.values()]))]
    return _emit(args, model, groups, {
        "walks": stats.walks, "seed": stats.seed, "step_cap": stats.step_cap,
        "mean_steps": mean, "mean_steps_se": se,
        "absorbed": stats.absorbed, "censored": stats.censored,
        "absorption_hist": {str(k): v for k, v in hist.items()},
        "visit_means": {str(j): [m, _defined(s)]
                        for j, (m, s) in visits.items()},
    })


# ---------------------------------------------------------------------------
# verify

# verify's quantities in report order, each with the columns its rows share,
# which its row formatter prints as literal text: the index where it has
# none, the oracle where it is a constant, the tolerance and the mode of the
# delta; a residual's delta is the text of its closed form without the sign
_AGAINST_ONE = {"index": "", "oracle": 1.0, "tolerance": 1e-10, "mode": "abs"}
_RESIDUAL = {"oracle": 0.0, "delta": _Unsigned("closed_form"),
             "tolerance": 1e-10, "mode": "abs"}
_VERIFY = {
    "total_absorption": _AGAINST_ONE,
    "conservation": _AGAINST_ONE,
    "site_visits": {"tolerance": 1e-8, "mode": "rel"},
    "mean_time_any": {"tolerance": 1e-10, "mode": "rel"},
    "barrier_recurrence_residual": _RESIDUAL,
    "occupancy_residual": _RESIDUAL,
    "mean_time_to_barrier": {"tolerance": 1e-10, "mode": "rel"},
    "mc_mean_steps": {"index": "", "mode": "abs"},
    "mc_absorption_frequency": {"mode": "abs"},
}


def _checked(quantity: str, index, closed: list, oracle: list | None = None,
             tolerance: list | None = None) -> tuple:
    """The group of ``quantity`` that checks the column ``closed`` against
    ``oracle``, or its fixed oracle, within ``tolerance``, or its fixed
    tolerance: its key and its columns of values, the fixed ones left out,
    its statuses last."""
    fixed = _VERIFY[quantity]
    reference = [fixed["oracle"]] * len(closed) if oracle is None else oracle
    if fixed["mode"] == "rel":
        deltas = [abs(c - r) / max(abs(r), 1e-30)
                  for c, r in zip(closed, reference)]
    else:
        deltas = [abs(c - r) for c, r in zip(closed, reference)]
    if tolerance is None:
        tol = fixed["tolerance"]
        statuses = ["pass" if d <= tol else "fail" for d in deltas]
    else:
        statuses = ["pass" if d <= t else "fail"
                    for d, t in zip(deltas, tolerance)]
    columns = {"index": index, "closed_form": closed, "oracle": oracle,
               "delta": deltas, "tolerance": tolerance, "status": statuses}
    return quantity, tuple(values for name, values in columns.items()
                           if name not in fixed)


def _verify_rows(battery, window: tuple[int, int], walks: int,
                 seed: int) -> list[tuple]:
    """verify's report rows, a group per quantity as :meth:`_Layout.lines`
    takes them."""
    from . import oracle
    model = battery.model
    lo, hi = window
    n = model.N
    groups = [_checked("total_absorption", None, [ve.total_absorption(model)])]

    tv = battery.truncated
    groups.append(_checked("conservation", None,
                           [tv.absorbed_mass + tv.leak]))
    profile = ve.visit_profile(model, lo, hi)
    groups.append(_checked("site_visits", profile.values.keys(),
                           list(profile.values.values()),
                           tv.sites(lo * n, hi * n)))

    period = ae.mean_time_period(model)
    groups.append(_checked("mean_time_any", range(len(period)), period,
                           battery.period.tolist()))

    ks = range(lo, hi + 1)
    groups.append(_checked("barrier_recurrence_residual", ks,
                           [ve.barrier_recurrence_residual(model, k)
                            for k in ks]))
    residuals = ve.occupancy_residuals(profile)
    groups.append(_checked("occupancy_residual", residuals.keys(),
                           list(residuals.values())))

    split = battery.split
    groups.append(_checked("mean_time_to_barrier", split.keys(),
                           [ae.mean_time_to_barrier(model, k) for k in split],
                           list(split.values())))

    if walks > 0:
        stats = _quiet(battery.simulate, walks, seed)
        groups.append(_checked("mc_mean_steps", None,
                               [ae.mean_time_any(model, model.i0)],
                               [stats.mean_steps],
                               [4.0 * stats.mean_steps_se]))
        closed = [ve.absorption_mass(model, k) for k in oracle.MC_BARRIERS]
        freqs = [stats.absorption_hist.get(k, 0.0) for k in oracle.MC_BARRIERS]
        groups.append(_checked(
            "mc_absorption_frequency", oracle.MC_BARRIERS, closed, freqs,
            [4.0 * math.sqrt(max(f * (1.0 - f), 1.0 / walks) / walks)
             for f in freqs]))
    return groups


def _formula_discrepancies(battery, window: tuple[int, int]) -> list[str]:
    """Display forms against the authoritative closed forms, once per model."""
    def differ(value, shown):
        return abs(shown - value) > FORMULA_TOL * max(abs(value), 1e-30)

    notes = []
    for k in range(window[0], window[1] + 1):
        value = ve.barrier_visits(battery.model, k)
        shown = ve.display_barrier_visits(battery.model, k)
        if differ(value, shown):
            notes.append(f"barrier visits at k={k}: boundary system "
                         f"{value!r} vs display form {shown!r}")
    for k in battery.split:
        value = ae.mean_time_to_barrier(battery.model, k)
        shown = ae.display_time_to_barrier(battery.model, k)
        if differ(value, shown):
            notes.append(f"per-barrier mean time at k={k}: barrier "
                         f"chain {value!r} vs display form {shown!r}; "
                         f"the barrier-chain value is returned")
    return notes


def _cmd_verify(model, args) -> int:
    from . import oracle
    window = _parse_window(args.window, model.N)
    if args.walks < 0:
        raise ValueError(f"walks must be >= 0 (got {args.walks})")
    if args.walks == 1:
        raise ValueError("verify needs --walks 0 or at least 2: one walk "
                         "has no standard error")
    if args.bless and not args.golden:
        raise _UsageError("--bless requires --golden FILE")
    golden = (oracle.read_golden(args.golden, model)
              if args.golden and not args.bless else [])
    battery = _quiet(oracle.Battery, model)
    if args.bless:
        records = _quiet(battery.records, max(abs(window[0]), abs(window[1])),
                         args.walks, args.seed)
    groups = _verify_rows(battery, window, args.walks, args.seed)
    discrepancies = _formula_discrepancies(battery, window)
    golden_mismatches, mismatch_warnings = (
        _caught(battery.mismatches, golden) if golden else ([], []))
    ok = (all("fail" not in statuses for _, (*_, statuses) in groups)
          and not golden_mismatches)
    # the report is rendered before a golden is written, so a run refused
    # on the way leaves none; stderr keeps the order of the steps
    report = _render(args, model, groups,
                     {"rows": groups, "formula_discrepancies": discrepancies,
                      "golden_mismatches": golden_mismatches, "ok": ok})
    if args.bless:
        oracle.write_golden(args.golden, records)
        print(f"blessed {len(records)} golden records -> {args.golden}",
              file=sys.stderr)
    for note in discrepancies:
        print(f"FormulaDiscrepancy: {note}", file=sys.stderr)
    for line in mismatch_warnings:
        print(line, file=sys.stderr)
    for miss in golden_mismatches:
        print(f"golden mismatch: {miss}", file=sys.stderr)
    sys.stdout.write(report)
    if not ok:
        return EXIT_DISCREPANCY
    if args.strict_formulas and discrepancies:
        return EXIT_DISCREPANCY
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  The compiled table
    parses ``argv`` where every token is exact; anything else, help and
    every usage error included, goes to argparse, so its messages and
    abbreviations are argparse's own."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        argv = _merge_dash_values(list(argv))
        args = parser.parse_exact(argv) or parser.parse_args(argv)
        model = _model_from_args(args)
        return args.run(model, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EXIT_NOFILE
    except (RejectedParameter, BalancedUnsupported, StartNotBarrier) as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"cannot compute: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
