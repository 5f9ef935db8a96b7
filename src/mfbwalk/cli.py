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
import csv
import itertools
import json
import math
import sys
import warnings
from collections.abc import Iterable
from functools import cache

from . import absorption_engine as ae
from . import visit_engine as ve
from .errors import BalancedUnsupported, RejectedParameter, StartNotBarrier
from .walk_model import MAX_SITES, WalkModel, load_model, validate_model

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DISCREPANCY = 3
EXIT_USAGE = 64
EXIT_NOFILE = 66

# relative deviation of a display form beyond which verify records a note
FORMULA_TOL = 1e-9

VERIFY_COLUMNS = ("quantity", "index", "closed_form", "oracle", "delta",
                  "tolerance", "mode", "status")

# flags whose values may start with "-" (negative numbers, k-ranges)
_DASH_VALUE_FLAGS = {"--window", "--from", "--to", "--i"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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


def _budget(rows: int, what: str) -> None:
    """Refuse, before any row is built, a report of more than
    ``MAX_SITES`` rows."""
    if rows > MAX_SITES:
        raise ValueError(f"{what} holds {rows} rows, more than {MAX_SITES}")


def _parse_window(text: str, sites_per_step: int = 1) -> tuple[int, int]:
    """``A..B`` as (A, B), within the row budget at ``sites_per_step``
    rows per step of the window."""
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise _UsageError(f"window must look like A..B (got {text!r})")
    if lo > hi:
        raise _UsageError(f"empty window {text!r}")
    _budget((hi - lo) * sites_per_step + 1, f"window {text}")
    return lo, hi


def _defined(x: float) -> float | None:
    """``x``, or None for an undefined (NaN) mean or standard error: JSON
    prints it as null and CSV as an empty field."""
    return None if math.isnan(x) else x


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", metavar="FILE", help="model JSON file "
                   "{p,q,r,p0,q0,r0,s0,N,i0}; exclusive with explicit flags")
    for name in ("p", "q", "r", "p0", "q0", "r0", "s0"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--i0", type=int, default=None)


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("json", "csv"), default="json")


@cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call and every default is immutable,
    so one ``main`` call leaves nothing behind for the next."""
    parser = _Parser(prog="mfbwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("visits", help="expected arrivals per site")
    _add_model_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--window", default="-3..3", metavar="A..B",
                    help="barrier index range (default -3..3)")

    sp = sub.add_parser("absorb-dist", help="absorption mass per barrier")
    _add_model_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--window", default="-3..3", metavar="A..B")

    sp = sub.add_parser("reach", help="probability of reaching a site")
    _add_model_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)

    sp = sub.add_parser("mean-time", help="mean absorption time per start site")
    _add_model_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--i", type=int, default=None,
                    help="single start site (default: one full period)")

    sp = sub.add_parser("barrier-time",
                        help="mean time split per absorbing barrier (drift, i0=0)")
    _add_model_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--window", default="-3..3", metavar="A..B")

    sp = sub.add_parser("simulate", help="seeded Monte-Carlo estimates")
    _add_model_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--walks", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--step-cap", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1,
                    help="batch threads, at most one per batch and usable CPU")
    sp.add_argument("--window", default=None, metavar="A..B",
                    help="site window for visit means (default -3N..3N)")

    sp = sub.add_parser("verify",
                        help="closed forms vs oracles; golden file upkeep")
    _add_model_flags(sp)
    _add_output_flag(sp)
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


def _emit(args, rows: Iterable[dict], columns: tuple[str, ...],
          report: dict) -> int:
    """Print ``report`` as one compact JSON line, or ``rows`` as CSV under
    ``columns``; ``rows`` is read for CSV only.  ``json.dumps`` without
    ``indent`` runs the C encoder; ``json.dump`` to a stream never does."""
    if args.output == "json":
        sys.stdout.write(json.dumps(report) + "\n")
        return EXIT_OK
    writer = csv.writer(sys.stdout)
    writer.writerow(columns)
    writer.writerows(["" if row.get(c) is None else row.get(c)
                      for c in columns] for row in rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def _cmd_visits(model, args) -> int:
    lo, hi = _parse_window(args.window, model.N)
    profile = ve.visit_profile(model, lo, hi)
    rows = [{"site": site, "x": x,
             "absorption_mass": model.s0 * x if site % model.N == 0 else None}
            for site, x in profile.values.items()]
    return _emit(args, rows, ("site", "x", "absorption_mass"),
                 {"model": model.to_dict(), "quantity": "visits",
                  "window": [lo, hi], "rows": rows})


def _cmd_absorb_dist(model, args) -> int:
    lo, hi = _parse_window(args.window)
    rows = [{"k": k, "site": k * model.N,
             "absorption_mass": ve.absorption_mass(model, k)}
            for k in range(lo, hi + 1)]
    return _emit(args, rows, ("k", "site", "absorption_mass"),
                 {"model": model.to_dict(), "quantity": "absorb-dist",
                  "window": [lo, hi], "rows": rows,
                  "total": ve.total_absorption(model)})


def _cmd_reach(model, args) -> int:
    row = {"from": args.src, "to": args.dst,
           "probability": ve.reach_probability(model, args.src, args.dst)}
    return _emit(args, [row], tuple(row),
                 {"model": model.to_dict(), "quantity": "reach", **row})


def _cmd_mean_time(model, args) -> int:
    if args.i is not None:
        rows = [{"i": args.i, "mean_time": ae.mean_time_any(model, args.i)}]
    else:
        _budget(model.N + 1, f"the period of N={model.N}")
        rows = [{"i": i, "mean_time": t}
                for i, t in enumerate(ae.mean_time_period(model))]
    return _emit(args, rows, ("i", "mean_time"),
                 {"model": model.to_dict(), "quantity": "mean-time",
                  "rows": rows})


def _cmd_barrier_time(model, args) -> int:
    lo, hi = _parse_window(args.window)
    rows = [{"k": k, "site": k * model.N,
             "mean_time": ae.mean_time_to_barrier(model, k)}
            for k in range(lo, hi + 1)]
    return _emit(args, rows, ("k", "site", "mean_time"),
                 {"model": model.to_dict(), "quantity": "barrier-time",
                  "window": [lo, hi], "rows": rows})


def _quiet(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with each warning it raises, such as
    ExcessCensoring, printed as one stderr line that carries no install
    path or line number."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    return result


def _cmd_simulate(model, args) -> int:
    from . import oracle
    window = _parse_window(args.window) if args.window else None
    stats = _quiet(oracle.simulate, model, walks=args.walks, seed=args.seed,
                   step_cap=args.step_cap, workers=args.workers,
                   window=window)
    mean, se = _defined(stats.mean_steps), _defined(stats.mean_steps_se)
    rows = itertools.chain(
        [{"kind": "mean_steps", "index": "", "value": mean, "se": se}],
        ({"kind": "absorption_frequency", "index": k, "value": f, "se": ""}
         for k, f in stats.absorption_hist.items()),
        ({"kind": "visit_mean", "index": site, "value": m, "se": _defined(s)}
         for site, (m, s) in stats.visit_means.items()))
    return _emit(args, rows, ("kind", "index", "value", "se"), {
        "model": model.to_dict(), "quantity": "simulate",
        "walks": stats.walks, "seed": stats.seed, "step_cap": stats.step_cap,
        "mean_steps": mean, "mean_steps_se": se,
        "absorbed": stats.absorbed, "censored": stats.censored,
        "absorption_hist": {str(k): v for k, v in stats.absorption_hist.items()},
        "visit_means": {str(j): [m, _defined(s)]
                        for j, (m, s) in stats.visit_means.items()},
    })


# ---------------------------------------------------------------------------
# verify

def _row(quantity, index, closed, reference, tol, mode) -> dict:
    if mode == "rel":
        delta = abs(closed - reference) / max(abs(reference), 1e-30)
    else:
        delta = abs(closed - reference)
    return {"quantity": quantity, "index": index, "closed_form": closed,
            "oracle": reference, "delta": delta, "tolerance": tol,
            "mode": mode, "status": "pass" if delta <= tol else "fail"}


def _verify_rows(model: WalkModel, window: tuple[int, int], walks: int,
                 seed: int) -> list[dict]:
    from . import oracle
    lo, hi = window
    rows = [_row("total_absorption", "", ve.total_absorption(model), 1.0,
                 1e-10, "abs")]

    tv = oracle.truncated_visits(model)
    rows.append(_row("conservation", "", tv.absorbed_mass + tv.leak, 1.0,
                     1e-10, "abs"))
    profile = ve.visit_profile(model, lo, hi)
    for j, x in profile.values.items():
        rows.append(_row("site_visits", j, x, tv[j], 1e-8, "rel"))

    periodic = oracle.periodic_mean_times(model)
    for i, t in enumerate(ae.mean_time_period(model)):
        rows.append(_row("mean_time_any", i, t, float(periodic[i]), 1e-10,
                         "rel"))

    for k in range(lo, hi + 1):
        rows.append(_row("barrier_recurrence_residual", k,
                         ve.barrier_recurrence_residual(model, k), 0.0,
                         1e-10, "abs"))
    for j, residual in ve.occupancy_residuals(profile).items():
        rows.append(_row("occupancy_residual", j, residual, 0.0, 1e-10, "abs"))

    if ae.has_barrier_split(model):
        deriv = tv.derivatives()
        for k in range(-5, 6):
            rows.append(_row("mean_time_to_barrier", k,
                             ae.mean_time_to_barrier(model, k),
                             model.s0 * deriv[k * model.N], 1e-6, "rel"))

    if walks > 0:
        stats = _quiet(oracle.simulate, model, walks=walks, seed=seed)
        m_start = ae.mean_time_any(model, model.i0)
        rows.append(_row("mc_mean_steps", "", m_start, stats.mean_steps,
                         4.0 * stats.mean_steps_se, "abs"))
        for k in range(-2, 3):
            freq = stats.absorption_hist.get(k, 0.0)
            se = math.sqrt(max(freq * (1.0 - freq), 1.0 / walks) / walks)
            rows.append(_row("mc_absorption_frequency", k,
                             ve.absorption_mass(model, k), freq,
                             4.0 * se, "abs"))
    return rows


def _formula_discrepancies(model: WalkModel, window: tuple[int, int]) -> list[str]:
    """Display forms against the authoritative closed forms, once per model."""
    def differ(value, shown):
        return abs(shown - value) > FORMULA_TOL * max(abs(value), 1e-30)

    notes = []
    for k in range(window[0], window[1] + 1):
        value = ve.barrier_visits(model, k)
        shown = ve.display_barrier_visits(model, k)
        if differ(value, shown):
            notes.append(f"barrier visits at k={k}: boundary system "
                         f"{value!r} vs display form {shown!r}")
    if ae.has_barrier_split(model):
        for k in range(-5, 6):
            value = ae.mean_time_to_barrier(model, k)
            shown = ae.display_time_to_barrier(model, k)
            if differ(value, shown):
                notes.append(f"per-barrier mean time at k={k}: barrier "
                             f"chain {value!r} vs display form {shown!r}; "
                             f"the barrier-chain value is returned")
    return notes


def _cmd_verify(model, args) -> int:
    from . import oracle
    window = _parse_window(args.window, model.N)
    if args.walks == 1:
        raise ValueError("verify needs --walks 0 or at least 2: one walk "
                         "has no standard error")
    if args.bless and not args.golden:
        raise _UsageError("--bless requires --golden FILE")
    golden = (oracle.read_golden(args.golden, model)
              if args.golden and not args.bless else [])

    if args.bless:
        records = _quiet(oracle.oracle_battery, model,
                         window=max(abs(window[0]), abs(window[1])),
                         walks=args.walks, seed=args.seed)
        oracle.write_golden(args.golden, records)
        print(f"blessed {len(records)} golden records -> {args.golden}",
              file=sys.stderr)

    rows = _verify_rows(model, window, args.walks, args.seed)
    discrepancies = _formula_discrepancies(model, window)
    for note in discrepancies:
        print(f"FormulaDiscrepancy: {note}", file=sys.stderr)

    golden_mismatches = (_quiet(oracle.golden_mismatches, model, golden)
                         if golden else [])
    for miss in golden_mismatches:
        print(f"golden mismatch: {miss}", file=sys.stderr)

    failed = [r for r in rows if r["status"] == "fail"]
    ok = not failed and not golden_mismatches
    _emit(args, rows, VERIFY_COLUMNS,
          {"model": model.to_dict(), "quantity": "verify", "rows": rows,
           "formula_discrepancies": discrepancies,
           "golden_mismatches": golden_mismatches, "ok": ok})
    if not ok:
        return EXIT_DISCREPANCY
    if args.strict_formulas and discrepancies:
        return EXIT_DISCREPANCY
    return EXIT_OK


_DISPATCH = {
    "visits": _cmd_visits,
    "absorb-dist": _cmd_absorb_dist,
    "reach": _cmd_reach,
    "mean-time": _cmd_mean_time,
    "barrier-time": _cmd_barrier_time,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
        model = _model_from_args(args)
        return _DISPATCH[args.command](model, args)
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
