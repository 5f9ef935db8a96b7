"""Spans around the public functions of mfbwalk, recorded from outside it.

:func:`install` replaces every binding of every public function of the five
modules (``walk_model``, ``visit_engine``, ``absorption_engine``,
``oracle`` and ``cli.main``) with a wrapper that records a span.  Bindings
are found by identity, so the package re-exports in ``mfbwalk/__init__``,
the ``from .walk_model import ...`` names in the engines and the oracle, the
``from .oracle import periodic_mean_times`` name in ``absorption_engine`` and
the functions ``cli`` reaches through its ``ae``, ``ve`` and ``oracle``
module aliases are all covered.  :meth:`Tracer.uninstall` puts the originals
back.

Spans live in memory as parallel typed arrays (name, parent, start, end)
and are written out by :meth:`Tracer.dump` after the run.  Self time, a span's
duration minus the time its children cover, is accumulated as spans close.
"""

from __future__ import annotations

import sys
import time
import warnings
from array import array
from collections import Counter


def _public_functions(module) -> dict:
    """Public callables defined in ``module`` (lru_cache wrappers included)."""
    out = {}
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            out[name] = obj
    return out


class Tracer:
    """Span recorder for one traced pass.  Single-threaded by design: the
    workloads call ``simulate`` with its default of one worker."""

    def __init__(self):
        import mfbwalk
        from mfbwalk import absorption_engine, cli, oracle, visit_engine, walk_model
        mods = {"walk_model": walk_model, "visit_engine": visit_engine,
                "absorption_engine": absorption_engine, "oracle": oracle, "cli": cli}
        self._namespaces = [mfbwalk, *mods.values()]
        self.names: list[str] = ["op"]
        self.originals = {}                     # id(original) -> (span name, original)
        for short, mod in mods.items():
            funcs = {"main": mod.main} if short == "cli" else _public_functions(mod)
            for name, fn in funcs.items():
                self.originals[id(fn)] = (f"{short}.{name}", fn)
        self.caches = {"walk_model.barrier_spectrum": walk_model.barrier_spectrum,
                       "visit_engine.boundary_coefficients": visit_engine.boundary_coefficients}

        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.warnings = Counter()              # (innermost span name, category) -> count
        self.by_size = Counter()               # (name id, N) -> inclusive seconds
        self.by_size_calls = Counter()         # (name id, N) -> calls
        self.extra = Counter()                 # derived counts from return values
        self.k_max = 0
        self._patched = []
        self._cache_before = {}
        self.cache_delta = {}                  # cached function -> (hits, misses) in the pass
        self._orig_warn = None

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        return self._spanned(nid, fn, _HOOKS.get(name))

    def op_wrapper(self, run):
        """Root span around one benchmark op (its self time is harness work)."""
        return self._spanned(0, run, None)

    def _spanned(self, nid: int, fn, hook):
        starts, ends, names, parents = (self.span_start, self.span_end,
                                        self.span_name, self.span_parent)
        stack, child = self._stack, self._child
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child.pop()
                d = t1 - t0
                ends[idx] = t1
                child[-1] += d
                calls[nid] += 1
                self_s[nid] += d - covered
                incl_s[nid] += d
            if hook is not None:
                hook(self, nid, idx, args, kwargs, result, d)
            return result

        return traced

    def _warn(self, message, category=None, stacklevel=1, *rest, **kwargs):
        top = self._stack[-1]
        where = self.names[self.span_name[top]] if top >= 0 else "none"
        kind = type(message).__name__ if isinstance(message, Warning) else (
            category.__name__ if category is not None else "UserWarning")
        self.warnings[(where, kind)] += 1
        return self._orig_warn(message, category, stacklevel + 1, *rest, **kwargs)

    def install(self) -> None:
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self.originals.items()}
        for ns in self._namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and self.originals[id(obj)][1] is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        self._orig_warn = warnings.warn
        warnings.warn = self._warn
        self._cache_before = {k: f.cache_info() for k, f in self.caches.items()}

    def uninstall(self) -> None:
        for key, f in self.caches.items():
            after, before = f.cache_info(), self._cache_before[key]
            self.cache_delta[key] = (after.hits - before.hits, after.misses - before.misses)
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()
        warnings.warn = self._orig_warn

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """name -> (calls, self seconds, inclusive seconds)."""
        return {self.names[nid]: (self.calls[nid], self.self_s[nid], self.incl_s[nid])
                for nid in self.calls}

    def unpatched(self) -> list[str]:
        """Bindings that still hold an original function while installed.

        Scans every loaded ``mfbwalk`` module, and the dicts, lists and
        tuples bound at its top level, not just the namespaces
        :meth:`install` patches.  A binding found here is a function whose
        time would be charged, unseen, to its caller's self time.
        """
        found = []
        for modname, mod in list(sys.modules.items()):
            if modname != "mfbwalk" and not modname.startswith("mfbwalk."):
                continue
            for attr, obj in vars(mod).items():
                if isinstance(obj, dict):
                    values = obj.values()
                elif isinstance(obj, (list, tuple)):
                    values = obj
                else:
                    values = (obj,)
                for v in values:
                    original = self.originals.get(id(v))
                    if original is not None and original[1] is v:
                        found.append(f"{modname}.{attr} -> {original[0]}")
        return found

    def accounting(self, wall: float) -> dict:
        """Split the traced wall time into span self time and gaps.

        Each child's duration is subtracted from exactly one parent, so the
        self times sum to the root spans' total and ``self + gap == wall``
        by construction; it is reported, not checked.
        """
        roots = sum(self.span_end[i] - self.span_start[i]
                    for i in range(len(self.span_start)) if self.span_parent[i] < 0)
        return {"spans": len(self.span_start), "self_s": sum(self.self_s.values()),
                "root_s": roots, "gap_s": wall - roots}

    def dump(self, path) -> None:
        """Write every span to an ``.npz`` file: ``name`` (index into
        ``names``), ``parent`` (span index, -1 for an op), ``start`` and
        ``end`` (seconds on the perf_counter clock)."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent), start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end))


# ---------------------------------------------------------------------------
# per-function hooks that read return values or arguments

SIZES = (2, 10, 100, 1000)


def _record_size(tr: Tracer, nid, idx, args, kwargs, result, d):
    model = args[0] if args else kwargs.get("model")
    N = getattr(model, "N", None)
    if N in SIZES:
        tr.by_size[(nid, N)] += d
        tr.by_size_calls[(nid, N)] += 1


def _visit_profile(tr, nid, idx, args, kwargs, result, d):
    _record_size(tr, nid, idx, args, kwargs, result, d)
    tr.extra["visit_profile.sites"] += len(result.values)


def _truncated_visits(tr, nid, idx, args, kwargs, result, d):
    _record_size(tr, nid, idx, args, kwargs, result, d)
    sites = 2 * result.K * result.model.N + 1
    tr.extra["truncated_visits.sites"] += sites
    # float64/int64 vectors of one entry per site allocated by the banded
    # solve: sites, forward/backward/hold coefficients, the 3-row band,
    # right-hand side, solution and the site grid of the result
    tr.extra["truncated_visits.bytes"] += 8 * 10 * sites


def _default_truncation(tr, nid, idx, args, kwargs, result, d):
    tr.k_max = max(tr.k_max, int(result))


def _periodic_mean_times(tr, nid, idx, args, kwargs, result, d):
    _record_size(tr, nid, idx, args, kwargs, result, d)
    parent = tr.span_parent[idx]
    if parent >= 0 and tr.names[tr.span_name[parent]].startswith("absorption_engine."):
        tr.extra["periodic_mean_times.engine_calls"] += 1


def _simulate(tr, nid, idx, args, kwargs, result, d):
    tr.extra["simulate.walks"] += result.walks
    tr.extra["simulate.censored"] += result.censored
    # uniforms consumed: one per transition including the absorbing one,
    # and step_cap for every censored walk
    tr.extra["simulate.uniforms"] += (round(result.mean_steps * result.absorbed) + result.absorbed
                                      if result.absorbed else 0) + result.step_cap * result.censored


_HOOKS = {
    "visit_engine.visit_profile": _visit_profile,
    "absorption_engine.mean_time_any": _record_size,
    "oracle.periodic_mean_times": _periodic_mean_times,
    "oracle.truncated_visits": _truncated_visits,
    "oracle.gf_derivative_profile": _record_size,
    "oracle.default_truncation": _default_truncation,
    "oracle.simulate": _simulate,
}


# ---------------------------------------------------------------------------
# per-layer metrics, normalised per workload op

SIZED = {"visit_engine.visit_profile": SIZES,
         "absorption_engine.mean_time_any": SIZES,
         "oracle.periodic_mean_times": SIZES,
         # only verify reaches these, and verify stops at N = 100
         "oracle.truncated_visits": SIZES[:3],
         "oracle.gf_derivative_profile": SIZES[:3]}


def layer_metrics(tr: Tracer, traced, untraced, acct: dict) -> dict:
    """name -> (value, unit).  A metric of a function never called is 0."""
    n = traced.ops
    totals = tr.totals()
    ids = {name: nid for nid, name in enumerate(tr.names)}

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_us(name):
        return totals.get(name, (0, 0.0, 0.0))[1] * 1e6 / n

    def incl_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(name):
        hits, misses = tr.cache_delta[name]
        return ratio(hits, hits + misses)

    m = {}

    def per_op_calls(*names):
        for name in names:
            m[f"{name}.calls"] = (calls(name) / n, "calls/op")

    def per_op_self(*names):
        for name in names:
            m[f"{name}.self_us"] = (self_us(name), "us/op")

    per_op_calls("walk_model.validate_model")
    per_op_self("walk_model.validate_model", "walk_model.lambda_pair")
    per_op_calls("walk_model.barrier_spectrum")
    per_op_self("walk_model.barrier_spectrum")
    m["walk_model.barrier_spectrum.hit_ratio"] = (hit_ratio("walk_model.barrier_spectrum"), "ratio")

    per_op_self("visit_engine.boundary_coefficients")
    m["visit_engine.boundary_coefficients.hit_ratio"] = (
        hit_ratio("visit_engine.boundary_coefficients"), "ratio")
    for name in ("visit_engine.barrier_visits", "visit_engine.site_visits"):
        per_op_calls(name)
        per_op_self(name)
    per_op_self("visit_engine.reach_probability")
    m["visit_engine.display_discrepancies"] = (
        tr.warnings[("visit_engine.barrier_visits", "FormulaDiscrepancy")] / n, "warnings/op")
    per_op_self("visit_engine.visit_profile")
    m["visit_engine.visit_profile.sites_per_s"] = (
        ratio(tr.extra["visit_profile.sites"], incl_s("visit_engine.visit_profile")), "sites/s")

    mt = "absorption_engine.mean_time_any"
    per_op_calls(mt)
    per_op_self(mt)
    fallbacks = tr.warnings[(mt, "FormulaDiscrepancy")]
    m[f"{mt}.formula_served_ratio"] = (ratio(calls(mt) - fallbacks, calls(mt)), "ratio")
    per_op_calls("oracle.periodic_mean_times")
    per_op_self("oracle.periodic_mean_times")
    m["oracle.periodic_mean_times.engine_calls"] = (
        tr.extra["periodic_mean_times.engine_calls"] / n, "calls/op")

    per_op_calls("absorption_engine.mean_time_to_barrier")
    per_op_self("absorption_engine.mean_time_to_barrier",
                "absorption_engine.spectral_derivatives", "absorption_engine.absorption_times")

    tv = "oracle.truncated_visits"
    per_op_calls(tv)
    per_op_self(tv)
    m[f"{tv}.sites_per_s"] = (ratio(tr.extra["truncated_visits.sites"], incl_s(tv)), "sites/s")
    m[f"{tv}.mbytes_computed"] = (tr.extra["truncated_visits.bytes"] / 1e6 / n, "MB/op")
    m["oracle.default_truncation.k_max"] = (tr.k_max, "barriers")
    per_op_calls("oracle.gf_derivative_profile")
    per_op_self("oracle.gf_derivative_profile")

    sim = "oracle.simulate"
    per_op_calls(sim)
    per_op_self(sim)
    m[f"{sim}.walker_steps_per_s"] = (ratio(tr.extra["simulate.uniforms"], incl_s(sim)), "steps/s")
    m[f"{sim}.censored_frac"] = (
        ratio(tr.extra["simulate.censored"], tr.extra["simulate.walks"]), "ratio")
    per_op_calls("oracle.gf_derivative")
    per_op_self("oracle.read_golden")

    per_op_calls("cli.main")
    per_op_self("cli.main")
    stdout = sum(traced.executions(pos) * len(out[2])
                 for pos, out in enumerate(traced.firsts)
                 if out is not None and len(out) == 3)
    m["cli.stdout_bytes"] = (stdout / n, "bytes/op")

    for name, sizes in SIZED.items():
        nid = ids.get(name)
        for N in sizes:
            c = tr.by_size_calls[(nid, N)]
            m[f"{name}.us_per_call.n{N}"] = (ratio(tr.by_size[(nid, N)], c) * 1e6, "us")

    m["process.cpu_per_wall"] = (untraced.cpu / untraced.wall, "ratio")
    m["trace.overhead_frac"] = ((traced.wall - untraced.wall) / untraced.wall, "ratio")
    m["trace.self_frac"] = (acct["self_s"] / traced.wall, "ratio")
    return m
