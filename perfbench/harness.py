"""Set-up, op execution and the closed-loop timed pass.

One client sends the next op only after the previous one returned.  A
library op calls a function exported by the mfbwalk package; a CLI op calls
``mfbwalk.cli.main(argv)`` in this process with stdout and stderr captured
in memory.  Ops never raise here: every outcome becomes a tuple that the
checks in :mod:`checks` judge after the timed pass.
"""

from __future__ import annotations

import io
import time
import warnings
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# latencies go to a buffer allocated (and written) in full up front, so
# the process's peak memory does not grow with the number of ops a run fits
MAX_OPS = 1 << 21


@dataclass
class Env:
    """The imported package and the validated models of one workload."""

    mw: object
    cli: object
    models: list

    def clear_caches(self) -> None:
        self.mw.barrier_spectrum.cache_clear()
        self.mw.boundary_coefficients.cache_clear()


def setup(spec) -> tuple[Env, float]:
    """Import mfbwalk, validate the workload's models and run its warm-up.

    Returns the environment and the seconds all of that took.
    """
    t0 = time.perf_counter()
    import mfbwalk
    from mfbwalk import cli
    # library calls report display-form and fallback findings as warnings;
    # they are counted in the traced run, not printed
    warnings.simplefilter("ignore")
    models = [mfbwalk.load_model(m) if isinstance(m, Path) else mfbwalk.validate_model(m)
              for m in spec.models]
    env = Env(mfbwalk, cli, models)
    for run in prepare(env, spec.warmup):
        run()
    return env, time.perf_counter() - t0


def prepare(env: Env, ops) -> list:
    """Bind each op to the package's current function objects.

    Called again after tracing is installed, so that library ops go through
    the traced bindings.
    """
    cache = {}
    out = []
    for op in ops:
        if op not in cache:
            cache[op] = _lib_op(env, op) if op.kind == "lib" else _cli_op(env, op)
        out.append(cache[op])
    return out


def _lib_op(env: Env, op):
    fn = getattr(env.mw, op.name)
    model = env.models[op.model]
    args = op.args
    allowed = (getattr(env.mw, op.expect),) if op.expect else ()

    def run():
        try:
            return ("ok", fn(model, *args))
        except allowed as exc:
            return ("typed", type(exc).__name__)
        except Exception as exc:  # every other exception is a failed op
            return ("raised", f"{type(exc).__name__}: {exc}")
    return run


def _cli_op(env: Env, op):
    cli = env.cli
    argv = op.args

    def run():
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = cli.main(list(argv))
        except Exception as exc:  # an exception escaping main is a failed op
            return ("raised", f"{type(exc).__name__}: {exc}", out.getvalue())
        return ("rc", rc, out.getvalue())
    return run


@dataclass
class Pass:
    """Outcome of one pass over a prefix of the op cycle."""

    ops: int
    wall: float
    cpu: float
    firsts: list                     # first outcome per cycle position
    mismatches: list = field(default_factory=list)  # (position, outcome) of differing repeats
    whole_ops: int = 0               # ops in the whole cycles that ran
    whole_wall: float = 0.0          # wall time of those cycles

    def executions(self, pos: int) -> int:
        """How many times cycle position ``pos`` ran in this pass."""
        L = len(self.firsts)
        return 0 if pos >= self.ops else (self.ops - pos - 1) // L + 1


def run_pass(runs: list, seconds: float | None, max_ops: int, latencies,
             whole_cycle: bool = False) -> Pass:
    """Run ops in cycle order until ``seconds`` have passed or ``max_ops``
    ops are done, recording each op's latency in ``latencies``.

    With ``whole_cycle`` the pass goes on past ``seconds`` until the first
    cycle is done, so that the pass holds at least one whole cycle.
    """
    L = len(runs)
    firsts = [None] * L
    mismatches = []
    clock = time.perf_counter
    n = 0
    pos = 0
    whole_ops = 0
    cpu0 = time.process_time()
    t_start = whole_end = clock()
    deadline = t_start + seconds if seconds is not None else float("inf")
    while True:
        t0 = clock()
        outcome = runs[pos]()
        t1 = clock()
        latencies[n] = t1 - t0
        first = firsts[pos]
        if first is None:
            firsts[pos] = outcome
        elif outcome != first:
            mismatches.append((pos, outcome))
        n += 1
        pos += 1
        if pos == L:
            pos = 0
            whole_ops, whole_end = n, t1
        if (t1 >= deadline and (whole_ops or not whole_cycle)) or n >= max_ops:
            break
    wall = t1 - t_start
    return Pass(ops=n, wall=wall, cpu=time.process_time() - cpu0,
                firsts=firsts, mismatches=mismatches,
                whole_ops=whole_ops, whole_wall=whole_end - t_start)


def latency_buffer():
    return array("d", bytes(8 * MAX_OPS))
