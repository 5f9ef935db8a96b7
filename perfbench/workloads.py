"""Seeded input generation for the three benchmark workloads.

Everything here is plain data built from ``random.Random(seed)``: models are
parameter dicts (or paths of the reference model files), and an op names a
library function or a CLI argument vector.  Nothing imports mfbwalk, so that
generating the inputs stays out of the measured set-up time.

The reasons for each workload's shape are in WORKLOADS.md beside this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_MODELS = {name: ROOT / "models" / f"cfg-{name}.json" for name in ("drift", "sym")}
GOLDENS = {name: ROOT / "goldens" / f"cfg-{name}.json" for name in ("drift", "sym")}

NAMES = ("point-queries", "cli-sweep", "monte-carlo")


@dataclass(frozen=True)
class Op:
    """One request.

    ``kind`` is "lib" (``name`` is a function exported by the mfbwalk
    package, called as ``fn(model, *args)``) or "cli" (``args`` is the argv
    given to ``mfbwalk.cli.main``).  ``expect`` is the documented outcome
    other than plain success: the typed error a library call may raise for
    this input, or the exit code a CLI call must return.
    """

    kind: str
    name: str
    model: int
    args: tuple
    expect: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    models: list          # parameter dicts, or Paths of model files
    cycle: list           # ops repeated in order until the run's time is up
    warmup: list          # ops run once during set-up
    # known-defect inputs, run once after the timed pass; their outcomes
    # are reported on their own and stay out of ``attempted`` and ``failed``
    probe: list = ()


# ---------------------------------------------------------------------------
# parameter generation

def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _barrier(rng: random.Random, s0: float) -> dict:
    r0 = (1.0 - s0) * rng.uniform(0.0, 0.5)
    rest = 1.0 - s0 - r0
    split = rng.uniform(0.2, 0.8)
    return {"p0": rest * split, "q0": rest * (1.0 - split), "s0": s0}


def _interior(rng: random.Random, log_rho: tuple | None, sign: int = 0) -> dict:
    """Interior step probabilities.

    ``log_rho=None`` gives a balanced walk; otherwise |log rho| is drawn
    from the (low, high) range, with ``sign`` fixing the drift direction
    (0 draws it).  Point-queries keeps |log rho| >= 0.05, clear of the
    near-balance region its defect probe covers on purpose.
    """
    r = rng.uniform(0.0, 0.6)
    if log_rho is None:
        return {"p": (1.0 - r) / 2.0, "q": (1.0 - r) / 2.0}
    log_r = rng.uniform(*log_rho) * (sign or rng.choice((-1, 1)))
    rho = math.exp(log_r)
    return {"p": (1.0 - r) * rho / (1.0 + rho), "q": (1.0 - r) / (1.0 + rho)}


def _model(rng, N, log_rho, on_barrier, s0=None, sign=0) -> dict:
    if s0 is None:
        s0 = _loguniform(rng, 0.02, 0.5)
    d = _interior(rng, log_rho, sign)
    d.update(_barrier(rng, s0))
    d["N"] = N
    d["i0"] = 0 if on_barrier else rng.randrange(1, N)
    return d


def _is_balanced(d: dict) -> bool:
    # mirrors the package's classification: |p - q| < 1e-9 is balanced
    return abs(d["p"] - d["q"]) < 1e-9


def _barrier_time_error(d: dict) -> str | None:
    """Typed error documented for a per-barrier time on this model."""
    if _is_balanced(d):
        return "BalancedUnsupported"
    if d["i0"] != 0:
        return "StartNotBarrier"
    return None


def model_flags(d: dict) -> list[str]:
    return [f"--{k}={d[k]!r}" for k in ("p", "q", "p0", "q0", "s0", "N", "i0")]


# ---------------------------------------------------------------------------
# point-queries

# Every number below is chosen, not measured from user traffic; WORKLOADS.md
# lists them as assumptions.  The call mix is uniform over the seven calls
# the workload names, popularity is plain Zipf (exponent 1), and the pool is
# half again the size of the 512-entry lru_caches so that both hits and
# misses occur.
POOL_SIZE = 768
ZIPF_EXPONENT = 1.0
POINT_LOG_RHO = (0.05, math.log(3.0))
CYCLE_OPS = 1 << 16
EDGE_PER_CLASS = 4       # defect-probe models per ROADMAP aim-3 region

POINT_FUNCTIONS = ("site_visits", "absorption_mass", "total_absorption",
                   "reach_probability", "mean_time_any", "mean_time_to_barrier",
                   "absorption_times")
# rho = 4 at N = 600 is cut to the calls the overflow reaches; a dense
# 600x600 periodic solve per mean time would dominate the workload instead
OVERFLOW_FUNCTIONS = ("site_visits", "absorption_mass", "total_absorption",
                      "reach_probability", "mean_time_to_barrier")


def _edge_model(rng: random.Random, region: str) -> dict:
    N = rng.randint(2, 16)
    if region == "overflow":
        d = {"p": 0.4, "q": 0.1, **_barrier(rng, _loguniform(rng, 0.02, 0.5)), "N": 600}
        d["i0"] = 0 if rng.random() < 0.5 else rng.randrange(1, 600)
        return d
    if region == "tiny-s0":
        return _model(rng, N, POINT_LOG_RHO, rng.random() < 0.5, s0=1e-7)
    d = _model(rng, N, POINT_LOG_RHO, rng.random() < 0.5)
    if region == "near-balance":
        half = (d["p"] + d["q"]) / 2.0
        d["p"], d["q"] = half + 5e-8, half - 5e-8
    else:  # tiny p and q
        d["p"], d["q"] = _loguniform(rng, 1e-6, 1e-5), _loguniform(rng, 1e-6, 1e-5)
    return d


def _point_op(rng: random.Random, fn: str, index: int, d: dict) -> Op:
    N = d["N"]
    if fn == "site_visits":
        args = (rng.randrange(-3 * N, 3 * N + 1),)
    elif fn == "absorption_mass":
        args = (rng.randint(-3, 3),)
    elif fn == "total_absorption":
        args = ()
    elif fn == "reach_probability":
        i = rng.randrange(-N, 2 * N)
        args = (i, i if rng.random() < 0.25 else rng.randrange(-2 * N, 3 * N))
    elif fn == "mean_time_any":
        args = (rng.randrange(-N, 2 * N),)
    elif fn == "mean_time_to_barrier":
        return Op("lib", fn, index, (rng.randint(-3, 3),), _barrier_time_error(d))
    else:
        args = (-2, 2)
    return Op("lib", fn, index, args)


def point_queries(seed: int) -> Workload:
    rng = random.Random(seed)
    models = []
    for rank in range(1, POOL_SIZE + 1):
        # The discrete shape of the model at each popularity rank (N, branch,
        # start) comes from a fixed low-discrepancy sequence, so the few
        # models that take most of the traffic cost about the same for
        # every seed; the seed draws the probabilities and the queries.
        u_n, u_branch, u_start = ((rank * a) % 1.0 for a in (0.6180339887, 0.7548776662,
                                                              0.5698402910))
        N = int(round(math.exp(math.log(2.0) + u_n * math.log(8.0))))
        log_rho = None if u_branch < 0.25 else POINT_LOG_RHO
        models.append(_model(rng, N, log_rho, u_start < 0.5))
    # each model answers one fixed query per function, so repeats of a
    # (model, function) pair are the same request
    queries = [{fn: _point_op(rng, fn, i, d) for fn in POINT_FUNCTIONS}
               for i, d in enumerate(models)]

    edge_ops = []
    for region in ("overflow", "tiny-s0", "near-balance", "tiny-pq"):
        for _ in range(EDGE_PER_CLASS):
            d = _edge_model(rng, region)
            models.append(d)
            fns = OVERFLOW_FUNCTIONS if region == "overflow" else POINT_FUNCTIONS
            edge_ops += [_point_op(rng, fn, len(models) - 1, d) for fn in fns]

    popularity = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(POOL_SIZE)]
    picks = rng.choices(range(POOL_SIZE), weights=popularity, k=CYCLE_OPS)
    fns = rng.choices(POINT_FUNCTIONS, k=CYCLE_OPS)
    cycle = [queries[picks[n]][fns[n]] for n in range(CYCLE_OPS)]
    warmup = [queries[i][fn] for i in range(8) for fn in POINT_FUNCTIONS]
    return Workload("point-queries", models, cycle, warmup, edge_ops)


# ---------------------------------------------------------------------------
# cli-sweep

SWEEP_SIZES = (2, 10, 100, 1000)
# whole-period mean times and verify make N + 1 dense solves, so they stop
# at N = 100; verify at N = 1000 would take about half a minute per call
FULL_PERIOD_MAX_N = 100
VISIT_WINDOW = {2: 3, 10: 3, 100: 2, 1000: 1}


def _sweep_log_rho(N: int) -> tuple:
    """|log rho| range for a sweep model of size N.

    N |log rho| stays at or below 20.  At N = 1000 and rho > 1 the closed
    forms already drift from the oracles by 1e-5 at N log rho = 50 and are
    wrong at 100; NaN follows near 354 and OverflowError near 709.  Those
    regions belong to point-queries; this workload measures sweeps.
    """
    return min(0.05, 5.0 / N), min(0.5, 20.0 / N)


def _sweep_ops(rng: random.Random, index: int, model_args: list[str], d: dict,
               toggle: int) -> list[Op]:
    N = d["N"]
    csv = ["--output", "csv"]
    w = VISIT_WINDOW.get(N, 3)
    ops = [
        Op("cli", "visits", index,
           ("visits", *model_args, f"--window=-{w}..{w}", *(csv if toggle % 2 else [])), 0),
        Op("cli", "absorb-dist", index,
           ("absorb-dist", *model_args, "--window=-5..5", *(csv if toggle % 2 == 0 else [])), 0),
        Op("cli", "barrier-time", index, ("barrier-time", *model_args, "--window=-3..3"),
           0 if _barrier_time_error(d) is None else 2),
        Op("cli", "mean-time", index,
           ("mean-time", *model_args, f"--i={rng.randrange(-N, 2 * N)}",
            *(csv if toggle % 2 == 0 else [])), 0),
    ]
    if N <= FULL_PERIOD_MAX_N:
        ops.append(Op("cli", "mean-time", index,
                      ("mean-time", *model_args, *(csv if toggle % 2 else [])), 0))
        ops.append(Op("cli", "verify", index, ("verify", *model_args), 0))
    return ops


def _verify_fails(d: dict) -> bool:
    """verify exits 3 on a drift model that starts on a barrier at N >= 50
    (WORKLOADS.md, baseline findings); such a verify goes to the probe."""
    return d["N"] >= 50 and not _is_balanced(d) and d["i0"] == 0


def _reference_params(name: str) -> dict:
    with open(REFERENCE_MODELS[name], encoding="utf-8") as fh:
        return json.load(fh)


def cli_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    models, cycle, probe = [], [], []
    for name in ("drift", "sym"):
        models.append(REFERENCE_MODELS[name])
        cycle += _sweep_ops(rng, len(models) - 1, ["--model", str(REFERENCE_MODELS[name])],
                            _reference_params(name), len(models))
    for N in SWEEP_SIZES:
        for log_rho in (_sweep_log_rho(N), None):
            for on_barrier in (True, False):
                # verify's outcome at N = 100 with an off-barrier start
                # depends on the drift direction (rho > 1 sometimes trips
                # the absolute recurrence-residual tolerance), so that slot
                # drifts down (rho < 1), where it passes for every seed
                d = _model(rng, N, log_rho, on_barrier, sign=0 if on_barrier else -1)
                models.append(d)
                ops = _sweep_ops(rng, len(models) - 1, model_flags(d), d, len(models))
                if _verify_fails(d):
                    probe += [op for op in ops if op.name == "verify"]
                    ops = [op for op in ops if op.name != "verify"]
                cycle += ops
    # the raw OverflowError at rho = 4, N = 600 escapes cli.main
    d = {"p": 0.4, "q": 0.1, **_barrier(rng, _loguniform(rng, 0.02, 0.5)), "N": 600, "i0": 0}
    models.append(d)
    probe.append(Op("cli", "absorb-dist", len(models) - 1,
                    ("absorb-dist", *model_flags(d), "--window=-5..5"), 0))
    rng.shuffle(cycle)
    # the reference-model ops, plus one verify at N = 100: the first dense
    # solves of that size pay a one-off BLAS start-up
    warmup = [op for op in cycle if op.model < 2]
    warmup.append(next(op for op in cycle if op.name == "verify"
                       and isinstance(models[op.model], dict) and models[op.model]["N"] == 100))
    return Workload("cli-sweep", models, cycle, warmup, probe)


# ---------------------------------------------------------------------------
# monte-carlo

MC_SIZES = (2, 4, 6, 8, 10)
# A walk spends about N / s0 steps before it is absorbed, and a batch runs
# until its slowest walk is, so s0 = N / MC_MEAN_STEPS gives every generated
# shape about the same cost per op.  The median and p90 latency then sit
# inside one cluster of similar ops instead of between shapes, where the
# seed's draws would move them.
MC_MEAN_STEPS = 120
# The CLI's default of 100 000 walks, and the ROADMAP's 1 000 000, take
# 0.6 s and 6 to 8 s per op; a cycle of such ops would not fit in a run
# (WORKLOADS.md).  So every simulate runs 1000 walks, an assumption that
# keeps an op near 100 ms.
MC_WALKS = 1000
MC_SIMULATE_OPS = 120    # ten per shape


def _simulate_op(rng, index, model_args, N, walks, n) -> Op:
    argv = ["simulate", *model_args, f"--walks={walks}", f"--seed={rng.randrange(2 ** 32)}"]
    if n % 3 == 1:
        w = rng.randint(1, 5)
        argv.append(f"--window={-w * N}..{w * N}")
    if n % 4 == 3:
        argv += ["--output", "csv"]
    return Op("cli", "simulate", index, tuple(argv), 0)


def _mc_models(rng: random.Random, N: int, s0: float, m: int, on_barrier: bool) -> list:
    """``m`` models of one shape, Latin-hypercube sampled.

    Each parameter takes one value in each of ``m`` equal strata of its
    range, in a seeded order.  So every seed gives the shape the same spread
    of mean absorption times, which set the cost of a batch, and the mix of
    op costs in a cycle hardly depends on the seed.
    """
    def strata(lo, hi):
        values = [lo + (hi - lo) * (j + rng.random()) / m for j in range(m)]
        rng.shuffle(values)
        return values

    sites = [0] * m if on_barrier else [1 + j % (N - 1) for j in range(m)]
    rng.shuffle(sites)
    out = []
    for r, log_rho, r0_share, split, i0 in zip(strata(0.2, 0.4), strata(-0.3, 0.3),
                                               strata(0.0, 0.5), strata(0.2, 0.8), sites):
        rho = math.exp(log_rho)
        r0 = (1.0 - s0) * r0_share
        rest = 1.0 - s0 - r0
        out.append({"p": (1.0 - r) * rho / (1.0 + rho), "q": (1.0 - r) / (1.0 + rho),
                    "p0": rest * split, "q0": rest * (1.0 - split), "s0": s0,
                    "N": N, "i0": i0})
    return out


def monte_carlo(seed: int) -> Workload:
    rng = random.Random(seed)
    models = [REFERENCE_MODELS["drift"], REFERENCE_MODELS["sym"]]
    cycle = [Op("cli", "verify-golden", i,
                ("verify", "--model", str(REFERENCE_MODELS[name]),
                 "--golden", str(GOLDENS[name]),
                 f"--walks={rng.randint(1000, 4000)}", f"--seed={rng.randrange(2 ** 32)}"), 0)
             for i, name in enumerate(("drift", "sym"))]
    reference_N = [_reference_params(name)["N"] for name in ("drift", "sym")]
    shapes = [0, 1] + [(N, on_barrier) for N in MC_SIZES for on_barrier in (True, False)]
    per_shape = MC_SIMULATE_OPS // len(shapes)
    drawn = {(N, on): iter(_mc_models(rng, N, N / MC_MEAN_STEPS, per_shape, on))
             for N, on in shapes[2:]}
    for n in range(per_shape * len(shapes)):
        shape = shapes[n % len(shapes)]
        if shape in (0, 1):  # a reference model
            cycle.append(_simulate_op(rng, shape, ["--model", str(models[shape])],
                                      reference_N[shape], MC_WALKS, n))
            continue
        models.append(next(drawn[shape]))
        cycle.append(_simulate_op(rng, len(models) - 1, model_flags(models[-1]), shape[0],
                                  MC_WALKS, n))
    warm_rng = random.Random(seed ^ 0x5EED)
    warmup = [
        _simulate_op(warm_rng, 0, ["--model", str(models[0])], reference_N[0], 200, 0),
        Op("cli", "verify", 1, ("verify", "--model", str(models[1]), "--walks=200"), 0),
    ]
    return Workload("monte-carlo", models, cycle, warmup)


def generate(name: str, seed: int) -> Workload:
    return {"point-queries": point_queries, "cli-sweep": cli_sweep,
            "monte-carlo": monte_carlo}[name](seed)
