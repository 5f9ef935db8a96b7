"""mfbwalk benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, throughput, latency
percentiles, success share, peak memory); with ``--trace 1`` they are the
per-layer ones from a traced pass.  A record of the run, and with
``--trace 1`` every span, is written under ``.perfbench-out/``.
See WORKLOADS.md for what each workload exercises and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
REQUIRED = (ROOT / "BENCHMARK.json", ROOT / "src" / "mfbwalk" / "__init__.py",
            ROOT / "models" / "cfg-drift.json", ROOT / "models" / "cfg-sym.json",
            ROOT / "goldens" / "cfg-drift.json", ROOT / "goldens" / "cfg-sym.json")

# set-ups per run: this process plus six probes in fresh processes, three
# before the timed pass and three after it, so that the median does not
# rest on one moment of a shared host
SETUP_SAMPLES = 7
# a traced run times the same ops twice, untraced then traced; the ops stop
# at this share of the run time or this count (which bounds the spans kept),
# so that with tracing's overhead the whole run lasts about --seconds
TRACE_SHARE = 0.4
TRACE_MAX_OPS = 40_000
MIN_PERCENTILE_OPS = 100    # p90 needs ten samples beyond it

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (stdlib only; mfbwalk is imported in set-up)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print the seconds and exit")
    return p.parse_args(argv)


def _pin_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy is imported (child
    processes inherit it).  One thread is within any CPU count, and on a
    shared host a second BLAS thread that waits for its partner measures
    the scheduler rather than the program."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def _metadata(nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    try:
        # the ceiling keeps git from reading a repository above the checkout
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip() or None
    except OSError:
        sha = None
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "git_sha": sha}


def _tally(checker, spec, passes) -> dict:
    """Judge the first outcome of every op that ran; repeats that differ
    from it fail and make the run incorrect."""
    attempted = failed = 0
    invalid = []
    reasons = {}
    verdicts = {}
    for ps in passes:
        attempted += ps.ops
        for pos, outcome in enumerate(ps.firsts):
            if outcome is None:
                continue
            op = spec.cycle[pos]
            if op not in verdicts:
                verdicts[op] = (checker.library(op, outcome) if op.kind == "lib"
                                else checker.cli(op, outcome))
            v = verdicts[op]
            if not v.ok:
                failed += ps.executions(pos)
                reason = f"{op.name}: {v.reason.split(':')[0]}"
                reasons[reason] = reasons.get(reason, 0) + ps.executions(pos)
            if v.invalid:
                invalid.append(f"{op.name} {op.args}: {v.reason}")
        for pos, outcome in ps.mismatches:
            failed += 1
            invalid.append(f"{spec.cycle[pos].name} {spec.cycle[pos].args}: repeat differs")
    return {"attempted": attempted, "failed": failed, "invalid": invalid,
            "reasons": reasons, "unchecked": checker.unchecked}


def _probe(env, spec, checker) -> dict:
    """Run the workload's known-defect inputs once, untimed, and judge
    them as the timed ops are judged.  They are reported here and kept out
    of the run's ``attempted`` and ``failed``; output that would make a
    timed run incorrect counts here as a failure of the input."""
    import harness
    failed = 0
    reasons = {}
    for op, run in zip(spec.probe, harness.prepare(env, spec.probe)):
        outcome = run()
        v = checker.library(op, outcome) if op.kind == "lib" else checker.cli(op, outcome)
        if not v.ok:
            failed += 1
            reason = f"{op.name}: {v.reason.split(':')[0]}"
            reasons[reason] = reasons.get(reason, 0) + 1
    return {"attempted": len(spec.probe), "failed": failed, "reasons": reasons}


def _plain_run(env, spec, seconds, latencies):
    """Untraced run: the end-to-end metrics come from this single pass."""
    import harness
    env.clear_caches()
    ps = harness.run_pass(harness.prepare(env, spec.cycle), seconds, harness.MAX_OPS, latencies,
                          whole_cycle=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ps.whole_ops < MIN_PERCENTILE_OPS:
        print(f"perfbench: only {ps.whole_ops} ops in whole cycles; p90 rests on fewer "
              f"than ten samples", file=sys.stderr)
    return ps, peak_rss_mb


def _traced_run(env, spec, seconds, latencies):
    """The same ops untraced, then traced; traced outcomes must match, and
    no binding of a traced function may be left unwrapped."""
    import harness
    import tracing
    env.clear_caches()
    untraced = harness.run_pass(harness.prepare(env, spec.cycle), seconds * TRACE_SHARE,
                                TRACE_MAX_OPS, latencies)
    tracer = tracing.Tracer()
    env.clear_caches()
    tracer.install()
    try:
        unpatched = tracer.unpatched()
        runs = [tracer.op_wrapper(r) for r in harness.prepare(env, spec.cycle)]
        traced = harness.run_pass(runs, None, untraced.ops, latencies)
    finally:
        tracer.uninstall()
    for pos, (a, b) in enumerate(zip(untraced.firsts, traced.firsts)):
        if a is not None and a != b:
            traced.mismatches.append((pos, b))
    return untraced, traced, tracer, unpatched


def main(argv=None) -> int:
    args = _args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    spec = workloads.generate(args.workload, args.seed)

    import harness
    if args.setup_only:
        _, seconds = harness.setup(spec)
        print(repr(seconds))
        return 0

    before = (SETUP_SAMPLES - 1) // 2
    setups = [_setup_probe(args) for _ in range(before)]
    env, own = harness.setup(spec)
    setups.append(own)
    meta = _metadata(nproc)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **meta}), file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "setup_samples_s": setups}

    import checks
    latencies = harness.latency_buffer()
    if args.trace:
        untraced, traced, tracer, unpatched = _traced_run(env, spec, args.seconds, latencies)
        passes = [untraced, traced]
    else:
        ps, peak_rss_mb = _plain_run(env, spec, args.seconds, latencies)
        passes = [ps]
        record["ops"], record["wall_s"] = ps.ops, ps.wall
        record["whole_cycle_ops"], record["whole_cycle_wall_s"] = ps.whole_ops, ps.whole_wall

    t_check = time.perf_counter()
    checker = checks.Checker(env)
    tally = _tally(checker, spec, passes)
    tally["invalid"] += _rerun_simulate(env, spec, passes[0])
    record["defect_probe"] = probe = _probe(env, spec, checker)
    record["check_s"] = time.perf_counter() - t_check
    setups += [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1 - before)]
    if probe["attempted"]:
        print(f"perfbench: defect probe: {probe['failed']} of {probe['attempted']} "
              f"known-defect inputs failed", file=sys.stderr)

    if args.trace:
        import tracing
        tally["invalid"] += [f"left unwrapped while tracing: {b}" for b in unpatched]
        acct = tracer.accounting(traced.wall)
        metrics = tracing.layer_metrics(tracer, traced, untraced, acct)
        record["accounting"] = acct
        record["warnings"] = {f"{w}|{k}": c for (w, k), c in tracer.warnings.items()}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        # timings come from the whole cycles only: a partial cycle would
        # weight the ops at the start of the cycle more than the rest
        lat = sorted(latencies[:ps.whole_ops])
        ok_ops = ps.ops - tally["failed"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ps.whole_ops * (ok_ops / ps.ops) / ps.whole_wall, "ops/s"),
            "op_p50_ms": (_quantile(lat, 0.50) * 1e3, "ms"),
            "op_p90_ms": (_quantile(lat, 0.90) * 1e3, "ms"),
            "success_frac": (ok_ops / ps.ops, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    declared = _declared_metrics(args.trace)
    if set(metrics) != declared:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ declared)}", file=sys.stderr)
        return 1
    record.update(tally)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for line in tally["invalid"][:20]:
        print(f"perfbench: invalid output: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally["invalid"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _declared_metrics(trace: int) -> set:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


SIMULATE_RERUNS = 6


def _rerun_simulate(env, spec, ps) -> list:
    """Run the first few simulate ops again (monte-carlo has them): stdout
    must be byte-identical."""
    import harness
    problems = []
    positions = [pos for pos, op in enumerate(spec.cycle)
                 if op.name == "simulate" and ps.firsts[pos] is not None][:SIMULATE_RERUNS]
    for pos in positions:
        again = harness.prepare(env, [spec.cycle[pos]])[0]()
        if again != ps.firsts[pos]:
            problems.append(f"simulate {spec.cycle[pos].args}: rerun output differs")
    return problems


if __name__ == "__main__":
    sys.exit(main())
