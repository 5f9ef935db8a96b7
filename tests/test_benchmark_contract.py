"""The library against the benchmark's own expectations.

``perfbench/workloads.py`` names, for each per-barrier op it generates, the
typed error the library may raise (``Op.expect``, from
``_barrier_time_error``); an op that raises anything else counts as failed.
Every distinct cycle op of each workload must also pass the output checks
of ``perfbench/checks.py``, run as ``perfbench/harness.py`` runs it, so
that an op the benchmark would count as failed fails here first.  The
perfbench modules are loaded as they stand.
"""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import mfbwalk
from mfbwalk import absorption_times, mean_time_to_barrier, validate_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    modules = {}
    try:
        for name in ("workloads", "harness", "checks"):
            spec = importlib.util.spec_from_file_location(
                f"_perfbench_{name}", PERFBENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            # dataclasses resolve the module by name
            sys.modules[spec.name] = modules[name]
            spec.loader.exec_module(modules[name])
        yield SimpleNamespace(**modules)
    finally:
        for name in modules:
            del sys.modules[f"_perfbench_{name}"]


@pytest.mark.parametrize("name", ["point-queries", "cli-sweep", "monte-carlo"])
def test_cycle_ops_pass_the_benchmark_checks(perfbench, name):
    # each distinct op of the seed-1 cycle once, from cold caches, judged
    # as the benchmark judges the first outcome of each op
    spec = perfbench.workloads.generate(name, 1)
    env, _ = perfbench.harness.setup(spec)
    env.clear_caches()
    ops = list(dict.fromkeys(spec.cycle))
    checker = perfbench.checks.Checker(env)
    failed = []
    for op, run in zip(ops, perfbench.harness.prepare(env, ops)):
        judge = checker.library if op.kind == "lib" else checker.cli
        verdict = judge(op, run())
        if not verdict.ok:
            failed.append((op.name, op.args, verdict.reason))
    assert not failed, f"{len(failed)} of {len(ops)} ops failed: {failed[:5]}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_point_queries_refusals_match_the_library(perfbench, seed):
    # every distinct per-barrier op of the timed cycle and of the probe
    workloads = perfbench.workloads
    work = workloads.point_queries(seed)
    ops = {op for op in (*work.cycle, *work.probe)
           if op.name in ("mean_time_to_barrier", "absorption_times")}
    assert {op.name for op in ops} == {"mean_time_to_barrier", "absorption_times"}
    for op in sorted(ops, key=lambda op: (op.model, op.name, op.args)):
        d = work.models[op.model]
        m = validate_model(d)
        if op.name == "absorption_times":
            per_barrier = absorption_times(m, *op.args).per_barrier
            assert bool(per_barrier) == \
                (workloads._barrier_time_error(d) is None), (d, op)
        elif op.expect is None:
            assert math.isfinite(mean_time_to_barrier(m, *op.args)), (d, op)
        else:
            with pytest.raises(getattr(mfbwalk, op.expect)) as caught:
                mean_time_to_barrier(m, *op.args)
            assert type(caught.value).__name__ == op.expect, (d, op)
