"""The library against the refusals that the benchmark's workloads document.

``perfbench/workloads.py`` names, for each per-barrier op it generates, the
typed error the library may raise (``Op.expect``, from
``_barrier_time_error``); an op that raises anything else counts as failed.
It uses the standard library only, so it is loaded here as it stands.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import mfbwalk
from mfbwalk import absorption_times, mean_time_to_barrier, validate_model

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "_perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_point_queries_refusals_match_the_library(workloads, seed):
    # every distinct per-barrier op of the timed cycle and of the probe
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
