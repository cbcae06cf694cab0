"""Every benchmark operation runs and passes its check at the tiny size.

`perfbench/run.py` and `perfbench/workloads.py` are compiled from their
sources, as `test_benchmark_tracer.py` compiles the tracer, so no file
next to them is written.  A change that makes an operation raise or
fail its check would fail the benchmark; this test catches that with
the suite.
"""
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module       # dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


RUN, WORKLOADS = _load("run"), _load("workloads")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["atom_laws", "quad_diagnose", "mc_wealth"])
def test_every_operation_is_attempted_and_none_fails(name, seed):
    workload = WORKLOADS.WORKLOADS[name](seed, "tiny")
    names = [op.name for op in workload.ops()]
    tally = RUN.Tally()
    RUN.run_pass(workload, tally)
    assert tally.failures == []
    assert (tally.attempted, tally.failed) == (len(names), 0)
    assert sorted(tally.op_times) == sorted(names)
