"""Smoke test of the benchmark harness at the tiny input size.

Run from the repository root:

    python -m pytest -q perfbench/tests

Each workload runs once untraced and once traced; the printed result
must name exactly the metrics of BENCHMARK.json, each with its unit.
The correctness gate must reject a deliberately wrong expected figure.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_names_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name_, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name_
        assert f"metric {name_} = " in proc.stdout


def test_workloads_in_spec_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_gate_rejects_a_wrong_expected_figure():
    tally = run.Tally()
    run.run_pass(workloads.AtomLaws(0, "tiny"), tally)
    assert tally.failed == 0, tally.failures

    wrong = workloads.AtomLaws(0, "tiny")
    wrong.expected["ex1.variance"] = 0.7          # the published figure is 2/3
    tally = run.Tally()
    run.run_pass(wrong, tally)
    assert tally.failed == 1
    assert any("diagnose_1" in f and "ex1.variance" in f for f in tally.failures)
