"""Smoke tests of the benchmark harness; they never look at timings.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs at toy size, traced and untraced, and must report exactly
the metric names and units that BENCHMARK.json lists, with every output
check passing.  The output checks themselves are shown to catch bad traces.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_metrics_and_checks(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_output_checks_catch_bad_traces():
    import pipeline
    from dualrrm import execution

    w = pipeline.smoke_workload("train-desk")
    ecfg = pipeline.eval_config(5, w.eval)
    test_set = pipeline.datasets.generate_dataset(ecfg, "test")
    params = pipeline.policy.load_checkpoint(pipeline.CHECKPOINT).params
    trace = execution.execute(params, test_set[0].episode(w.eval.T), ecfg.execution,
                              ecfg.problem)
    assert pipeline.trace_ok(trace, ecfg.execution, ecfg.problem)
    rates = trace.rates.copy()
    rates[0, 0] = np.nan
    shifted = trace.duals.copy()
    shifted[-1] += 1.0
    for bad in (replace(trace, powers=trace.powers + ecfg.problem.p_max),
                replace(trace, rates=rates),
                replace(trace, duals=shifted),
                replace(trace, final_dual=-trace.final_dual - 1.0)):
        assert not pipeline.trace_ok(bad, ecfg.execution, ecfg.problem)


def test_quality_check_flags_worse_values():
    import run

    names = {m["name"]: m for m in SPEC["end_to_end"]}
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())["workloads"]
    workload, values = next(iter(reference.items()))
    assert run.quality_failures(SPEC, workload, dict(values)) == []
    name = next(n for n in values if names[n]["better"] == "higher")
    worse = dict(values, **{name: values[name] * (1.0 - 2.0 * names[name]["bound"])})
    assert len(run.quality_failures(SPEC, workload, worse)) == 1
