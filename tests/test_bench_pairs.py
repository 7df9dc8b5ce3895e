"""``tools/bench_pairs.py`` on one smoke pair of one workload; no timing is read."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_one_smoke_pair_is_recorded(tmp_path):
    # this checkout on both sides: the record's plumbing, not a comparison
    done = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--parent", str(ROOT), "--pairs", "1",
         "--workloads", "train-desk", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    record = json.loads(path.read_text())
    runs = record["runs"]
    assert [(r["side"], r["first"]) for r in runs] == [("parent", True), ("change", False)]
    assert all(r["result"]["correct"] and r["probe_ms"] > 0 for r in runs)
    # the two-thread probe: a speed-up, so positive and finite, whatever the cores
    assert all(0 < r["pair_speedup"] < float("inf") for r in runs)
    assert "pair_speedup" in record["probe"]
    assert record["trees"]["parent"] == record["trees"]["change"]
    row = record["summary"]["train-desk"]["seed 1 smoke"]
    assert row["parent"]["failed"] == row["change"]["failed"] == 0
    low, high = sorted(r["pair_speedup"] for r in runs)
    spread = row["pair_speedup"]
    assert low <= spread["q1"] <= spread["median"] == (low + high) / 2 <= spread["q3"] <= high
    for metric in SPEC["end_to_end"]:
        stats = row[metric["name"]]
        assert stats["pairs"] == 1
        assert stats["change_wins"] + stats["parent_wins"] <= 1
        assert stats["parent"]["q1"] == stats["parent"]["median"] == stats["parent"]["q3"]
