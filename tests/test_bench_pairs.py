"""``tools/bench_pairs.py`` on one smoke pair of one workload; no timing is read."""

import importlib.util
import json
import shutil
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
    assert list(record["trees"]["change"]) == ["src_sha256"]  # HEAD names only the file
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


def test_trees_with_other_sources_get_other_labels(tmp_path):
    # two copies of the sources, which share any HEAD: one byte apart, then equal
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools/bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = trees[1] / "src" / "dualrrm" / "channel.py"
    original = module.read_bytes()
    module.write_bytes(original + b"\n")
    assert bench_pairs.src_digest(trees[0]) != bench_pairs.src_digest(trees[1])
    module.write_bytes(original)
    assert bench_pairs.src_digest(trees[0]) == bench_pairs.src_digest(trees[1])
