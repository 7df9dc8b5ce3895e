"""Record the quality reference that every run is checked against.

    for w in train-desk train-paper eval-paper; do
        for s in $(seq 1 10); do python3 bench/run.py --workload $w --seed $s --seconds 30 --trace 0; done
    done
    python3 bench/make_reference.py

Reads the untraced results of seeds 1-10 from ``.bench_out/`` and writes
the median of each quality metric, per workload, to ``bench/reference.json``.
A run's own quality check may fail while the old reference is in place;
the values it records are what this script reads.
"""

import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"
SEEDS = list(range(1, 11))
QUALITY = ("train_lagrangian", "eval_feasibility", "eval_mean_rate")


def main() -> None:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    workloads = {}
    for w in (w["name"] for w in spec["workloads"]):
        records = [json.loads((OUT_DIR / f"{w}-seed{s}-trace0.json").read_text()) for s in SEEDS]
        workloads[w] = {
            name: statistics.median(r["metrics"][name]["value"] for r in records)
            for name in QUALITY
        }
    reference = {
        "about": "Median quality metrics over seeds 1-10, recorded with the benchmark at "
                 "its defining commit by make_reference.py. A run fails its quality check "
                 "when a metric is worse than these values by more than its bound in "
                 "BENCHMARK.json.",
        "seeds": SEEDS,
        "workloads": workloads,
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(workloads, indent=1))


if __name__ == "__main__":
    main()
