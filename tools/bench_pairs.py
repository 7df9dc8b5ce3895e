"""Alternated parent/change pairs of the benchmark, recorded in one file.

    python3 tools/bench_pairs.py --parent /path/to/parent/checkout --pairs 10
    python3 tools/bench_pairs.py --parent DIR --workloads train-desk --seed 2 --pairs 3

For each workload, runs ``python3 bench/run.py --workload W --seed S
--seconds 30 --trace 0`` in the parent's checkout and in this one, N pairs,
alternating which side runs first, and reads each run's result from the
last JSON line of its output.  Beside every run it times one fixed numpy
product on one BLAS thread, the speed probe: a host that switches between a
fast and a slow state shows there, apart from the code.  It also times two
such products at once on two threads and records their speed-up over one
after the other: near 2 when a second core was free for the run, near 1
when not, so a claim that rests on ``dualrrm.parallel_slots()`` can be read.

It writes ``BENCH_<date>_<sha>.json`` at the root of this checkout (or in
``--out``), ``sha`` being this checkout's HEAD.  The record labels each side
by the digest of its sources alone, since a parent copied at the change's
commit shares its HEAD.  It holds every run, and per workload
and end-to-end metric each side's median and quartiles, the pairs the
change won (ties count for neither side) and whether the change's median
is worse than the parent's by more than the metric's bound in
``BENCHMARK.json``.  Another invocation on the same day, with the same
sources on both sides, adds its runs to the file, say a confirmation on a
second seed.  ``--smoke`` runs the benchmark's toy sizes for half a second
instead, to check the plumbing; its runs are summarized apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30.0
SMOKE_SECONDS = 0.5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_N = 400  # a (400, 400) @ (400, 400) product: about 2 ms on one core
PROBE_REPEATS = 7


def speed_probe() -> tuple[float, float]:
    """Median ms of one fixed matrix product, and the speed-up of two such
    products on two threads at once over the two one after the other."""
    import numpy as np  # imported after main set one BLAS thread

    a = np.random.default_rng(0).standard_normal((PROBE_N, PROBE_N))
    one, two = [], []
    with ThreadPoolExecutor(2) as pool:
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            a @ a
            one.append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            for product in [pool.submit(np.matmul, a, a) for _ in range(2)]:
                product.result()
            two.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(one), 2 * statistics.median(one) / statistics.median(two)


def src_digest(tree: Path) -> str:
    """SHA-256 over the paths and bytes of the tree's Python sources."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench_run(tree: Path, workload: str, seed: int, smoke: bool) -> dict:
    """One benchmark run in ``tree``, with the speed probe taken just before."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SMOKE_SECONDS if smoke else SECONDS), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    probe_ms, pair_speedup = speed_probe()
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"probe_ms": probe_ms, "pair_speedup": pair_speedup, "wall_s": wall_s,
            "returncode": done.returncode, "result": result,
            "stderr_tail": done.stderr[-2000:] if done.returncode else ""}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def group(run: dict) -> tuple:
    return run["workload"], run["seed"], run["smoke"]


def metric_value(run: dict, name: str):
    metric = (run["result"] or {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload and seed, smoke runs apart: the operations each side
    attempted and failed, the quartiles of every run's two-thread probe, and
    per end-to-end metric each side's quartiles,
    the pairs each side won and whether the change's median is worse than
    the bound allows."""
    out = {}
    for workload, seed, smoke in sorted({group(r) for r in runs}):
        pairs = {}
        for r in runs:
            if group(r) == (workload, seed, smoke):
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        row = {side: {key: sum((p[side]["result"] or {}).get(key, 0) for p in pairs)
                      for key in ("attempted", "failed")} for side in ("parent", "change")}
        row["pair_speedup"] = quartiles([r["pair_speedup"] for p in pairs for r in p.values()])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(metric_value(p["parent"], name), metric_value(p["change"], name))
                      for p in pairs]
            values = [v for v in values if None not in v]
            if not values:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            before = quartiles([b for b, _ in values])
            after = quartiles([a for _, a in values])
            loss = sign * (before["median"] - after["median"])
            row[name] = {
                "unit": metric["unit"], "parent": before, "change": after, "pairs": len(values),
                "change_wins": sum(sign * (a - b) > 0 for b, a in values),
                "parent_wins": sum(sign * (b - a) > 0 for b, a in values),
                "worse_than_bound": bool(loss > metric["bound"] * abs(before["median"])),
            }
        out.setdefault(workload, {})[f"seed {seed}{' smoke' if smoke else ''}"] = row
    return out


def git_head(tree: Path) -> str:
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return done.stdout.strip() or "nogit"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    if not (args.parent / "bench" / "run.py").is_file():
        p.error(f"no bench/run.py under {args.parent}")
    for var in BLAS_ENV:
        os.environ[var] = "1"  # the probe's, as bench/run.py sets them for its run

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    now = datetime.now(timezone.utc)
    path = args.out / f"BENCH_{now:%Y%m%d}_{git_head(ROOT)}.json"
    sources = {side: {"src_sha256": src_digest(tree)} for side, tree in trees.items()}
    runs = []
    if path.exists():  # a second invocation adds its runs to the day's record
        earlier = json.loads(path.read_text())
        if earlier["trees"] != sources:
            p.error(f"{path} records other source trees")
        runs = earlier["runs"]
    for workload in args.workloads:
        first_pair = len({r["pair"] for r in runs
                          if group(r) == (workload, args.seed, args.smoke)})
        for pair in range(first_pair, first_pair + args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                run = bench_run(trees[side], workload, args.seed, args.smoke)
                runs.append({"workload": workload, "seed": args.seed, "pair": pair,
                             "side": side, "first": position == 0, "smoke": args.smoke, **run})
                values = (run["result"] or {}).get("metrics", {})
                print(f"{workload} seed {args.seed} pair {pair} {side:6s} "
                      f"probe {run['probe_ms']:.2f} ms x{run['pair_speedup']:.2f} "
                      f"rc {run['returncode']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in values.items()),
                      flush=True)

    record = {
        "command": "bench/run.py --workload W --seed S --seconds "
                   f"{SECONDS:g} --trace 0 (smoke runs: --seconds {SMOKE_SECONDS:g} --smoke)",
        "date": now.isoformat(timespec="seconds"),
        "probe": f"median ms of {PROBE_REPEATS} ({PROBE_N}, {PROBE_N}) float64 products, "
                 "one BLAS thread, just before each run; pair_speedup: two such products "
                 "on two threads at once against one after the other, medians of as many",
        "trees": sources,
        "summary": summarize(runs, spec),
        "runs": runs,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if all(r["returncode"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
