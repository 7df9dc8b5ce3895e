"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``dualrrm`` from its
``src`` directory; nothing needs to be installed.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` wraps every layer's public functions and
prints the per-layer metrics instead.  ``--smoke`` runs the same pipeline at
toy sizes in about a second, for checking names, units and output checks.
The last line of standard output is the result; a full record, with
provenance and sample counts, goes to ``.bench_out/``.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train-desk", "train-paper", "eval-paper")
# Interleaved traced/untraced execute() pairs for the tracing overhead.
OVERHEAD_PAIRS = 30
# One BLAS thread, so the load is this process's one thread.  With two,
# OpenBLAS spins a second thread on the other core at m=50 for no measured
# speed-up, and doubles the share of the shared host the run depends on.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes; no quality reference")
    return p.parse_args(argv)


def import_library():
    """Import dualrrm from this checkout's src, refusing any other copy."""
    if not (SRC / "dualrrm" / "__init__.py").is_file():
        raise SystemExit(f"error: no dualrrm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualrrm

    if Path(dualrrm.__file__).resolve().parent != SRC / "dualrrm":
        raise SystemExit(f"error: imported dualrrm from {dualrrm.__file__}, not {SRC}")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        sha = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "dualrrm").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def quality_failures(spec: dict, workload: str, values: dict) -> list[str]:
    """Quality metrics worse than the recorded reference by more than their bound."""
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    recorded = reference["workloads"].get(workload, {})
    failures = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in recorded or name not in values:
            continue
        ref = recorded[name]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        if sign * (values[name] - ref) < -metric["bound"] * abs(ref):
            failures.append(f"{name}={values[name]:.6g} is worse than the reference "
                            f"{ref:.6g} by more than {metric['bound']:.0%}")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    import_library()
    import pipeline
    import tracing

    import_s = time.perf_counter() - PROCESS_T0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = (pipeline.smoke_workload(args.workload) if args.smoke
                else pipeline.WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        run = pipeline.Pipeline(workload, args.seed, args.seconds, tracer)
        out = run.run()
        if tracer is not None:
            values = tracing.layer_metrics(tracer, workload.train, run.state[1].feature_dims)
            n_spans = len(tracer.spans)
            values["trace.overhead_pct"] = run.tracing_overhead_pct(OVERHEAD_PAIRS)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.values["setup_s"] += import_s
    if tracer is None:
        values = out.values

    names = [m["name"] for m in spec["per_layer" if tracer else "end_to_end"]]
    missing = [n for n in names if not math.isfinite(values.get(n, math.nan))]
    if missing:
        out.notes.append(f"metrics not measured: {', '.join(missing)}")
    if not args.smoke:
        for failure in quality_failures(spec, args.workload, out.values):
            out.fail(1, failure)
    correct = out.failed == 0 and not missing
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n not in missing}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": out.attempted, "failed": out.failed,
        "error_rate": out.failed / max(out.attempted, 1),
        "notes": out.notes, "samples": out.samples, "info": out.info, "metrics": metrics,
        "provenance": provenance(args.seed),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        del tracer.spans[n_spans:]  # the overhead pairs are not part of the run
        tracer.write(OUT_DIR / f"{stem}.spans.csv")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"samples {json.dumps(out.samples, sort_keys=True)}")
    print(f"info {json.dumps(out.info, sort_keys=True)}")
    print(f"error_rate {record['error_rate']:.6g} ({out.failed} failed of {out.attempted})")
    for note in out.notes:
        print(f"note: {note}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
