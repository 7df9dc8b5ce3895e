"""Golden-run check: the CLI pipeline's outputs, compared byte for byte.

A pure refactor must leave every default output byte-identical.  ``run``
drives the CLI of this checkout's ``src`` (or of ``--src DIR``) through a
fixed pipeline at m=6, m=20 and m=50 (generate, train with intermediate
checkpoints, a second training run resumed from the iteration-20 checkpoint
into its own output directory, a third training run limited to one CPU in
its own output directory, eval with CDF and trace exports, eval with a CDF
export limited to one CPU, early-stop eval, baselines, baselines with one
trace exported per suite limited to one CPU, ITLinQ eval under a config
copy with the by-index ordering, gradcheck, theorem-suite) and keeps every
file it writes plus the stdout and exit code of each step.  Every step runs
BLAS on one thread, so training splits its batches across the usable CPUs
where its gradient blocks allow, and evaluation runs the test realizations
in blocks of whole episodes on a pool of up to one process per usable CPU;
the one-CPU steps are the unsplit, unpooled twins.  At m=6 training has the
desk layout (f=64, T=50, B=16): three whole episodes per gradient block, six
blocks per batch, so the batch splits into chunks of whole episodes.  Training at m=50 runs
100-step episodes, which the episode gradient takes in two time blocks, so
the golden run crosses a block edge of every blocked stage: synthesis,
training and execution; its batch splits into one-episode chunks.  At m=20
the batch is one gradient block, and the two message-passing layers have
different widths (16 and 24).  On 2 CPUs, the default ``eval`` and
``baselines`` steps at m=6 run the 4 test realizations, 103 steps each, as
2 blocks of 2 on 2 processes, and their one-CPU twins as one block of 4, so
the compare checks stacked against split execution; at m=20 and m=50 every
block holds one realization.
``compare`` lists every file that is missing from either tree or differs,
and exits nonzero if there is any.

    python3 tools/golden.py run /tmp/golden_old --src /path/to/old/src
    python3 tools/golden.py run /tmp/golden_new      # this checkout's src
    python3 tools/golden.py compare /tmp/golden_old /tmp/golden_new

Wall-clock outputs (``train --timing``, ``--export-timing``) are left out,
because they differ from run to run.  Each size's output directory is
relative to OUT, so the config hashes in the files do not depend on where
OUT is.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# the steps whose child process may run on one CPU only
ONE_CPU_STEPS = {"train_one_cpu", "eval_one_cpu", "baselines_one_cpu"}
CKPT = "checkpoints/checkpoint_final.json"
# m -> (area side in m, n_train, n_test, training episode_len, batch_size,
# (f1, f2)).  At m=50 channel synthesis runs in 13-step blocks, execution in
# 25-step blocks and the training gradient (f=16) in 81-step blocks, so a
# 100-step training episode is one block of 81 steps and one of 19.  At m=6
# (f=64) a gradient block holds 170 steps, three 50-step episodes; at m=6
# and m=20 synthesis and execution take a whole episode at once.  The
# evaluation blocks at m=6 take up to 17 whole 103-step episodes, so 2 CPUs
# split the 4 test realizations into 2 blocks of 2 and one CPU runs one of 4.
SIZES = {
    6: (500.0, 16, 4, 50, 16, (64, 64)),
    20: (1000.0, 8, 4, 20, 4, (16, 24)),
    50: (2000.0, 4, 2, 100, 4, (16, 16)),
}


def _config(m: int) -> dict:
    area, n_train, n_test, episode_len, batch_size, (f1, f2) = SIZES[m]
    return {
        "seed": 7,
        "output_dir": f"m{m}",
        "topology": {"m": m, "area_side_m": area},
        "gnn": {"f1": f1, "f2": f2},
        "train": {"n_iters": 40, "batch_size": batch_size, "episode_len": episode_len,
                  "checkpoint_every": 20},
        "execution": {"T": 103, "T0": 5},
        "data": {"n_train": n_train, "n_test": n_test},
    }


def _steps(m: int) -> list[tuple[str, str, list[str]]]:
    """(name, config file, argv) of each CLI call."""
    cfg, by_index, ckpt = f"m{m}.json", f"m{m}_by_index.json", f"m{m}/{CKPT}"
    resume_out, mid = f"m{m}_resume", f"m{m}/checkpoints/checkpoint_000020.json"
    return [
        ("generate_train", cfg, ["generate", "--split", "train"]),
        ("generate_test", cfg, ["generate", "--split", "test"]),
        ("train", cfg, ["train"]),
        ("generate_resume", cfg, ["generate", "--split", "train", "--out", resume_out]),
        ("train_resume", cfg, ["train", "--out", resume_out, "--resume", mid]),
        ("generate_one_cpu", cfg, ["generate", "--split", "train", "--out", f"m{m}_one_cpu"]),
        ("train_one_cpu", cfg, ["train", "--out", f"m{m}_one_cpu"]),
        ("eval", cfg, ["eval", "--checkpoint", ckpt, "--export-cdf", "--export-trace", "2"]),
        ("eval_one_cpu", cfg, ["eval", "--checkpoint", ckpt, "--export-cdf"]),
        ("eval_early_stop", cfg, ["eval", "--policy", "early_stop", "--t-stop", "37",
                                  "--checkpoint", ckpt]),
        ("baselines", cfg, ["baselines", "--checkpoint", ckpt, "--export-cdf"]),
        ("baselines_one_cpu", cfg, ["baselines", "--checkpoint", ckpt, "--export-trace", "1"]),
        ("eval_itlinq_by_index", by_index, ["eval", "--policy", "itlinq"]),
        ("gradcheck", cfg, ["gradcheck"]),
        ("theorem_suite", cfg, ["theorem-suite", "--checkpoint", ckpt]),
    ]


def _one_cpu() -> None:
    """Limit the calling process, a step's child before it execs, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(out: Path, src: Path) -> int:
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = 0
    for m in SIZES:
        (out / f"m{m}.json").write_text(json.dumps(_config(m), sort_keys=True))
        by_index = dict(_config(m), itlinq={"ordering": "by-index"})
        (out / f"m{m}_by_index.json").write_text(json.dumps(by_index, sort_keys=True))
        logs = out / f"m{m}" / "stdout"
        logs.mkdir(parents=True)
        for name, cfg, argv in _steps(m):
            proc = subprocess.run(
                [sys.executable, "-m", "dualrrm.cli", *argv, "--config", cfg],
                cwd=out, env=env, capture_output=True, text=True,
                preexec_fn=_one_cpu if name in ONE_CPU_STEPS else None,
            )
            (logs / f"{name}.txt").write_text(f"exit {proc.returncode}\n{proc.stdout}")
            if proc.returncode != 0:
                failed += 1
                print(f"m={m} {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            # the eval-like steps all write eval/; keep each step's files apart
            if (out / f"m{m}" / "eval").exists():
                (out / f"m{m}" / "eval").rename(out / f"m{m}" / f"{name}_outputs")
    n_files = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"{n_files} files in {out}; {failed} steps failed")
    return 1 if failed else 0


def compare(a: Path, b: Path) -> int:
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    if not files[0] and not files[1]:
        print("no files to compare", file=sys.stderr)
        return 2
    problems = 0
    for rel in sorted(files[0] | files[1]):
        for root, present in zip((a, b), files):
            if rel not in present:
                problems += 1
                print(f"missing from {root}: {rel}")
        if rel in files[0] and rel in files[1] and (a / rel).read_bytes() != (b / rel).read_bytes():
            problems += 1
            print(f"differs: {rel}")
    n_files = len(files[0] | files[1])
    print(f"{n_files} files, {problems} missing or differing")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the pipeline into an empty directory")
    p.add_argument("out", type=Path)
    p.add_argument("--src", type=Path, default=SRC,
                   help="package sources to run (default: this checkout's src)")
    p = sub.add_parser("compare", help="compare two run directories byte for byte")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out, args.src)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
