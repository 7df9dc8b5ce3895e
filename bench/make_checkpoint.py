"""Regenerate the desk-trained checkpoint that every evaluation phase loads.

    python3 bench/make_checkpoint.py

Trains at the desk acceptance setting (m=6 in a 500 m square, B=16, T=50,
32 realizations, 300 iterations, master seed 2207) through the calls that
``dualrrm generate`` and ``dualrrm train`` make, and writes
``bench/desk_checkpoint.json``.  The output is byte-identical on every run
of the same library code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualrrm import datasets, policy, training  # noqa: E402
from dualrrm.config import config_to_dict  # noqa: E402

import pipeline  # noqa: E402

MASTER_SEED = 2207
N_ITERS = 300


def main() -> None:
    shape = pipeline.WORKLOADS["train-desk"].train
    cfg = pipeline.train_config(MASTER_SEED, shape, N_ITERS)
    train_set = datasets.generate_dataset(cfg, "train")
    params, _ = training.train(cfg.train, cfg.problem, cfg.gnn, train_set)
    policy.save_checkpoint(
        pipeline.CHECKPOINT,
        policy.Checkpoint(params=params, seed=cfg.seed, iteration=N_ITERS,
                          config_echo=config_to_dict(cfg)),
    )
    print(f"wrote {pipeline.CHECKPOINT}")


if __name__ == "__main__":
    main()
