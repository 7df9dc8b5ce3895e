"""Dataset generation and caching: one JSON file per realization + manifest.

Per-realization seeds derive from (master seed, purpose, split, index), so a
dataset is a pure function of the config and master seed; the manifest
records the counts, the seeds, and the config hash for audit.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from .atomic import atomic_open
from .channel import (
    Realization,
    load_realization,
    sample_topology,
    save_realization,
)
from .config import ExperimentConfig, config_hash, config_to_dict
from .errors import ConfigError
from .seeding import FADING, SPLIT_IDS, TOPOLOGY, derive_seed

MANIFEST_NAME = "manifest.json"


def _split_id(split: str) -> int:
    if split not in SPLIT_IDS:
        raise ConfigError(f"unknown split {split!r}; expected one of {sorted(SPLIT_IDS)}")
    return SPLIT_IDS[split]


def generate_dataset(cfg: ExperimentConfig, split: str, count: int | None = None) -> list[Realization]:
    """Draw the realizations for a split without touching the filesystem."""
    sid = _split_id(split)
    if count is None:
        count = cfg.data.n_train if split == "train" else cfg.data.n_test
    out = []
    for i in range(count):
        topo_seed = derive_seed(cfg.seed, TOPOLOGY, sid, i)
        fading_seed = derive_seed(cfg.seed, FADING, sid, i)
        out.append(
            Realization(
                large=sample_topology(cfg.topology, topo_seed),
                fading_seed=fading_seed,
                rho=cfg.fading.rho,
                topology_seed=topo_seed,
            )
        )
    return out


def dataset_dir(cfg: ExperimentConfig, split: str) -> Path:
    return Path(cfg.output_dir) / "datasets" / split


def write_dataset(cfg: ExperimentConfig, split: str, realizations: list[Realization]) -> Path:
    """Serialize realizations plus a manifest; returns the dataset directory."""
    out = dataset_dir(cfg, split)
    out.mkdir(parents=True, exist_ok=True)
    topo_echo = config_to_dict(cfg)["topology"]
    for i, r in enumerate(realizations):
        save_realization(out / f"realization_{i:05d}.json", r, config_echo=topo_echo)
    manifest = {
        "tool_version": __version__,
        "split": split,
        "count": len(realizations),
        "m": cfg.topology.m,
        "master_seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "area_side_m": cfg.topology.resolved_area_side_m(),
        "nonstandard_area": cfg.topology.nonstandard_area,
        "seeds": [
            {"topology": r.topology_seed, "fading": r.fading_seed}
            for r in realizations
        ],
    }
    with atomic_open(out / MANIFEST_NAME) as f:
        json.dump(manifest, f, sort_keys=True, separators=(",", ":"))
    return out


def load_dataset(path: str | Path) -> tuple[list[Realization], dict]:
    """Realizations plus manifest from a dataset directory.  A malformed
    manifest or realization file raises ConfigError, and so do seeds that
    differ between a file and its manifest entry or that do not re-derive
    from the manifest's master seed and split."""
    path = Path(path)
    try:
        with open(path / MANIFEST_NAME) as f:
            manifest = json.load(f)
    except ValueError as exc:
        raise ConfigError(f"dataset manifest {path / MANIFEST_NAME}: {exc}") from None
    if not (isinstance(manifest, dict) and type(manifest.get("count")) is int
            and type(manifest.get("m")) is int):
        raise ConfigError(f"dataset manifest {path / MANIFEST_NAME} needs integers count and m")
    master, split, seeds = (manifest.get(k) for k in ("master_seed", "split", "seeds"))
    if not (type(master) is int and master >= 0 and isinstance(split, str)
            and isinstance(seeds, list) and len(seeds) == manifest["count"]):
        raise ConfigError(f"dataset manifest {path / MANIFEST_NAME} needs a master_seed >= 0, "
                          "a split and one seeds entry per realization")
    sid = _split_id(split)
    realizations = [
        load_realization(path / f"realization_{i:05d}.json")
        for i in range(manifest["count"])
    ]
    for i, r in enumerate(realizations):
        if r.m != manifest["m"]:
            raise ConfigError(f"dataset {path}: realization {i} has m={r.m}, "
                              f"the manifest says m={manifest['m']}")
        got = {"topology": r.topology_seed, "fading": r.fading_seed}
        derived = {"topology": derive_seed(master, TOPOLOGY, sid, i),
                   "fading": derive_seed(master, FADING, sid, i)}
        if not seeds[i] == got == derived:
            raise ConfigError(f"dataset {path}: realization {i} has seeds {got}, the manifest "
                              f"lists {seeds[i]}, master seed {master} derives {derived}")
    return realizations, manifest
