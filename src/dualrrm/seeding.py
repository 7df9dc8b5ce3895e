"""Deterministic random-stream derivation.

A single master seed fans out to purpose-scoped streams through
``SeedSequence`` spawn keys, so e.g. changing the batch size cannot perturb
topology draws.  All streams use the counter-based Philox generator, which
additionally supports cheap random access into a stream: fading innovations
for time step t live in a dedicated counter slot and can be regenerated
without replaying steps 0..t-1.
"""

from __future__ import annotations

import numpy as np

# Purpose tags; the values are part of the on-disk dataset/checkpoint format.
TOPOLOGY = 0
FADING = 1
PARAM_INIT = 2
DUAL_SAMPLING = 3
DATA_ORDER = 4
ORACLE = 5

# Splits, used as the path element after TOPOLOGY / FADING.
SPLIT_IDS = {"train": 0, "test": 1}


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a child integer seed from the master seed and a purpose path."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Sequential generator for the given derived seed."""
    return np.random.Generator(np.random.Philox(key=seed))


class SlotGenerator:
    """Random access to the counter slots of one seed's stream.

    Slot s starts at Philox counter s * 2**64, that is, with counter word 1
    set to s; one slot never consumes anywhere near 2**64 outputs, so slots
    cannot overlap.  One generator is repositioned for every slot, which is
    much cheaper than building a generator per slot.  The start state holds
    its counter, key and buffer as Python ints, not arrays: Philox's state
    setter reads them entry by entry, and a list hands over its ints for
    less than an array's entries cost to convert.
    """

    def __init__(self, seed: int):
        self._rng = generator(seed)
        start = self._rng.bit_generator.state  # counter 0, nothing buffered
        start["state"] = {k: v.tolist() for k, v in start["state"].items()}
        start["buffer"] = start["buffer"].tolist()
        self._start = start

    def at(self, slot: int) -> np.random.Generator:
        """The generator at the start of ``slot``: the position that
        ``Philox(key=seed).advance(slot << 64)`` reaches."""
        self._start["state"]["counter"][1] = slot
        self._rng.bit_generator.state = self._start
        return self._rng
