"""Atomic file replacement for every artifact the package writes.

A checkpoint, realization, manifest or CSV is written to a temporary file in
the target's directory and then moved over the target with ``os.replace``.
A run that is killed or raises mid-write therefore leaves the previous file
intact, so ``--resume`` never reads a truncated checkpoint.  The temporary
file is not fsynced: this guards against an interrupted process, not against
a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing; a clean exit from
    the block replaces ``path`` with it, an exception removes it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
