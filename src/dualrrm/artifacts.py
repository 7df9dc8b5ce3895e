"""Every file the package reads or writes: the config, the dataset (a
manifest plus one realization file per network sample), the checkpoint and
the output CSVs.

A file is written to a temporary file in the target's directory and then
moved over the target with ``os.replace``.  A run that is killed or raises
mid-write therefore leaves the previous file intact, so ``--resume`` never
reads a truncated checkpoint.  A writer killed mid-write can leave its
temporary file, ``.<name>.<pid>.tmp``, beside the target; nothing reads it.
The temporary file is not fsynced: this guards against an interrupted
process, not against a power loss.

Each JSON object is read by ``load_json`` and checked by the artifact's own
schema function with the shared field checks ``is_int`` and ``number_array``;
any malformed file ends in one ``ConfigError``, which the CLI maps to exit 2.

``write_csv`` writes every output CSV: a provenance comment line, the header
row, then rows with floats at shortest-round-trip precision, so identical
runs give byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch, RrmError


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


def write_csv(path, header, rows, provenance: str) -> None:
    """Write ``rows`` under the comment line ``provenance`` and ``header``,
    creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, newline="") as f:
        f.write(provenance + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def load_json(path, what: str, parse):
    """``parse(obj)`` for the JSON object in the file at ``path``.  Bytes
    that are not UTF-8 or not JSON, nesting too deep to parse, a value that
    is not an object, and a ``ValueError`` or package error from ``parse``
    become ``ConfigError("{what} {path}: ...")``; ``OSError`` passes through."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        obj = json.loads(raw)
        if not isinstance(obj, dict):
            raise ConfigError("not a JSON object")
        return parse(obj)
    except (ValueError, RecursionError, RrmError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None


def is_int(value) -> bool:
    """An integer, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def number_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value``, nested lists of numbers, as a float64 array.  Raises
    ConfigError unless every entry is a finite number (not a bool or a
    string) and DimensionMismatch unless the shape is ``shape``."""
    try:
        a = np.array(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{name}: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be an array of numbers")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} holds non-finite values")
    if a.shape != shape:
        raise DimensionMismatch(f"{name} has shape {a.shape}, not {shape}")
    return a
