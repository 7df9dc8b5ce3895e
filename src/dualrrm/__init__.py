"""Power control for m-user interference channels with minimum-rate guarantees.

The package trains a message-passing policy that maps the current channel
matrix plus per-user dual variables to transmit powers, then runs that frozen
policy online while updating the duals by projected descent on the
minimum-rate constraint slacks.  Full-reuse and greedy link-scheduling
baselines, a seeded channel simulator, and a CSV-emitting experiment CLI are
included.
"""

import ctypes
import functools
import multiprocessing
import os

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_MAPS = "/proc/self/maps"  # the mappings of this process, one a line
_OPENBLAS_COUNTS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.cache
def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown;
    OpenBLAS fixes it from the variables when it loads, so it is read once."""
    import numpy  # noqa: F401  the library is mapped once numpy is loaded

    try:
        with open(_MAPS) as f:
            # the path is the sixth field, spaces and all
            paths = {line.split(maxsplit=5)[-1].rstrip("\n").removesuffix(" (deleted)")
                     for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(paths):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _OPENBLAS_COUNTS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def parallel_slots() -> int:
    """How many threads or processes a stage may split its work over: the
    usable CPUs when the OpenBLAS numpy loaded runs one thread, and 1 when
    it runs more or its count cannot be read, so that BLAS threads and the
    split never compete for cores.  A process that ``multiprocessing``
    started, such as a worker of the evaluation pool, is one slot: its
    parent already split the work, and splits never nest."""
    if multiprocessing.parent_process() is not None or blas_threads() != 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1
