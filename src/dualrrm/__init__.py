"""Power control for m-user interference channels with minimum-rate guarantees.

The package trains a message-passing policy that maps the current channel
matrix plus per-user dual variables to transmit powers, then runs that frozen
policy online while updating the duals by projected descent on the
minimum-rate constraint slacks.  Full-reuse and greedy link-scheduling
baselines, a seeded channel simulator, and a CSV-emitting experiment CLI are
included.
"""

import os

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parallel_slots() -> int:
    """How many threads or processes a stage may split its work over: the
    usable CPUs when at least one BLAS thread variable is set and every one
    that is set reads 1, and 1 otherwise, so that BLAS threads and the split
    never compete for cores."""
    if {os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ} != {"1"}:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1
