"""Power control for m-user interference channels with minimum-rate guarantees.

The package trains a message-passing policy that maps the current channel
matrix plus per-user dual variables to transmit powers, then runs that frozen
policy online while updating the duals by projected descent on the
minimum-rate constraint slacks.  Full-reuse and greedy link-scheduling
baselines, a seeded channel simulator, and a CSV-emitting experiment CLI are
included.
"""

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
