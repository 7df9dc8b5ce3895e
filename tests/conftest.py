import os

import dualrrm
from dualrrm import BLAS_THREAD_VARS, blas_threads  # the OpenBLAS count the tests read

# One BLAS thread, pinned before anything imports numpy, as the CLI, the
# benchmark and the golden run have it; training then splits its batches
# across threads, channel synthesis draws its blocks on threads and the CLI
# evaluates on a process pool, one per usable CPU
# (``dualrrm.parallel_slots``), here too.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import settings

# One profile for every property test: no per-example deadline, since the
# examples build networks of varying size and a shared machine's timing says
# nothing about them, and a reproduction blob printed with every failure.
# Each test sets its own max_examples.
settings.register_profile("dualrrm", deadline=None, print_blob=True)
settings.load_profile("dualrrm")

from dualrrm import core, execution
from dualrrm.channel import Realization, TopologyConfig, sample_topology
from dualrrm.core import RrmProblemConfig
from dualrrm.policy import gradient_blocks
from dualrrm.seeding import derive_seed


def force_cpus(mp, cpus):
    """Give this process ``cpus`` usable CPUs and one BLAS thread, so that
    ``dualrrm.parallel_slots()`` reads ``cpus`` whatever BLAS numpy loaded;
    ``TestBlasThreads`` covers the real probe."""
    mp.setattr(dualrrm, "blas_threads", lambda: 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def record_pool_sizes(mp):
    """Replace evaluation's process pool by a serial stand-in that starts no
    process; the returned list collects the ``max_workers`` of each pool."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    mp.setattr(execution, "ProcessPoolExecutor", SerialPool)
    return sizes


def force_block_steps(mp, n, m, dims):
    """Make ``episode_eval`` run gradient blocks of exactly ``n`` steps at m."""
    mp.setattr(core, "_BLOCK_BYTES", n * 8 * m * max(dims.f1, dims.f2))
    assert gradient_blocks(m, 1, dims) == (n, 1)  # a budget of n steps


def make_realizations(m, count, seed, area=500.0, rho=0.956):
    """Small in-memory dataset without going through the config machinery."""
    topo = TopologyConfig(m=m, area_side_m=area)
    out = []
    for i in range(count):
        topo_seed = derive_seed(seed, 0, i)
        out.append(
            Realization(
                large=sample_topology(topo, topo_seed),
                fading_seed=derive_seed(seed, 1, i),
                rho=rho,
                topology_seed=topo_seed,
            )
        )
    return out


def params_equal(a, b):
    return all(
        na == nb and np.array_equal(x, y)
        for (na, x), (nb, y) in zip(a.named_arrays(), b.named_arrays())
    )


def random_gains(rng, n_steps, m):
    """(T, m, m) |h|^2 spread over about eight decades, as path loss and
    shadowing spread real link strengths."""
    return 1e-10 * rng.lognormal(0.0, 3.0, (n_steps, m, m))


def relabel_matrix(h, perm):
    return h[np.ix_(perm, perm)]


@pytest.fixture
def problem6():
    return RrmProblemConfig(m=6)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
