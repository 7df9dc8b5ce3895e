import numpy as np
import pytest
from hypothesis import settings

# One profile for every property test: no per-example deadline, since the
# examples build networks of varying size and a shared machine's timing says
# nothing about them, and a reproduction blob printed with every failure.
# Each test sets its own max_examples.
settings.register_profile("dualrrm", deadline=None, print_blob=True)
settings.load_profile("dualrrm")

from dualrrm.channel import Realization, TopologyConfig, sample_topology
from dualrrm.core import RrmProblemConfig
from dualrrm.seeding import derive_seed


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
