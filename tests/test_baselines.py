import itertools
from dataclasses import replace

import numpy as np
import pytest

from dualrrm.baselines import (
    FullReusePolicy,
    ItlinqConfig,
    ItlinqPolicy,
    full_reuse,
    itlinq_schedule,
)
from dualrrm.core import RrmProblemConfig, rates
from dualrrm.errors import ConfigError
from dualrrm.execution import ExecConfig, evaluate_suite
from dualrrm.policy import GnnConfig
from dualrrm.training import TrainConfig, train

from conftest import make_realizations, random_gains, relabel_matrix


def random_channel(rng, m, scale=1e-5):
    return scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))


def itlinq_oracle(h, problem, icfg):
    """Greedy scheduling with the pairwise admission rule written out."""
    inr = problem.p_max * np.abs(h) ** 2 / problem.noise
    snr = np.diagonal(inr)
    cap = 10.0 ** (icfg.m_margin_db / 10.0) * snr**icfg.eta_exponent
    if icfg.ordering == "by-SNR-desc":
        order = sorted(range(problem.m), key=lambda i: (-snr[i], i))
    else:
        order = range(problem.m)
    scheduled = []
    for j in order:
        if all(inr[i, j] <= cap[i] and inr[j, i] <= cap[j] for i in scheduled):
            scheduled.append(j)
    powers = np.zeros(problem.m)
    powers[scheduled] = problem.p_max
    return powers


class TestFullReuse:
    def test_definition(self, rng):
        cfg = RrmProblemConfig(m=5)
        h = random_channel(rng, 5)
        assert np.array_equal(full_reuse(h, cfg), np.full(5, cfg.p_max))

    def test_single_user_optimum_at_box_edge(self, rng):
        # m = 1: the rate is increasing in power, so p_max is the optimum
        cfg = RrmProblemConfig(m=1)
        h = random_channel(rng, 1)
        best = max(
            rates(np.abs(h) ** 2, np.array([p]), cfg)[0] for p in np.linspace(0, cfg.p_max, 101)
        )
        assert rates(np.abs(h) ** 2, full_reuse(h, cfg), cfg)[0] == best


class TestItlinq:
    def test_single_link_always_scheduled(self, rng):
        cfg = RrmProblemConfig(m=1)
        p = itlinq_schedule(np.abs(random_channel(rng, 1)) ** 2, cfg, ItlinqConfig())
        assert p[0] == cfg.p_max

    def test_zero_cross_gain_schedules_both(self):
        cfg = RrmProblemConfig(m=2)
        h = np.diag([1e-4, 1e-4]).astype(complex)
        h[0, 1] = h[1, 0] = 1e-300  # effectively zero interference
        p = itlinq_schedule(np.abs(h) ** 2, cfg, ItlinqConfig())
        assert np.array_equal(p, np.full(2, cfg.p_max))

    def test_binary_output(self, rng):
        cfg = RrmProblemConfig(m=6)
        for _ in range(10):
            p = itlinq_schedule(np.abs(random_channel(rng, 6)) ** 2, cfg, ItlinqConfig())
            assert set(np.unique(p)).issubset({0.0, cfg.p_max})

    def test_greedy_set_satisfies_conditions_and_is_maximal(self, rng):
        # brute-force verification of the pairwise admission conditions in
        # greedy order, on random 4-link instances
        cfg = RrmProblemConfig(m=4)
        icfg = ItlinqConfig()
        margin = 10 ** (icfg.m_margin_db / 10)
        for _ in range(25):
            h = random_channel(rng, 4)
            p = itlinq_schedule(np.abs(h) ** 2, cfg, icfg)
            chosen = set(np.flatnonzero(p > 0))
            inr = cfg.p_max * np.abs(h) ** 2 / cfg.noise
            snr = np.diagonal(inr)
            cap = margin * snr**icfg.eta_exponent

            def admissible(i, j):
                return inr[i, j] <= cap[i] and inr[j, i] <= cap[j]

            # every scheduled pair satisfies both conditions
            for i, j in itertools.combinations(sorted(chosen), 2):
                assert admissible(i, j)
            # greedy maximality: replay the greedy order and compare
            order = sorted(range(4), key=lambda i: (-snr[i], i))
            replay = []
            for j in order:
                if all(admissible(i, j) for i in replay):
                    replay.append(j)
            assert set(replay) == chosen

    def test_by_index_ordering(self, rng):
        cfg = RrmProblemConfig(m=4)
        h = random_channel(rng, 4)
        p = itlinq_schedule(np.abs(h) ** 2, cfg, ItlinqConfig(ordering="by-index"))
        inr = cfg.p_max * np.abs(h) ** 2 / cfg.noise
        snr = np.diagonal(inr)
        cap = 10 ** (25 / 10) * snr**0.7
        replay = []
        for j in range(4):
            if all(inr[i, j] <= cap[i] and inr[j, i] <= cap[j] for i in replay):
                replay.append(j)
        assert set(np.flatnonzero(p > 0)) == set(replay)

    def test_huge_margin_degenerates_to_full_reuse(self, rng):
        cfg = RrmProblemConfig(m=6)
        icfg = ItlinqConfig(m_margin_db=300.0)
        for _ in range(5):
            h = random_channel(rng, 6)
            assert np.array_equal(itlinq_schedule(np.abs(h) ** 2, cfg, icfg), full_reuse(h, cfg))

    def test_permutation_equivariant_with_snr_order(self, rng):
        cfg = RrmProblemConfig(m=5)
        icfg = ItlinqConfig()
        h = random_channel(rng, 5)
        p = itlinq_schedule(np.abs(h) ** 2, cfg, icfg)
        for _ in range(10):
            perm = rng.permutation(5)
            pp = itlinq_schedule(np.abs(relabel_matrix(h, perm)) ** 2, cfg, icfg)
            assert np.array_equal(pp, p[perm])

    @pytest.mark.parametrize("ordering", ["by-SNR-desc", "by-index"])
    def test_matches_pairwise_oracle_on_random_instances(self, rng, ordering):
        shares = []
        for m in range(1, 13):
            problem = RrmProblemConfig(m=m)
            for _ in range(20):
                icfg = ItlinqConfig(m_margin_db=float(rng.uniform(-10, 30)), ordering=ordering)
                h = np.sqrt(random_gains(rng, 1, m)[0]).astype(complex)
                if m > 1 and rng.random() < 0.3:
                    h[1, 1] = h[0, 0]  # tied direct SNRs
                p = itlinq_schedule(np.abs(h) ** 2, problem, icfg)
                assert np.array_equal(p, itlinq_oracle(h, problem, icfg))
                shares.append(np.count_nonzero(p) / m)
        # the instances both admit and reject links
        assert any(0.0 < share < 1.0 for share in shares)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ItlinqConfig(eta_exponent=0.0).validate()
        with pytest.raises(ConfigError):
            ItlinqConfig(ordering="random").validate()


@pytest.fixture(scope="module")
def trained():
    problem = RrmProblemConfig(m=3)
    dataset = make_realizations(m=3, count=3, seed=61, area=400.0)
    cfg = TrainConfig(n_iters=60, batch_size=8, episode_len=10, seed=61)
    params, _ = train(cfg, problem, GnnConfig(f1=16, f2=16), dataset)
    test_set = make_realizations(m=3, count=2, seed=62, area=400.0)
    return problem, params, test_set


class TestEarlyStoppedBaseline:
    def test_t_stop_horizon_equals_unablated(self, trained):
        problem, params, test_set = trained
        cfg = ExecConfig(T=20, T0=5, eta_mu=20.0)
        base, base_traces = evaluate_suite(params, test_set, cfg, problem)
        ablated, traces = evaluate_suite(params, test_set, replace(cfg, t_stop=20), problem)
        assert base == ablated
        for a, b in zip(base_traces, traces):
            assert np.array_equal(a.powers, b.powers)

    def test_t_stop_zero_freezes_duals(self, trained):
        problem, params, test_set = trained
        cfg = ExecConfig(T=20, T0=5, eta_mu=20.0)
        _, traces = evaluate_suite(params, test_set, replace(cfg, t_stop=0), problem)
        for trace in traces:
            assert np.array_equal(trace.duals, np.zeros_like(trace.duals))

    def test_policy_wrappers_ignore_duals(self, rng):
        # a block's |h|^2 (n, m, m) in, one power vector per step out
        cfg = RrmProblemConfig(m=3)
        block = np.stack([random_channel(rng, 3, scale=s) for s in (1e-5, 1e-6, 3e-5, 1e-5)])
        g2 = np.abs(block) ** 2
        for policy in (FullReusePolicy(), ItlinqPolicy(ItlinqConfig())):
            window_powers = policy.windows(g2, cfg)
            p = window_powers(slice(0, 4), np.zeros(3))
            assert p.shape == (4, 3)
            assert np.array_equal(p, window_powers(slice(0, 4), np.ones(3)))
            assert np.array_equal(p[1:3], window_powers(slice(1, 3), np.ones(3)))
            for t in range(4):
                assert np.array_equal(p[t], policy.windows(g2[t], cfg)(..., np.ones(3)))
