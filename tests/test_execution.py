from dataclasses import replace

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualrrm import core, execution
from dualrrm.core import RrmProblemConfig, metrics, rates
from dualrrm.errors import (
    DimensionMismatch,
    EmptyInput,
    NegativeDual,
    WindowLengthMismatch,
)
from dualrrm.execution import (
    EpisodeTrace,
    ExecConfig,
    GnnPolicy,
    dual_update,
    evaluate_suite,
    execute,
    replay_duals,
)
from dualrrm.baselines import FullReusePolicy, ItlinqConfig, ItlinqPolicy
from dualrrm.policy import GnnConfig, init_params
from dualrrm.training import TrainConfig, train
from dualrrm.verify import dual_trace_battery

from conftest import make_realizations


def exec_cfg(**kw):
    base = dict(T=20, T0=5, eta_mu=20.0)
    base.update(kw)
    return ExecConfig(**base)


class TestDualUpdate:
    def test_balanced_window_leaves_mu(self):
        problem = RrmProblemConfig(m=3)
        window = np.full((5, 3), problem.f_min_bps_hz)
        mu = np.array([0.4, 0.0, 2.0])
        out = dual_update(mu, window, exec_cfg(), problem)
        assert np.array_equal(out, mu)

    def test_hand_value_without_projection(self):
        problem = RrmProblemConfig(m=1)
        window = np.full((5, 1), problem.f_min_bps_hz + 0.01)
        out = dual_update(np.array([0.5]), window, exec_cfg(), problem)
        expected = max(0.0, 0.5 - 20.0 * (np.mean(window) - problem.f_min_bps_hz))
        assert out[0] == expected
        assert out[0] == pytest.approx(0.3, abs=1e-12)

    def test_hand_value_with_projection(self):
        problem = RrmProblemConfig(m=1)
        window = np.full((5, 1), problem.f_min_bps_hz + 0.01)
        out = dual_update(np.array([0.1]), window, exec_cfg(), problem)
        assert out[0] == 0.0

    def test_window_length_checked(self):
        problem = RrmProblemConfig(m=2)
        with pytest.raises(WindowLengthMismatch):
            dual_update(np.zeros(2), np.zeros((4, 2)), exec_cfg(), problem)

    def test_negative_dual_rejected(self):
        problem = RrmProblemConfig(m=2)
        with pytest.raises(NegativeDual):
            dual_update(np.array([-0.1, 0.0]), np.zeros((5, 2)), exec_cfg(), problem)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_dual_rejected(self, bad):
        # a NaN fails every comparison, so a bare "mu < 0" test lets it through
        problem = RrmProblemConfig(m=3)
        with pytest.raises(NegativeDual):
            dual_update(np.array([0.0, bad, 1.0]), np.zeros((5, 3)), exec_cfg(), problem)
        (real,) = make_realizations(m=3, count=1, seed=32, area=400.0)
        cfg = ExecConfig(T=5, T0=5, mu_init=(0.0, bad, 1.0))
        with pytest.raises(NegativeDual):
            execute(FullReusePolicy(), real.episode(5), cfg, problem)

    @settings(max_examples=40)
    @given(
        m=st.integers(1, 12),
        T0=st.integers(1, 7),
        eta=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
    )
    def test_projection_laws(self, m, T0, eta, seed):
        rng = np.random.default_rng(seed)
        problem = RrmProblemConfig(m=m)
        cfg = ExecConfig(T=T0, T0=T0, eta_mu=eta)
        mu = rng.uniform(0, 5, m) * (rng.random(m) < 0.7)  # some duals at zero
        window = rng.uniform(0, 2, (T0, m))
        out = dual_update(mu, window, cfg, problem)
        slack = window.mean(axis=0) - problem.f_min_bps_hz
        assert np.all(out >= 0)
        assert np.array_equal(out, np.maximum(0.0, mu - eta * slack))
        # identical columns make every user's window mean the same float,
        # so that mean can serve as an f_min the window meets exactly
        balanced = np.repeat(window[:, :1], m, axis=1)
        exact = RrmProblemConfig(m=m, f_min_bps_hz=float(balanced.mean(axis=0)[0]))
        assert np.array_equal(dual_update(mu, balanced, cfg, exact), mu)
        # raising one user's window rates never raises that user's dual
        i = int(rng.integers(m))
        raised = window.copy()
        raised[:, i] += rng.uniform(0, 1, T0)
        assert dual_update(mu, raised, cfg, problem)[i] <= out[i]


@pytest.fixture(scope="module")
def small_run():
    """One trained m=3 policy plus its test realizations."""
    problem = RrmProblemConfig(m=3)
    dataset = make_realizations(m=3, count=3, seed=31, area=400.0)
    cfg = TrainConfig(n_iters=60, batch_size=8, episode_len=10, seed=31)
    params, _ = train(cfg, problem, GnnConfig(f1=16, f2=16), dataset)
    test_set = make_realizations(m=3, count=3, seed=32, area=400.0)
    return problem, params, test_set


class TestExecute:
    def test_t_stop_zero_freezes_duals_at_init(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=30, t_stop=0)
        trace = execute(params, test_set[0].episode(30), cfg, problem)
        assert np.array_equal(trace.duals, np.zeros_like(trace.duals))
        assert np.array_equal(trace.final_dual, np.zeros(3))

    def test_t_stop_at_horizon_is_noop_ablation(self, small_run):
        problem, params, test_set = small_run
        episode = test_set[0].episode(20)
        a = execute(params, episode, exec_cfg(), problem)
        b = execute(params, episode, exec_cfg(t_stop=20), problem)
        assert np.array_equal(a.duals, b.duals)
        assert np.array_equal(a.powers, b.powers)

    def test_violation_strictly_raises_dual(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=60)
        for real in test_set:
            trace = execute(params, real.episode(60), cfg, problem)
            for k in range(trace.duals.shape[0] - 1):
                window_mean = trace.rates[k * cfg.T0 : (k + 1) * cfg.T0].mean(axis=0)
                for i in range(problem.m):
                    if window_mean[i] < problem.f_min_bps_hz:
                        assert trace.duals[k + 1, i] > trace.duals[k, i]

    def test_replay_reproduces_duals_bit_exactly(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=60)
        trace = execute(params, test_set[1].episode(60), cfg, problem)
        assert np.array_equal(replay_duals(trace, cfg, problem), trace.duals)

    def test_trace_battery_passes(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=60)
        trace = execute(params, test_set[2].episode(60), cfg, problem)
        for result in dual_trace_battery(trace, cfg, problem):
            assert result.passed, result

    def test_duals_nonnegative_and_shapes(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=23, T0=5)
        trace = execute(params, test_set[0].episode(23), cfg, problem)
        assert trace.duals.shape == (4, 3)  # floor(23 / 5) windows
        assert trace.powers.shape == (23, 3)
        assert np.all(trace.duals >= 0)
        assert np.all(trace.powers >= 0) and np.all(trace.powers <= problem.p_max)

    def test_trailing_partial_window_triggers_no_update(self, small_run):
        problem, params, test_set = small_run
        episode = test_set[0].episode(24)
        a = execute(params, episode[:20], exec_cfg(T=20), problem)
        b = execute(params, episode[:24], exec_cfg(T=24), problem)
        # same windows, and the partial tail never updates the dual
        assert np.array_equal(a.duals, b.duals)
        assert np.array_equal(b.final_dual, replay_final(a, problem))

    def test_mu_init_hook(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(mu_init=(0.5, 0.0, 1.0))
        trace = execute(params, test_set[0].episode(20), cfg, problem)
        assert np.array_equal(trace.duals[0], np.array([0.5, 0.0, 1.0]))

    def test_short_episode_rejected(self, small_run):
        problem, params, test_set = small_run
        with pytest.raises(DimensionMismatch):
            execute(params, test_set[0].episode(10), exec_cfg(T=20), problem)

    def test_runs_on_unseen_network_size(self):
        # parameters trained at one size execute at another unchanged
        params = init_params(GnnConfig(f1=8, f2=8), 3)
        problem7 = RrmProblemConfig(m=7)
        (real7,) = make_realizations(m=7, count=1, seed=40, area=900.0)
        trace = execute(params, real7.episode(10), exec_cfg(T=10), problem7)
        assert trace.powers.shape == (10, 7)

    def test_ergodic_rates_are_running_means(self, small_run):
        problem, params, test_set = small_run
        trace = execute(params, test_set[0].episode(20), exec_cfg(), problem)
        manual = np.cumsum(trace.rates, axis=0) / np.arange(1, 21)[:, None]
        assert np.array_equal(trace.ergodic_rates, manual)


def failed_laws(trace, cfg, problem):
    return {r.name for r in dual_trace_battery(trace, cfg, problem) if not r.passed}


def with_dual(trace, k, i, value):
    """A copy of ``trace`` whose recorded dual of user i in window k is ``value``."""
    duals = trace.duals.copy()
    duals[k, i] = value
    return replace(trace, duals=duals)


@pytest.fixture(scope="module")
def battery_case():
    """A full-reuse trace of six windows; with f_min = 10 every window is
    violated, so each applied update raises every dual."""
    (real,) = make_realizations(m=3, count=1, seed=32, area=400.0)
    cfg = exec_cfg(T=30)

    def run(f_min=0.6, mu_init=None):
        problem = RrmProblemConfig(m=3, f_min_bps_hz=f_min)
        run_cfg = replace(cfg, mu_init=mu_init)
        trace = execute(FullReusePolicy(), real.episode(30), run_cfg, problem)
        assert failed_laws(trace, run_cfg, problem) == set()
        return trace, run_cfg, problem

    return run


class TestTraceBatteryCatches:
    def test_negative_dual(self, battery_case):
        trace, cfg, problem = battery_case()
        assert "dual_nonnegative" in failed_laws(with_dual(trace, 3, 1, -0.5), cfg, problem)

    def test_negative_first_dual(self, battery_case):
        # the replay starts from the first recorded dual, which the update
        # rule refuses when negative; the laws that read the replay fail
        trace, cfg, problem = battery_case()
        results = dual_trace_battery(with_dual(trace, 0, 1, -0.5), cfg, problem)
        failed = {r.name: r.detail for r in results if not r.passed}
        assert {"dual_nonnegative", "replay_bit_exact", "telescoping_bound"} <= failed.keys()
        assert failed["telescoping_bound"].startswith("no replay: ")

    def test_dual_off_by_one_ulp(self, battery_case):
        trace, cfg, problem = battery_case()
        nudged = np.nextafter(trace.duals[2, 0], np.inf)
        assert "replay_bit_exact" in failed_laws(with_dual(trace, 2, 0, nudged), cfg, problem)

    def test_violated_window_without_raise(self, battery_case):
        trace, cfg, problem = battery_case(f_min=10.0)
        assert trace.duals[3, 2] > trace.duals[2, 2]
        held = with_dual(trace, 3, 2, trace.duals[2, 2])
        assert "violation_raises_dual" in failed_laws(held, cfg, problem)

    def test_dual_jump(self, battery_case):
        trace, cfg, problem = battery_case()
        jumped = with_dual(trace, 4, 0, trace.duals[4, 0] + 1e3)
        assert "bounded_dual_step" in failed_laws(jumped, cfg, problem)

    def test_telescoping_reads_the_replayed_update(self, battery_case, monkeypatch):
        # duals far from zero never get projected; a replay that takes twice
        # the step overshoots the telescoped bound of every user whose rates
        # beat f_min on net
        trace, cfg, problem = battery_case(mu_init=(1e4, 1e4, 1e4))
        assert np.any(trace.rates[:25].mean(axis=0) > problem.f_min_bps_hz)
        real_update = execution.dual_update

        def doubled(mu, window, exec_cfg, problem):
            return real_update(mu, window, replace(exec_cfg, eta_mu=2 * exec_cfg.eta_mu), problem)

        monkeypatch.setattr(execution, "dual_update", doubled)
        assert "telescoping_bound" in failed_laws(trace, cfg, problem)


def stepwise_reference(policy, episode, cfg, problem):
    """The online algorithm one step at a time: powers and rates per step,
    the dual update after each complete window that ends before t_stop.
    Each step is a block of its own, (m, m) with no time axis."""
    mu = np.zeros(problem.m) if cfg.mu_init is None else np.array(cfg.mu_init, dtype=float)
    powers = np.empty((cfg.T, problem.m))
    rates_t = np.empty((cfg.T, problem.m))
    duals = []
    for t in range(cfg.T):
        if t % cfg.T0 == 0 and t // cfg.T0 < cfg.T // cfg.T0:
            duals.append(mu)
        g2 = np.abs(episode[t]) ** 2
        powers[t] = policy.windows(g2, problem)(..., mu)
        rates_t[t] = rates(g2, powers[t], problem)
        if (t + 1) % cfg.T0 == 0 and (cfg.t_stop is None or t < cfg.t_stop):
            mu = dual_update(mu, rates_t[t + 1 - cfg.T0 : t + 1], cfg, problem)
    return powers, rates_t, np.array(duals), mu


WINDOW_CASES = {
    "partial_tail": dict(T=23),
    "T_equals_T0": dict(T=5),
    "single_user": dict(T=23, m=1),
    "mu_init": dict(T=20, mu_init=(0.5, 0.0, 1.5)),
    # f_min above every rate: each applied update raises every dual
    "t_stop_0": dict(T=23, t_stop=0, f_min=10.0),
    "t_stop_7": dict(T=23, t_stop=7, f_min=10.0),
    "t_stop_9": dict(T=23, t_stop=9, f_min=10.0),  # last step of window 1: frozen
    "t_stop_12": dict(T=23, t_stop=12, f_min=10.0),
}


class TestWindowedExecution:
    @pytest.mark.parametrize("policy_name", ["gnn", "full_reuse", "itlinq"])
    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_equals_stepwise_reference_bit_for_bit(self, small_run, policy_name, case):
        _, params, test_set = small_run
        kw = dict(WINDOW_CASES[case])
        m = kw.pop("m", 3)
        problem = RrmProblemConfig(m=m, f_min_bps_hz=kw.pop("f_min", 0.6))
        real = test_set[0] if m == 3 else make_realizations(m=m, count=1, seed=33)[0]
        policy = {
            "gnn": GnnPolicy(params),
            "full_reuse": FullReusePolicy(),
            "itlinq": ItlinqPolicy(ItlinqConfig()),
        }[policy_name]
        cfg = exec_cfg(**kw)
        episode = real.episode(cfg.T)
        trace = execute(policy, episode, cfg, problem)
        powers, rates_t, duals, final = stepwise_reference(policy, episode, cfg, problem)
        assert np.array_equal(trace.powers, powers)
        assert np.array_equal(trace.rates, rates_t)
        assert np.array_equal(trace.duals, duals)
        assert np.array_equal(trace.final_dual, final)


POLICIES = {
    "gnn": lambda params: GnnPolicy(params),
    "full_reuse": lambda params: FullReusePolicy(),
    "itlinq_snr": lambda params: ItlinqPolicy(ItlinqConfig()),
    "itlinq_index": lambda params: ItlinqPolicy(ItlinqConfig(ordering="by-index")),
}


class TestExecutionBlocks:
    @settings(max_examples=40)
    @given(
        m=st.integers(1, 12),
        T0=st.integers(1, 7),
        T=st.integers(1, 60),
        t_stop=st.one_of(st.none(), st.integers(0, 60)),
        policy_name=st.sampled_from(sorted(POLICIES)),
        blocks=st.sampled_from(["one", "two", "whole"]),
        seed=st.integers(0, 2**16),
    )
    @example(m=3, T0=5, T=23, t_stop=10, policy_name="gnn", blocks="two", seed=7)
    @example(m=3, T0=5, T=23, t_stop=12, policy_name="gnn", blocks="two", seed=7)
    def test_blocks_equal_stepwise_reference(self, m, T0, T, t_stop, policy_name, blocks, seed):
        # blocks of one window, two windows or the whole episode: the duals
        # must cross a block edge exactly as they cross a window edge inside
        # a block, with t_stop on a window edge or inside a window
        T = max(T, T0)
        rng = np.random.default_rng(seed)
        problem = RrmProblemConfig(m=m)
        (real,) = make_realizations(m=m, count=1, seed=seed, area=1000.0)
        policy = POLICIES[policy_name](init_params(GnnConfig(f1=8, f2=8), seed))
        cfg = ExecConfig(T=T, T0=T0, t_stop=t_stop, mu_init=tuple(rng.uniform(0, 3, m)))
        episode = real.episode(T)
        n_windows = {"one": 1, "two": 2, "whole": -(-T // T0)}[blocks]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_BYTES", n_windows * T0 * 8 * m * m)
            assert core.block_steps(8 * m * m, T0) == n_windows * T0
            trace = execute(policy, episode, cfg, problem)
        powers, rates_t, duals, final = stepwise_reference(policy, episode, cfg, problem)
        assert np.array_equal(trace.powers, powers)
        assert np.array_equal(trace.rates, rates_t)
        assert np.array_equal(trace.duals, duals)
        assert np.array_equal(trace.final_dual, final)


def replay_final(trace: EpisodeTrace, problem) -> np.ndarray:
    cfg = exec_cfg(T=trace.rates.shape[0])
    mu = trace.duals[0].copy()
    for k in range(trace.duals.shape[0]):
        window = trace.rates[k * cfg.T0 : (k + 1) * cfg.T0]
        mu = dual_update(mu, window, cfg, problem)
    return mu


class TestLongRunBoundedness:
    def test_dual_sup_norm_stays_under_cap(self):
        # feasible instances with binding constraints: the dual trajectory
        # oscillates but stays bounded; the cap is frozen from a pilot run
        # whose observed maximum was 39.7
        problem = RrmProblemConfig(m=4)
        dataset = make_realizations(m=4, count=3, seed=55, area=350.0)
        cfg = TrainConfig(n_iters=150, batch_size=8, episode_len=20, seed=5)
        params, _ = train(cfg, problem, GnnConfig(f1=16, f2=16), dataset)
        run = exec_cfg(T=2000)
        for real in dataset:
            trace = execute(params, real.episode(2000), run, problem)
            assert np.abs(trace.duals).max() < 100.0
            assert np.all(trace.final_ergodic >= problem.f_min_bps_hz - 0.05)


class TestEvaluateSuite:
    def test_bypass_policy_oracle(self, small_run):
        # injected full-reuse policy must equal the direct rate computation
        problem, _, test_set = small_run
        cfg = exec_cfg(T=20)
        summary, traces = evaluate_suite(FullReusePolicy(), test_set[:1], cfg, problem)
        episode = test_set[0].episode(20)
        p_full = np.full(problem.m, problem.p_max)
        direct = np.mean(
            [rates(np.abs(episode[t]) ** 2, p_full, problem) for t in range(20)], axis=0
        )
        assert np.allclose(traces[0].final_ergodic, direct, atol=1e-12)
        assert summary == metrics(direct, problem)

    def test_duplicated_realization_keeps_mean_and_feasibility(self, small_run):
        # mean and feasibility are duplication-invariant; the trimmed min and
        # interpolated percentile are not, by their very definitions
        problem, params, test_set = small_run
        cfg = exec_cfg(T=20)
        single, _ = evaluate_suite(params, test_set[:1], cfg, problem)
        doubled, _ = evaluate_suite(params, [test_set[0], test_set[0]], cfg, problem)
        assert doubled.mean_rate == pytest.approx(single.mean_rate, abs=1e-12)
        assert doubled.feasibility_fraction == single.feasibility_fraction

    def test_empty_dataset_rejected(self, small_run):
        problem, params, _ = small_run
        with pytest.raises(EmptyInput):
            evaluate_suite(params, [], exec_cfg(), problem)

    def test_worker_count_invariance(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=20)
        s1, t1 = evaluate_suite(params, test_set, cfg, problem, workers=1)
        s4, t4 = evaluate_suite(params, test_set, cfg, problem, workers=4)
        assert s1 == s4
        for a, b in zip(t1, t4):
            assert np.array_equal(a.rates, b.rates)
            assert np.array_equal(a.duals, b.duals)

    def test_gnn_policy_wrapper_matches_params_dispatch(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=10)
        episode = test_set[0].episode(10)
        a = execute(params, episode, cfg, problem)
        b = execute(GnnPolicy(params), episode, cfg, problem)
        assert np.array_equal(a.powers, b.powers)
