import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dualrrm
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
    evaluate_suites,
    execute,
    replay_duals,
    window_slack,
)
from dualrrm.baselines import FullReusePolicy, ItlinqConfig, ItlinqPolicy
from dualrrm.graph import build_graph
from dualrrm.policy import GnnConfig, forward, init_params
from dualrrm.training import TrainConfig, train
from dualrrm.verify import dual_trace_battery

from conftest import force_cpus, make_realizations, record_pool_sizes


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
        # stacked duals (R, m) need a (T0, R, m) window
        with pytest.raises(WindowLengthMismatch, match=r"expected \(5, 3, 2\)"):
            dual_update(np.zeros((3, 2)), np.zeros((5, 2)), exec_cfg(), problem)

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

    def test_complex_episode_rejected(self, small_run):
        # the episode holds the gains |h|^2; complex channels are refused
        # rather than cast to their real parts
        problem, params, test_set = small_run
        channels = np.sqrt(test_set[0].episode(20)).astype(complex)
        with pytest.raises(DimensionMismatch):
            execute(params, channels, exec_cfg(T=20), problem)

    def test_runs_on_unseen_network_size(self):
        # parameters trained at one size execute at another unchanged
        params = init_params(GnnConfig(f1=8, f2=8), 3)
        problem7 = RrmProblemConfig(m=7)
        (real7,) = make_realizations(m=7, count=1, seed=40, area=900.0)
        trace = execute(params, real7.episode(10), exec_cfg(T=10), problem7)
        assert trace.powers.shape == (10, 7)

    def test_ergodic_rates_are_running_means(self, small_run):
        # the final ergodic rates are the last row of the running mean of the
        # rates, bit for bit, for one episode and for a one-realization stack
        problem, params, test_set = small_run
        episode = test_set[0].episode(20)
        for gains in (episode, episode[:, None]):
            trace = execute(params, gains, exec_cfg(), problem)
            steps = np.arange(1, 21).reshape((-1,) + (1,) * (trace.rates.ndim - 1))
            running = np.cumsum(trace.rates, axis=0) / steps
            assert trace.final_ergodic.shape == trace.rates.shape[1:]
            assert np.array_equal(trace.final_ergodic, running[-1])


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

    def run(f_min=0.6, mu_init=None, t_stop=None):
        problem = RrmProblemConfig(m=3, f_min_bps_hz=f_min)
        run_cfg = replace(cfg, mu_init=mu_init, t_stop=t_stop)
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

    @pytest.mark.parametrize("t_stop", [None, 12])
    def test_final_dual_off_by_one_ulp(self, battery_case, t_stop):
        # the replay recomputes the final dual: from the last window's update,
        # or as the last recorded dual when the duals are frozen
        trace, cfg, problem = battery_case(t_stop=t_stop)
        assert cfg.updates_after(len(trace.duals) - 1) == (t_stop is None)
        nudged = replace(trace, final_dual=np.nextafter(trace.final_dual, np.inf))
        assert "replay_bit_exact" in failed_laws(nudged, cfg, problem)

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

    def test_violation_under_half_an_ulp_of_the_dual(self):
        # rates an ulp below f_min: eta * g is under half an ulp of a dual of
        # 1e3, so the honest update leaves the violated user's dual as it was
        problem = RrmProblemConfig(m=1, f_min_bps_hz=0.6)
        cfg = ExecConfig(T=10, T0=5, eta_mu=20.0, mu_init=(1e3,))
        rates_t = np.full((10, 1), 0.6 - 1e-16)
        assert window_slack(rates_t[:5], cfg, problem)[0] < 0.0
        trace = recorded_trace(rates_t, cfg, problem)
        assert trace.duals[1, 0] == trace.duals[0, 0] == 1e3
        assert failed_laws(trace, cfg, problem) == set()


def mutated_duals(trace, mutation, r):
    """The duals of a stacked ``trace`` with realization r's mutated."""
    duals = trace.duals.copy()
    if mutation == "jump":
        duals[2, r, 0] += 1e3
    elif mutation == "ulp":
        duals[2, r, 0] = np.nextafter(duals[2, r, 0], np.inf)
    elif mutation == "held":
        duals[3, r, 2] = duals[2, r, 2]
    return duals


class TestStackedBattery:
    @pytest.mark.parametrize("mutation", ["honest", "jump", "ulp", "held"])
    def test_stacked_trace_passes_when_each_realization_passes(self, mutation):
        # two realizations stacked on axis 1; f_min above every rate, so each
        # update raises every dual; the mutation touches realization 1 only
        problem = RrmProblemConfig(m=3, f_min_bps_hz=10.0)
        cfg = ExecConfig(T=20, T0=5)
        episodes = [r.episode(20) for r in make_realizations(m=3, count=2, seed=32, area=400.0)]
        trace = execute(FullReusePolicy(), np.stack(episodes, axis=1), cfg, problem)
        trace = replace(trace, duals=mutated_duals(trace, mutation, 1))
        alone = [failed_laws(EpisodeTrace(**{k: v[..., r, :] for k, v in vars(trace).items()}),
                             cfg, problem) for r in range(2)]
        assert alone[0] == set()
        assert (alone[1] == set()) == (mutation == "honest")
        assert failed_laws(trace, cfg, problem) == alone[0] | alone[1]


def recorded_trace(rates_t, cfg, problem):
    """The trace the online algorithm records for the rates ``rates_t`` (T, m):
    each applied update by ``execution.dual_update``, looked up at call time."""
    n_windows = len(rates_t) // cfg.T0
    mu = np.zeros(problem.m) if cfg.mu_init is None else np.array(cfg.mu_init)
    duals = np.empty((n_windows, problem.m))
    for k in range(n_windows):
        duals[k] = mu
        if cfg.updates_after(k):
            mu = execution.dual_update(mu, rates_t[k * cfg.T0 : (k + 1) * cfg.T0], cfg, problem)
    return EpisodeTrace(powers=np.zeros_like(rates_t), rates=rates_t, duals=duals,
                        final_ergodic=rates_t.mean(axis=0), final_dual=mu)


def sign_flipped(mu, window, cfg, problem):
    return np.maximum(0.0, mu + cfg.eta_mu * window_slack(window, cfg, problem))


def min_for_max(mu, window, cfg, problem):
    return np.minimum(0.0, mu - cfg.eta_mu * window_slack(window, cfg, problem))


MAX_RATES = 41 * 5  # T <= 6 * 6 + 5 steps of m <= 5 users


class TestDualLawsProperty:
    @settings(max_examples=80)
    @given(
        m=st.integers(1, 5),
        T0=st.integers(1, 6),
        n_windows=st.integers(1, 6),
        tail=st.integers(0, 5),
        eta=st.floats(0.1, 50.0),
        t_stop=st.one_of(st.none(), st.integers(0, 40)),
        mu_init=st.one_of(st.none(), st.lists(st.floats(0.0, 1e3), min_size=5, max_size=5)),
        f_min=st.integers(0, 64),
        eighths=st.lists(st.integers(0, 64), min_size=MAX_RATES, max_size=MAX_RATES),
    )
    # at f_min = 2: user 0 falls short in both summed windows; user 1 falls
    # short in sum, but not in window 1, where a sign flip climbs past the bound
    @example(m=2, T0=1, n_windows=3, tail=0, eta=1.0, t_stop=None, mu_init=None, f_min=16,
             eighths=[8, 0, 8, 30, 8, 8] + [0] * (MAX_RATES - 6))
    def test_honest_update_passes_and_mutations_fail(self, m, T0, n_windows, tail, eta, t_stop,
                                                     mu_init, f_min, eighths):
        # rates and f_min on a grid of eighths: window sums are exact, so a
        # nonzero slack is at least 1/(8 T0) and moves a dual by far more
        # than an ulp, and the signs below are decided in integers
        T = n_windows * T0 + tail % T0
        problem = RrmProblemConfig(m=m, f_min_bps_hz=f_min / 8)
        cfg = ExecConfig(T=T, T0=T0, eta_mu=eta, t_stop=t_stop,
                         mu_init=None if mu_init is None else tuple(mu_init[:m]))
        eighths = np.array(eighths[: T * m]).reshape(T, m)
        rates_t = eighths / 8
        assert failed_laws(recorded_trace(rates_t, cfg, problem), cfg, problem) == set()

        # the windows whose update the telescoping bound sums, (|ks|, m) sums
        ks = [k for k in range(n_windows - 1) if cfg.updates_after(k)]
        sums = eighths[: n_windows * T0].reshape(n_windows, T0, m).sum(axis=1)[ks]
        short = sums < T0 * f_min  # window slack g < 0
        summed_negative = np.any(sums.sum(axis=0) < len(ks) * T0 * f_min)
        # min for max ends every updated dual at or below zero, under a bound
        # above mu_0 wherever a user's summed slack is negative; a sign flip
        # never raises a dual whose slack is negative in every window, but
        # one whose slack changes sign can climb past the bound
        for mutation, caught in ((min_for_max, summed_negative),
                                 (sign_flipped, bool(ks) and np.any(short.all(axis=0)))):
            with patch.object(execution, "dual_update", mutation):
                laws = failed_laws(recorded_trace(rates_t, cfg, problem), cfg, problem)
            if caught:
                assert "telescoping_bound" in laws, mutation.__name__


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
        g2 = episode[t]
        step_powers = policy.windows(g2, problem)
        powers[t] = step_powers(..., mu) if callable(step_powers) else step_powers
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
    # powers that ignore the duals, frozen on a block edge and inside the
    # trailing partial window
    @example(m=3, T0=5, T=23, t_stop=10, policy_name="full_reuse", blocks="two", seed=7)
    @example(m=3, T0=5, T=23, t_stop=21, policy_name="itlinq_snr", blocks="two", seed=7)
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


class TestSegments:
    @pytest.mark.parametrize("block_windows", [None, 2])
    @pytest.mark.parametrize("policy_name, t_stop, counted, per", [
        ("full_reuse", None, "rates", "block"),
        ("itlinq_snr", None, "rates", "block"),
        ("gnn", 0, "forward", "block"),
        ("gnn", None, "forward", "window"),
    ])
    def test_calls_per_segment(self, monkeypatch, block_windows, policy_name, t_stop, counted,
                               per):
        # powers that ignore the duals, or read frozen ones, cost one call per
        # time block; duals that can still move, one per window
        m, T0, T = 6, 5, 100
        if block_windows is not None:
            monkeypatch.setattr(core, "_BLOCK_BYTES", block_windows * T0 * 8 * m * m)
        calls = {"rates": 0, "forward": 0}
        for owner, name in ((core, "rates"), (execution, "forward")):
            def counting(*args, _real=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(owner, name, counting)
        (real,) = make_realizations(m=m, count=1, seed=5)
        policy = POLICIES[policy_name](init_params(GnnConfig(f1=8, f2=8), 5))
        execute(policy, real.episode(T), ExecConfig(T=T, T0=T0, t_stop=t_stop),
                RrmProblemConfig(m=m))
        n_block = core.block_steps(8 * m * m, T0)
        assert calls[counted] == {"block": -(-T // n_block), "window": T // T0}[per]


TRACE_FIELDS = ("powers", "rates", "duals", "final_ergodic", "final_dual")


class TestRealizationAxis:
    @settings(max_examples=40)
    @given(
        n_real=st.integers(1, 4),
        m=st.integers(1, 6),
        T0=st.integers(2, 9),
        n_windows=st.integers(1, 5),
        tail=st.integers(1, 8),
        t_stop=st.one_of(st.none(), st.integers(0, 60)),
        mu_init=st.one_of(st.none(), st.lists(st.floats(0.0, 1e3), min_size=6, max_size=6)),
        block_windows=st.integers(1, 5),
        f_min=st.floats(0.1, 12.0),
        policy_name=st.sampled_from(["gnn", "full_reuse", "itlinq_snr"]),
        seed=st.integers(0, 2**16),
    )
    # at m=1 a window of 8 or more steps is where numpy's mean sums a
    # one-realization window pairwise and a stacked one step by step; an
    # f_min above the rates keeps the duals off zero, where the sums show
    @example(n_real=2, m=1, T0=8, n_windows=3, tail=1, t_stop=None, mu_init=None,
             block_windows=1, f_min=10.0, policy_name="full_reuse", seed=1)
    def test_stack_equals_single_runs(self, n_real, m, T0, n_windows, tail, t_stop, mu_init,
                                      block_windows, f_min, policy_name, seed):
        # R episodes stacked on axis 1 run as R single runs, bit for bit, with
        # a trailing partial window and a time-block edge inside the stack
        T = n_windows * T0 + 1 + tail % (T0 - 1)
        block_windows = min(block_windows, n_windows)
        problem = RrmProblemConfig(m=m, f_min_bps_hz=f_min)
        policy = POLICIES[policy_name](init_params(GnnConfig(f1=8, f2=8), seed))
        cfg = ExecConfig(T=T, T0=T0, t_stop=t_stop,
                         mu_init=None if mu_init is None else tuple(mu_init[:m]))
        episodes = [r.episode(T) for r in make_realizations(m=m, count=n_real, seed=seed,
                                                            area=1000.0)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_BYTES", block_windows * T0 * 8 * m * m * n_real)
            assert core.block_steps(8 * m * m * n_real, T0) == block_windows * T0
            stacked = execute(policy, np.stack(episodes, axis=1), cfg, problem)
            singles = [execute(policy, episode, cfg, problem) for episode in episodes]
        assert stacked.powers.shape == (T, n_real, m)
        assert stacked.final_dual.shape == (n_real, m)
        for r, single in enumerate(singles):
            for name in TRACE_FIELDS:
                got, want = getattr(stacked, name)[..., r, :], getattr(single, name)
                assert np.array_equal(got, want), name
        assert np.array_equal(replay_duals(stacked, cfg, problem), stacked.duals)

    def test_duals_must_match_the_trailing_axes(self, small_run):
        problem, params, test_set = small_run
        graph = build_graph(np.stack([r.episode(5) for r in test_set[:2]], axis=1), problem)
        mu = np.array([[0.5, 0.0, 1.0], [2.0, 0.1, 0.0]])
        both = forward(graph, mu, params, problem.p_max)
        for r in range(2):
            alone = forward(build_graph(test_set[r].episode(5), problem), mu[r], params,
                            problem.p_max)
            assert np.array_equal(both[:, r], alone)
        # (m,) duals are shared by every realization; (3, m) match no axis
        shared = forward(graph, mu[0], params, problem.p_max)
        assert np.array_equal(shared[:, 0], both[:, 0])
        with pytest.raises(DimensionMismatch):
            forward(graph, np.zeros((3, 3)), params, problem.p_max)


class TestRelabeling:
    @settings(max_examples=30)
    @given(m=st.integers(1, 12), seed=st.integers(0, 2**16), data=st.data())
    def test_relabeling_users_relabels_every_output(self, m, seed, data):
        # the rate kernel reduces every sum in sorted order, so it commutes
        # with a relabeling bit for bit; the policy's matrix products do not
        perm = np.array(data.draw(st.permutations(range(m))))
        rng = np.random.default_rng(seed)
        problem = RrmProblemConfig(m=m)
        (real,) = make_realizations(m=m, count=1, seed=seed, area=1000.0)
        episode = real.episode(20)
        relabeled = episode[:, perm][:, :, perm]
        p = rng.uniform(0.0, problem.p_max, (20, m))
        w = 1.0 + rng.uniform(0.0, 2.0, m)
        f_perm = rates(relabeled, p[:, perm], problem)
        assert np.array_equal(f_perm, rates(episode, p, problem)[:, perm])
        f, dldp = core.rates_and_gradient(episode, p, w, problem)
        f_perm, dldp_perm = core.rates_and_gradient(relabeled, p[:, perm], w[perm], problem)
        assert np.array_equal(f_perm, f[:, perm]) and np.array_equal(dldp_perm, dldp[:, perm])

        params = init_params(GnnConfig(f1=8, f2=8), seed)
        mu = rng.uniform(0.0, 3.0, m)
        powers = forward(build_graph(episode, problem), mu, params, problem.p_max)
        powers_perm = forward(build_graph(relabeled, problem), mu[perm], params, problem.p_max)
        assert np.max(np.abs(powers_perm - powers[:, perm])) < 1e-9
        cfg = ExecConfig(T=20, T0=5, mu_init=tuple(mu))
        trace = execute(params, episode, cfg, problem)
        trace_perm = execute(params, relabeled, replace(cfg, mu_init=tuple(mu[perm])), problem)
        for name in ("powers", "rates", "duals", "final_ergodic"):
            got, want = getattr(trace_perm, name), getattr(trace, name)[..., perm]
            assert np.max(np.abs(got - want)) < 1e-9, name


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
            [rates(episode[t], p_full, problem) for t in range(20)], axis=0
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

    def test_worker_count_invariance(self, small_run, monkeypatch):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=20)
        force_cpus(monkeypatch, 1)
        s1, t1 = evaluate_suite(params, test_set, cfg, problem)
        force_cpus(monkeypatch, 4)
        s4, t4 = evaluate_suite(params, test_set, cfg, problem)
        assert s1 == s4
        for a, b in zip(t1, t4):
            assert np.array_equal(a.rates, b.rates)
            assert np.array_equal(a.duals, b.duals)
        # mixed suites share one episode per realization, the longest T's,
        # and equal one single-realization execute per suite and realization
        # on any pool, with blocks of the default budget's size (all three
        # realizations on one CPU) and blocks of 1, 2 and 3 forced
        suites = [(params, cfg), (ItlinqPolicy(ItlinqConfig()), exec_cfg(T=23)),
                  (params, replace(cfg, t_stop=0)), (params, replace(cfg, t_stop=12))]
        alone = [[execute(policy, r.episode(23), c, problem) for r in test_set]
                 for policy, c in suites]
        for per_block, cpus in itertools.product([None, 1, 2, 3], [1, 2]):
            force_cpus(monkeypatch, cpus)
            if per_block is not None:  # blocks of per_block 23-step episodes at m=3
                monkeypatch.setattr(core, "_BLOCK_BYTES", per_block * 23 * 8 * 9)
            together = evaluate_suites(suites, test_set, problem)
            assert len(together) == len(suites)
            for traces, (pooled, shared, seconds) in zip(alone, together):
                final = np.concatenate([trace.final_ergodic for trace in traces])
                assert pooled == metrics(final, problem) and seconds > 0
                for a, b in zip(traces, shared, strict=True):
                    for field in TRACE_FIELDS:
                        assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_pool_no_larger_than_dataset(self, small_run, monkeypatch):
        problem, params, test_set = small_run
        sizes = record_pool_sizes(monkeypatch)
        force_cpus(monkeypatch, 4)
        evaluate_suite(params, test_set[:2], exec_cfg(T=10), problem)
        evaluate_suite(params, test_set[:1], exec_cfg(T=10), problem)
        assert sizes == [2]

    def test_pool_worker_is_one_slot_and_runs_the_block(self, small_run, monkeypatch):
        # a worker forked from a process of 4 slots reads 1, so its channel
        # synthesis starts no thread, and a task, which carries the suites
        # with its block, runs there bit for bit as here
        problem, params, test_set = small_run
        force_cpus(monkeypatch, 4)
        suites = [(params, exec_cfg(T=10))]
        run = functools.partial(execution._run_block, suites, problem)
        with ProcessPoolExecutor(1) as pool:
            assert pool.submit(dualrrm.parallel_slots).result() == 1
            (pooled,) = pool.map(run, [test_set[:1]])
        assert dualrrm.parallel_slots() == 4
        alone = execute(params, test_set[0].episode(10), suites[0][1], problem)
        for field in TRACE_FIELDS:
            assert np.array_equal(getattr(pooled[0][0], field)[..., 0, :],
                                  getattr(alone, field)), field

    def test_gnn_policy_wrapper_matches_params_dispatch(self, small_run):
        problem, params, test_set = small_run
        cfg = exec_cfg(T=10)
        episode = test_set[0].episode(10)
        a = execute(params, episode, cfg, problem)
        b = execute(GnnPolicy(params), episode, cfg, problem)
        assert np.array_equal(a.powers, b.powers)
