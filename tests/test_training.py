import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualrrm import training as training_module
from dualrrm.core import RrmProblemConfig
from dualrrm.errors import (
    ConfigError,
    EmptyInput,
    NonFiniteLoss,
    SizeLimitExceeded,
    UnsupportedDistribution,
)
from dualrrm.graph import build_graph
from dualrrm.policy import (
    GnnConfig,
    apply_update,
    episode_eval,
    episode_tensors,
    forward,
    init_params,
)
from dualrrm.training import TrainConfig, sample_duals, train, train_per_mu_oracle

from conftest import make_realizations, params_equal


def tiny_cfg(**kw):
    base = dict(n_iters=3, batch_size=4, episode_len=5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestSampleDuals:
    def test_degenerate_band(self):
        batch = sample_duals(3, 8, ("uniform", 0.0, 1e-6), 0)
        assert np.all(batch >= 0) and np.all(batch < 1e-6)

    def test_uniform_moment(self):
        batch = sample_duals(10, 10_000, ("uniform", 0.0, 1.0), 5)
        assert batch.size == 100_000
        assert 0.49 <= batch.mean() <= 0.51

    def test_deterministic(self):
        a = sample_duals(4, 16, ("uniform", 0.0, 1.0), 9)
        b = sample_duals(4, 16, ("uniform", 0.0, 1.0), 9)
        assert np.array_equal(a, b)

    def test_unsupported(self):
        with pytest.raises(UnsupportedDistribution):
            sample_duals(2, 4, ("gaussian", 0.0, 1.0), 0)
        with pytest.raises(UnsupportedDistribution):
            sample_duals(2, 4, ("uniform", -1.0, 1.0), 0)
        with pytest.raises(UnsupportedDistribution):
            sample_duals(2, 4, ("uniform", 1.0, 1.0), 0)


class TestTrainLoop:
    def test_zero_iterations_is_noop(self):
        dataset = make_realizations(m=3, count=2, seed=4)
        problem = RrmProblemConfig(m=3)
        dims = GnnConfig(f1=8, f2=8)
        init = init_params(dims, 123)
        params, log = train(tiny_cfg(n_iters=0), problem, dims, dataset, init=init)
        assert params_equal(params, init)
        assert log.iterations == []

    def test_epoch_schedule(self):
        cfg = TrainConfig(epochs=3, batch_size=4, seed=0)
        assert cfg.resolved_n_iters(8) == 6
        assert TrainConfig(n_iters=11, epochs=3, batch_size=4, seed=0).resolved_n_iters(8) == 11

    def test_default_learning_rate(self):
        assert TrainConfig(seed=0).resolved_eta_phi(50) == pytest.approx(0.1 / 50)
        assert TrainConfig(eta_phi=0.5, seed=0).resolved_eta_phi(50) == 0.5

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyInput):
            train(tiny_cfg(), RrmProblemConfig(m=2), GnnConfig(f1=4, f2=4), [])

    def test_unresolved_seed_rejected(self):
        dataset = make_realizations(m=2, count=1, seed=1)
        with pytest.raises(ConfigError):
            train(tiny_cfg(seed=None), RrmProblemConfig(m=2), GnnConfig(f1=4, f2=4), dataset)

    def test_bit_reproducible(self):
        dataset = make_realizations(m=3, count=3, seed=7)
        problem = RrmProblemConfig(m=3)
        dims = GnnConfig(f1=8, f2=8)
        p1, log1 = train(tiny_cfg(n_iters=4), problem, dims, dataset)
        p2, log2 = train(tiny_cfg(n_iters=4), problem, dims, dataset)
        assert params_equal(p1, p2)
        assert log1.mean_lagrangian == log2.mean_lagrangian

    def test_resume_matches_monolithic(self):
        dataset = make_realizations(m=3, count=3, seed=2)
        problem = RrmProblemConfig(m=3)
        dims = GnnConfig(f1=8, f2=8)
        full, _ = train(tiny_cfg(n_iters=6), problem, dims, dataset)
        half, _ = train(tiny_cfg(n_iters=3), problem, dims, dataset)
        resumed, _ = train(
            tiny_cfg(n_iters=6), problem, dims, dataset, init=half, start_iter=3
        )
        assert params_equal(full, resumed)

    def test_learning_rate_decay_schedule(self):
        # batch size equals the dataset size, so every iteration is an epoch;
        # with factor 0.5 every epoch, iteration 1 runs at half the base rate
        dataset = make_realizations(m=3, count=4, seed=13)
        problem = RrmProblemConfig(m=3)
        dims = GnnConfig(f1=8, f2=8)
        base = dict(batch_size=4, episode_len=5, seed=6, eta_phi=0.02)
        decayed, _ = train(
            TrainConfig(n_iters=2, lr_decay_factor=0.5, lr_decay_every_epochs=1, **base),
            problem, dims, dataset,
        )
        plain, _ = train(TrainConfig(n_iters=2, **base), problem, dims, dataset)
        assert not params_equal(decayed, plain)
        # exact reconstruction: first iteration at the base rate, second at half
        after_one, _ = train(
            TrainConfig(n_iters=1, lr_decay_factor=0.5, lr_decay_every_epochs=1, **base),
            problem, dims, dataset,
        )
        halved = dict(base, eta_phi=0.01)
        manual, _ = train(
            TrainConfig(n_iters=2, **halved), problem, dims, dataset,
            init=after_one, start_iter=1,
        )
        assert params_equal(decayed, manual)

    def test_log_row_per_iteration(self):
        dataset = make_realizations(m=2, count=2, seed=3)
        _, log = train(tiny_cfg(n_iters=5), RrmProblemConfig(m=2), GnnConfig(f1=4, f2=4), dataset)
        assert log.iterations == list(range(5))
        assert len(log.mean_sum_rate) == 5
        assert len(log.wall_ms) == 5

    def test_non_finite_loss_reports_iteration(self):
        dataset = make_realizations(m=2, count=1, seed=3)
        dims = GnnConfig(f1=4, f2=4)
        bad = init_params(dims, 0)
        bad.w_out[...] = 1e308  # overflows the forward pass
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss) as exc_info:
            train(tiny_cfg(n_iters=1), RrmProblemConfig(m=2), dims, dataset, init=bad)
        assert exc_info.value.iteration == 0

    def test_no_dual_update_in_training(self):
        # structural: the training loop has no dual-descent step at all
        source = inspect.getsource(training_module)
        assert "dual_update" not in source
        assert "execution" not in source

    def test_isolated_user_saturates_power(self):
        # single user, no interference: ascent drives power to the box edge
        dataset = make_realizations(m=1, count=4, seed=11)
        problem = RrmProblemConfig(m=1)
        dims = GnnConfig()
        cfg = TrainConfig(n_iters=300, batch_size=8, episode_len=10, seed=11)
        params, _ = train(cfg, problem, dims, dataset)
        ratios = []
        for real in dataset:
            episode = real.episode(10)
            for t in range(10):
                g = build_graph(episode[t], problem)
                p = forward(g, np.array([0.5]), params, problem.p_max)
                ratios.append(p[0] / problem.p_max)
        assert np.mean(ratios) > 0.95

    def test_fixed_mu_trend_mostly_nondecreasing(self):
        # fixed dual batch, small step: the batch objective should climb in
        # at least 80% of consecutive iteration pairs (threshold from a
        # pilot run of this exact configuration, which reached 100%)
        problem = RrmProblemConfig(m=4)
        (real,) = make_realizations(m=4, count=1, seed=3)
        tensors = episode_tensors(real.episode(20), problem)
        mu_batch = sample_duals(4, 8, ("uniform", 0.0, 1.0), 11)
        params = init_params(GnnConfig(f1=16, f2=16), 5)
        values = []
        for _ in range(60):
            total = 0.0
            grad_sum = params.zeros_like()
            for b in range(8):
                v, g, _ = episode_eval(tensors, mu_batch[b], params, problem)
                total += v
                grad_sum.add_scaled(g, 1.0)
            values.append(total / 8)
            params = apply_update(params, grad_sum, 1e-3 / 8)
        pairs = list(zip(values, values[1:]))
        frac = sum(1 for a, b in pairs if b >= a) / len(pairs)
        assert frac >= 0.8

    def test_utility_rescaling_reweights_gradient(self):
        # one batch: 2U-gradients, i.e. duals mu + 1 with the policy input
        # held at mu, equal the (1 + mu) -> (2 + mu) reweighting
        problem = RrmProblemConfig(m=3)
        (real,) = make_realizations(m=3, count=1, seed=9)
        tensors = episode_tensors(real.episode(6), problem)
        params = init_params(GnnConfig(f1=8, f2=8), 2)
        mu_batch = sample_duals(3, 4, ("uniform", 0.0, 1.0), 21)
        for b in range(4):
            mu = mu_batch[b]
            _, g2, _ = episode_eval(
                tensors, mu + 1.0, params, problem, node_features=mu
            )
            _, g1, _ = episode_eval(tensors, mu, params, problem)
            _, gu, _ = episode_eval(
                tensors, np.zeros(3), params, problem, node_features=mu
            )
            assert np.max(np.abs(g2.flat - (g1.flat + gu.flat))) < 1e-10


class TestResumeProperty:
    @settings(max_examples=25)
    @given(
        n_iters=st.integers(2, 7),
        batch_size=st.integers(1, 5),
        n_data=st.integers(1, 6),
        decay_every=st.integers(1, 2),
        resume_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_resume_anywhere_matches_one_run(
        self, n_iters, batch_size, n_data, decay_every, resume_frac, seed
    ):
        # the run crosses at least one learning-rate decay step, and so the
        # epoch boundaries before it; the resume point falls anywhere
        assume(n_iters * batch_size > n_data * decay_every)
        resume_at = 1 + int(resume_frac * (n_iters - 2))
        dataset = make_realizations(m=3, count=n_data, seed=seed)
        problem, dims = RrmProblemConfig(m=3), GnnConfig(f1=6, f2=5)

        def cfg(n):
            return TrainConfig(n_iters=n, batch_size=batch_size, episode_len=4, seed=seed,
                               eta_phi=0.05, lr_decay_factor=0.5,
                               lr_decay_every_epochs=decay_every)

        full, full_log = train(cfg(n_iters), problem, dims, dataset)
        head, head_log = train(cfg(resume_at), problem, dims, dataset)
        resumed, tail_log = train(cfg(n_iters), problem, dims, dataset,
                                  init=head, start_iter=resume_at)
        assert np.array_equal(full.flat.view(np.uint64), resumed.flat.view(np.uint64))
        for series in ("iterations", "mean_lagrangian", "mean_sum_rate",
                       "mean_constraint_slack"):
            assert getattr(full_log, series) == getattr(head_log, series) + getattr(
                tail_log, series)


class TestPerMuOracle:
    def test_size_limit(self):
        dataset = make_realizations(m=9, count=1, seed=0, area=1200.0)
        with pytest.raises(SizeLimitExceeded):
            train_per_mu_oracle(
                np.zeros(9), tiny_cfg(), RrmProblemConfig(m=9), GnnConfig(f1=4, f2=4), dataset
            )

    def test_unresolved_seed_rejected_before_init(self, monkeypatch):
        # a None seed must not reach derive_seed, which would seed the
        # initial weights from OS entropy
        monkeypatch.setattr(training_module, "init_params", lambda *a: pytest.fail("init drawn"))
        dataset = make_realizations(m=2, count=1, seed=1)
        with pytest.raises(ConfigError):
            train_per_mu_oracle(
                np.zeros(2), tiny_cfg(seed=None), RrmProblemConfig(m=2), GnnConfig(f1=4, f2=4),
                dataset,
            )

    def test_deterministic(self):
        dataset = make_realizations(m=3, count=2, seed=5)
        problem = RrmProblemConfig(m=3)
        dims = GnnConfig(f1=8, f2=8)
        mu = np.array([0.4, 0.1, 0.9])
        a = train_per_mu_oracle(mu, tiny_cfg(n_iters=4), problem, dims, dataset)
        b = train_per_mu_oracle(mu, tiny_cfg(n_iters=4), problem, dims, dataset)
        assert params_equal(a, b)

    def test_mu_zero_objective_is_mean_sum_rate(self):
        # with mu = 0 the oracle objective reduces to the plain sum rate
        problem = RrmProblemConfig(m=3)
        (real,) = make_realizations(m=3, count=1, seed=6)
        tensors = episode_tensors(real.episode(5), problem)
        params = init_params(GnnConfig(f1=8, f2=8), 1)
        value, _, avg_f = episode_eval(
            tensors, np.zeros(3), params, problem, node_features=np.ones(3)
        )
        assert value == pytest.approx(float(avg_f.sum()), abs=1e-12)

    def test_oracle_ignores_dual_input(self):
        # constant node features: the trained oracle computes the same powers
        # whatever dual vector the execution is under, since it is run with
        # the constant features it was trained on
        dataset = make_realizations(m=3, count=1, seed=8)
        problem = RrmProblemConfig(m=3)
        dims = GnnConfig(f1=8, f2=8)
        mu = np.array([0.2, 0.7, 0.3])
        oracle = train_per_mu_oracle(mu, tiny_cfg(n_iters=3), problem, dims, dataset)
        g2 = dataset[0].episode(2)[0]
        pa = forward(build_graph(g2, problem), np.ones(3), oracle, problem.p_max)
        pb = forward(build_graph(g2.copy(), problem), np.ones(3), oracle, problem.p_max)
        assert np.array_equal(pa, pb)
