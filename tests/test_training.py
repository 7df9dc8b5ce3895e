import inspect
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dualrrm
from dualrrm import training as training_module
from dualrrm.core import RrmProblemConfig
from dualrrm.errors import (
    ConfigError,
    EmptyInput,
    NonFiniteActivation,
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

from conftest import (
    blas_threads, force_block_steps, force_cpus, make_realizations, params_equal,
)


SERIES = ("iterations", "mean_lagrangian", "mean_sum_rate", "mean_constraint_slack")


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


def force_split(mp, cpus, block_steps=None, m=None, dims=None):
    """Give training ``cpus`` usable CPUs and one BLAS thread, and, if
    given, gradient blocks of ``block_steps`` steps at (m, dims)."""
    force_cpus(mp, cpus)
    if block_steps is not None:
        force_block_steps(mp, block_steps, m, dims)


def record_chunks(mp):
    """Record (thread, batch size) of every ``episode_eval`` call training makes."""
    calls = []
    inner = training_module.episode_eval

    def recorded(episodes, mu, **kw):
        calls.append((threading.get_ident(), len(episodes)))
        return inner(episodes, mu, **kw)

    mp.setattr(training_module, "episode_eval", recorded)
    return calls


class TestBatchSplit:
    """Each iteration's batch split into chunks of whole episodes, one per
    usable CPU and at most one per gradient block, run on threads."""

    @settings(max_examples=30)
    @given(
        m=st.integers(1, 5),
        n_steps=st.integers(1, 8),
        batch_size=st.integers(1, 6),
        cpus=st.integers(1, 3),
        block_steps=st.integers(1, 20),
        n_iters=st.integers(1, 4),
        resume_frac=st.floats(0.0, 1.0),
        oracle=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # three one-episode chunks of a few microseconds each: one pool thread
    # may now run both later chunks, each into its own rows of the batch
    @example(m=1, n_steps=1, batch_size=3, cpus=3, block_steps=1, n_iters=1,
             resume_frac=0.0, oracle=False, seed=0)
    def test_split_equals_one_chunk(
        self, m, n_steps, batch_size, cpus, block_steps, n_iters, resume_frac, oracle, seed
    ):
        dataset = make_realizations(m=m, count=3, seed=seed)
        problem, dims = RrmProblemConfig(m=m), GnnConfig(f1=5, f2=4)
        cfg = TrainConfig(n_iters=n_iters, batch_size=batch_size, episode_len=n_steps,
                          seed=seed, eta_phi=0.05)
        resume_at = int(resume_frac * n_iters)
        per_block = max(1, block_steps // n_steps)
        chunks = min(cpus, -(-batch_size // per_block))

        def run(cpus):
            with pytest.MonkeyPatch.context() as mp:
                force_split(mp, cpus, block_steps, m, dims)
                calls = record_chunks(mp)
                if oracle:
                    mu = np.linspace(0.0, 1.0, m)
                    return train_per_mu_oracle(mu, cfg, problem, dims, dataset), None, calls
                head, head_log = train(replace(cfg, n_iters=resume_at), problem, dims, dataset)
                params, tail_log = train(cfg, problem, dims, dataset, init=head,
                                         start_iter=resume_at)
                return params, [getattr(head_log, s) + getattr(tail_log, s) for s in SERIES], calls

        one, one_log, one_calls = run(1)
        split, split_log, split_calls = run(cpus)
        assert np.array_equal(one.flat.view(np.uint64), split.flat.view(np.uint64))
        if not oracle:
            assert np.array_equal(np.array(one_log, dtype=float).view(np.uint64),
                                  np.array(split_log, dtype=float).view(np.uint64))
        assert len(one_calls) == n_iters
        assert len(split_calls) == n_iters * chunks
        assert sorted({size for _, size in split_calls}) == sorted(
            {batch_size * (i + 1) // chunks - batch_size * i // chunks for i in range(chunks)})
        main = threading.get_ident()
        assert any(t != main for t, _ in split_calls) == (chunks > 1)

    def test_chunks_write_slices_of_one_rows_array_per_call(self, monkeypatch):
        # every chunk of every iteration writes its gradient rows into its
        # own slice of one (B, P) array, which each train() call allocates
        # once
        dataset = make_realizations(m=3, count=4, seed=5)
        problem, dims = RrmProblemConfig(m=3), GnnConfig(f1=4, f2=5)
        cfg = tiny_cfg(n_iters=3, batch_size=7, episode_len=4)
        force_split(monkeypatch, 3, 4, 3, dims)
        inner, outs = training_module.episode_eval, []

        def recorded(episodes, mu, **kw):
            outs.append(kw["out"])
            return inner(episodes, mu, **kw)

        monkeypatch.setattr(training_module, "episode_eval", recorded)
        size = init_params(dims, 0).flat.size
        bases = []
        for _ in range(2):
            outs.clear()
            train(cfg, problem, dims, dataset)
            assert len(outs) == 3 * 3  # three chunks in each of three iterations
            base = outs[0].base
            assert base.shape == (7, size) and all(out.base is base for out in outs)
            for it in range(3):  # an iteration's chunks tile the rows: 2, 2 and 3 of them
                tiles = sorted(((out.ctypes.data - base.ctypes.data) // (8 * size), len(out))
                               for out in outs[3 * it:3 * it + 3])
                assert tiles == [(0, 2), (2, 2), (4, 3)]
            bases.append(base)
        assert bases[0] is not bases[1]

    def test_more_chunks_than_cores_under_fast_switching(self, monkeypatch):
        # six chunks, each thread switching every microsecond: the bits are
        # those of one chunk, and no thread outlives the call
        dataset = make_realizations(m=4, count=5, seed=9)
        problem, dims = RrmProblemConfig(m=4), GnnConfig(f1=6, f2=5)
        cfg = tiny_cfg(n_iters=6, batch_size=8, episode_len=6)
        force_block_steps(monkeypatch, 6, 4, dims)
        force_split(monkeypatch, 1)
        one, _ = train(cfg, problem, dims, dataset)
        force_split(monkeypatch, 6)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split, _ = train(cfg, problem, dims, dataset)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(one.flat.view(np.uint64), split.flat.view(np.uint64))
        assert threading.active_count() == before

    def test_desk_shape_splits_over_cpus(self, monkeypatch):
        # three whole 50-step episodes per gradient block at f=64, so B=16
        # has six blocks; two chunks on two CPUs, three on three
        cfg = TrainConfig(batch_size=16, episode_len=50)
        for cpus in (1, 2, 3, 8):
            force_split(monkeypatch, cpus)
            assert training_module._n_chunks(cfg, 6, GnnConfig()) == min(cpus, 6)
        # the paper shape runs time blocks: at most one chunk per episode
        force_split(monkeypatch, 12)
        assert training_module._n_chunks(TrainConfig(batch_size=8), 50, GnnConfig()) == 8

    @pytest.mark.parametrize("threads", [2, None])
    def test_no_split_unless_blas_has_one_thread(self, monkeypatch, threads):
        # BLAS on two threads, or of a count the probe cannot read
        cfg = TrainConfig(batch_size=16, episode_len=50)
        force_split(monkeypatch, 4)
        assert training_module._n_chunks(cfg, 6, GnnConfig()) == 4
        monkeypatch.setattr(dualrrm, "blas_threads", lambda: threads)
        assert training_module._n_chunks(cfg, 6, GnnConfig()) == 1

    def test_later_chunk_failure_reports_iteration(self, monkeypatch):
        dataset = make_realizations(m=2, count=4, seed=3)
        force_split(monkeypatch, 3, 4, 2, GnnConfig(f1=4, f2=4))
        inner = training_module.episode_eval
        calls = []

        def failing(episodes, mu, **kw):
            calls.append(threading.current_thread() is threading.main_thread())
            if len(calls) > 6 and not calls[-1]:  # a worker's chunk of iteration 2
                raise NonFiniteActivation("policy produced non-finite pre-activations")
            return inner(episodes, mu, **kw)

        monkeypatch.setattr(training_module, "episode_eval", failing)
        before = threading.active_count()
        with pytest.raises(NonFiniteLoss) as exc_info:
            train(tiny_cfg(n_iters=5, batch_size=3, episode_len=4), RrmProblemConfig(m=2),
                  GnnConfig(f1=4, f2=4), dataset)
        assert exc_info.value.iteration == 2
        assert len(calls) == 9  # three chunks in each of three iterations
        assert threading.active_count() == before

    def test_tests_run_blas_on_one_thread(self):
        # conftest pins BLAS before numpy loads, so training splits here as
        # it does under the CLI, the benchmark and the golden run
        if blas_threads() is None:
            pytest.skip("numpy does not use OpenBLAS")
        assert blas_threads() == 1


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
