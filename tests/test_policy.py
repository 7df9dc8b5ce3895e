import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dualrrm import verify
from dualrrm.channel import TopologyConfig
from dualrrm.core import RrmProblemConfig, block_steps, rates
from dualrrm.errors import (
    CheckpointDimMismatch,
    DimensionMismatch,
    NonFiniteActivation,
)
from dualrrm.graph import RrmGraph, build_graph
from dualrrm.policy import (
    Checkpoint,
    GnnConfig,
    _forward_tensors,
    _relu_select,
    _sigmoid,
    apply_update,
    checkpoint_bytes,
    episode_eval,
    episode_tensors,
    forward,
    gradient_blocks,
    init_params,
    load_checkpoint,
    require_dims,
    save_checkpoint,
)
from dualrrm.verify import MAX_DRAWS, finite_difference_check

from conftest import force_block_steps, make_realizations, params_equal, relabel_matrix


def small_problem(m):
    return RrmProblemConfig(m=m)


SQUARE_4 = TopologyConfig(m=4, area_side_m=500.0)  # 4 users for the gradient checks


def random_graph(rng, cfg, mu=None):
    h = 1e-8 * (rng.standard_normal((cfg.m, cfg.m)) + 1j * rng.standard_normal((cfg.m, cfg.m)))
    if mu is None:
        mu = rng.uniform(0, 1, cfg.m)
    return build_graph(np.abs(h) ** 2, cfg), h, mu


class TestInit:
    def test_deterministic(self):
        a = init_params(GnnConfig(f1=16, f2=16), 3)
        b = init_params(GnnConfig(f1=16, f2=16), 3)
        assert params_equal(a, b)
        c = init_params(GnnConfig(f1=16, f2=16), 4)
        assert not params_equal(a, c)

    def test_biases_zero(self):
        p = init_params(GnnConfig(f1=8, f2=8), 0)
        assert np.array_equal(p.b[0], np.zeros(8))
        assert np.array_equal(p.b[1], np.zeros(8))
        assert p.b_out[0] == 0.0

    def test_weight_variance(self):
        p = init_params(GnnConfig(), 12)
        w = p.w1[1]  # 64 x 64
        s = math.sqrt(6 / (64 + 64))
        assert np.var(w) == pytest.approx(s**2 / 3, rel=0.2)
        assert np.max(np.abs(w)) <= s

    def test_param_bytes_independent_of_m(self, rng):
        p = init_params(GnnConfig(f1=8, f2=8), 1)
        size = p.flat.size
        outputs = {}
        for m in (4, 16, 64):
            cfg = small_problem(m)
            g, _, mu = random_graph(rng, cfg)
            outputs[m] = forward(g, mu, p, cfg.p_max)
            assert p.flat.size == size
            assert outputs[m].shape == (m,)


def pre_activation(graph, mu, params):
    return _forward_tensors(mu[:, None], graph.edges, graph.in_sums, params)[0]


class TestForward:
    @settings(max_examples=60)
    @given(
        data=st.data(),
        shape=array_shapes(min_dims=1, max_dims=3, max_side=6),
    )
    def test_relu_select_is_where(self, data, shape):
        # equal bits to np.where(mask, x, 0.0), also for NaN, infinities and
        # -0.0, under the ReLU mask x > 0 and under any mask
        special = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0])
        x = data.draw(arrays(np.float64, shape, elements=st.one_of(special, st.floats())))
        any_mask = data.draw(arrays(np.bool_, shape))
        for mask in (x > 0.0, any_mask):
            expected = np.where(mask, x, 0.0)
            assert np.array_equal(_relu_select(mask, x.copy()).view(np.uint64), expected.view(np.uint64))

    def test_sigmoid_matches_two_branch_formula(self):
        # equal bits to the form that exponentiates x on the negative side
        # and -x on the other, for every finite input, which is all
        # ``_forward_tensors`` lets through
        edges = [0.0, 1e-300, 1.0, 36.0, 40.0, 745.0]
        rng = np.random.default_rng(5)
        x = np.concatenate([edges, np.negative(edges), rng.normal(0.0, 1.0, 500),
                            rng.normal(0.0, 40.0, 500), rng.uniform(-800.0, 800.0, 500)])
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        for shape in ((x.size,), (x.size // 6, 6)):
            got = _sigmoid(x.reshape(shape))
            assert np.array_equal(got.view(np.uint64), expected.reshape(shape).view(np.uint64))

    def test_zero_params_give_half_power(self, rng):
        cfg = small_problem(5)
        p = init_params(GnnConfig(f1=8, f2=8), 0).zeros_like()
        g, _, mu = random_graph(rng, cfg)
        assert np.array_equal(forward(g, mu, p, cfg.p_max), np.full(5, cfg.p_max / 2))
        assert np.array_equal(pre_activation(g, mu, p), np.zeros(5))

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_permutation_equivariance(self, m, rng):
        cfg = small_problem(m)
        params = init_params(GnnConfig(f1=16, f2=16), 7)
        g, h, mu = random_graph(rng, cfg)
        base = forward(g, mu, params, cfg.p_max)
        for _ in range(5):
            perm = rng.permutation(m)
            gp = build_graph(np.abs(relabel_matrix(h, perm)) ** 2, cfg)
            permuted = forward(gp, mu[perm], params, cfg.p_max)
            assert np.max(np.abs(permuted - base[perm])) < 1e-9

    def test_two_node_hand_trace(self):
        # 1x1 feature dims: every weight is a scalar, checked by hand recursion
        cfg = small_problem(2)
        layers = [(0.3, 0.5, 0.7, 0.05), (-0.2, 0.4, 0.1, -0.02)]
        params = init_params(GnnConfig(f1=1, f2=1), 0)
        for l, (w1, w2, w3, b) in enumerate(layers):
            params.w1[l][...], params.w2[l][...], params.w3[l][...] = w1, w2, w3
            params.b[l][...] = b
        params.w_out[...], params.b_out[...] = 1.3, 0.11
        assert params.flat.tolist() == [0.3, 0.5, 0.7, 0.05, -0.2, 0.4, 0.1, -0.02, 1.3, 0.11]
        edges = np.array([[0.6, -0.3], [0.2, 0.5]])
        mu = np.array([0.4, 0.9])
        y = mu.copy()
        for w1, w2, w3, b in layers:
            nxt = np.empty(2)
            for v in range(2):
                s_v = edges[0, v] + edges[1, v]
                agg = edges[0, v] * y[0] + edges[1, v] * y[1]
                nxt[v] = max(0.0, y[v] * w1 + s_v * (y[v] * w2) - agg * w3 + b)
            y = nxt
        expected_pre = y * 1.3 + 0.11
        expected_powers = cfg.p_max / (1 + np.exp(-expected_pre))

        # the forward pass reads the edges only; the gains are a placeholder
        g = RrmGraph(gain=np.ones((2, 2)), edges=edges, in_sums=edges.sum(axis=0))
        assert np.allclose(pre_activation(g, mu, params), expected_pre, atol=1e-12)
        assert np.allclose(forward(g, mu, params, cfg.p_max), expected_powers, atol=1e-12)

    def test_powers_strictly_inside_box(self, rng):
        cfg = small_problem(6)
        params = init_params(GnnConfig(f1=16, f2=16), 2)
        g, _, mu = random_graph(rng, cfg)
        powers = forward(g, mu, params, cfg.p_max)
        assert np.all(powers > 0) and np.all(powers < cfg.p_max)
        # serialization round trip stays in the closed box
        back = np.array(json.loads(json.dumps(powers.tolist())))
        assert np.all(back >= 0) and np.all(back <= cfg.p_max)

    def test_non_finite_detected(self, rng):
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 0)
        params.w_out[0, 0] = np.inf
        g, _, mu = random_graph(rng, cfg)
        with pytest.raises(NonFiniteActivation):
            forward(g, mu, params, cfg.p_max)

    def test_use_bias_off_keeps_bias_inert(self, rng):
        cfg = small_problem(3)
        dims = GnnConfig(f1=8, f2=8, use_bias=False)
        params = init_params(dims, 1)
        (real,) = make_realizations(m=3, count=1, seed=5)
        _, grads, _ = episode_eval(
            episode_tensors(real.episode(4), cfg), np.zeros(3), params, cfg
        )
        assert np.array_equal(grads.b[0], np.zeros(8))
        assert np.array_equal(grads.b[1], np.zeros(8))


class TestEpisodeObjective:
    def test_mu_zero_value_is_mean_sum_rate(self):
        cfg = small_problem(4)
        params = init_params(GnnConfig(f1=8, f2=8), 3)
        (real,) = make_realizations(m=4, count=1, seed=2)
        g2 = real.episode(6)
        value, _, _ = episode_eval(episode_tensors(g2, cfg), np.zeros(4), params, cfg)
        # independent path: the policy over the whole episode, then plain rates
        powers = forward(build_graph(g2, cfg), np.zeros(4), params, cfg.p_max)
        avg = rates(g2, powers, cfg).mean(axis=0)
        assert value == pytest.approx(float(avg.sum()), abs=1e-12)

    def test_value_matches_direct_rate_computation(self):
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 9)
        mu = np.array([0.2, 0.0, 1.4])
        (real,) = make_realizations(m=3, count=1, seed=6)
        episode = real.episode(5)
        value, _, _ = episode_eval(episode_tensors(episode, cfg), mu, params, cfg)
        # independent path: forward per step, rates per step, closed form
        f = []
        for t in range(5):
            g2 = episode[t]
            p = forward(build_graph(g2, cfg), mu, params, cfg.p_max)
            f.append(rates(g2, p, cfg))
        avg = np.mean(f, axis=0)
        closed = float(((1 + mu) * avg).sum() - cfg.f_min_bps_hz * mu.sum())
        assert value == pytest.approx(closed, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        report = finite_difference_check(small_problem(4), GnnConfig(f1=8, f2=8), SQUARE_4, 5)
        assert report.passed, f"max rel err {report.max_measurable_rel_err}"

    def test_inert_bias_coordinates_reported_vacuous(self, monkeypatch):
        # with use_bias off every bias entry has both derivatives exactly 0,
        # so each bias pick is redrawn MAX_DRAWS times and then kept
        evals = []
        monkeypatch.setattr(verify, "episode_eval", lambda *a: evals.append(1) or episode_eval(*a))
        report = finite_difference_check(
            small_problem(4), GnnConfig(f1=8, f2=8, use_bias=False), SQUARE_4, 5
        )
        inert = [c for c in report.checks if c.tensor in ("layer1.b", "layer2.b")]
        assert len(report.checks) == 50 and len(inert) == 10
        assert all(c.vacuous for c in inert) and report.n_vacuous == 10
        assert report.passed
        # one gradient, then two evaluations per draw
        assert 1 + 2 * (10 * MAX_DRAWS + 40) <= len(evals) <= 1 + 2 * 50 * MAX_DRAWS

    @pytest.mark.parametrize("b_out", [50.0, 800.0, -800.0])
    def test_saturated_head_has_exactly_zero_gradient(self, b_out):
        # past |pre| ~ 37 the sigmoid rounds to exactly 1 or 0, so the power
        # head's derivative p_max s (1 - s) vanishes; nothing overflows
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 2)
        params.b_out[0] = b_out
        (real,) = make_realizations(m=3, count=1, seed=4)
        value, grads, avg_f = episode_eval(
            episode_tensors(real.episode(5), cfg), np.array([0.3, 0.0, 1.1]), params, cfg
        )
        assert np.isfinite(value) and np.isfinite(avg_f).all()
        assert np.array_equal(grads.flat, np.zeros_like(grads.flat))

    def test_doubling_episode_leaves_value_unchanged(self):
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 4)
        mu = np.array([0.3, 0.6, 0.1])
        (real,) = make_realizations(m=3, count=1, seed=3)
        episode = real.episode(4)
        v1, _, _ = episode_eval(episode_tensors(episode, cfg), mu, params, cfg)
        doubled = episode_tensors(np.concatenate([episode, episode]), cfg)
        v2, _, _ = episode_eval(doubled, mu, params, cfg)
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_empty_episode_rejected(self):
        cfg = small_problem(2)
        params = init_params(GnnConfig(f1=4, f2=4), 0)
        with pytest.raises(DimensionMismatch):
            episode_eval(
                episode_tensors(np.empty((0, 2, 2)), cfg),
                np.zeros(2), params, cfg,
            )

    def test_complex_episode_rejected(self):
        # the episode holds the gains |h|^2; complex channels are refused
        cfg = small_problem(3)
        (real,) = make_realizations(m=3, count=1, seed=5)
        with pytest.raises(DimensionMismatch):
            episode_tensors(np.sqrt(real.episode(4)).astype(complex), cfg)

    def test_utility_scale_linearity(self):
        # doubling the utility reweights the rate gradient from (1 + mu) to
        # (2 + mu), the same weights as duals mu + 1; with the policy input
        # held at mu, that gradient equals the (1 + mu)-gradient plus the
        # all-ones gradient
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 8)
        mu = np.array([0.7, 0.2, 0.5])
        (real,) = make_realizations(m=3, count=1, seed=11)
        tensors = episode_tensors(real.episode(5), cfg)
        _, g2, _ = episode_eval(tensors, mu + 1.0, params, cfg, node_features=mu)
        _, ga, _ = episode_eval(tensors, mu, params, cfg)
        _, gb, _ = episode_eval(tensors, np.zeros(3), params, cfg, node_features=mu)
        assert np.max(np.abs(g2.flat - (ga.flat + gb.flat))) < 1e-10


class TestTimeBlocks:
    @settings(max_examples=40)
    @given(
        m=st.integers(1, 12),
        n_steps=st.integers(1, 40),
        f1=st.integers(1, 8),
        f2=st.integers(1, 8),
        split=st.sampled_from(["one", "two", "uneven", "whole"]),
        seed=st.integers(0, 2**16),
    )
    def test_blocks_match_one_block(self, m, n_steps, f1, f2, split, seed):
        cfg, dims = small_problem(m), GnnConfig(f1=f1, f2=f2)
        (real,) = make_realizations(m=m, count=1, seed=seed, area=1000.0)
        tensors = episode_tensors(real.episode(n_steps), cfg)
        mu = np.random.default_rng(seed).uniform(0, 2, m)
        params = init_params(dims, seed)
        # "uneven": a block longer than half the episode, then a shorter one
        n = {"one": 1, "two": 2, "uneven": n_steps // 2 + 1, "whole": n_steps}[split]
        with pytest.MonkeyPatch.context() as mp:
            force_block_steps(mp, n_steps + 5, m, dims)
            ref_value, ref_grads, ref_avg = episode_eval(tensors, mu, params, cfg)
            force_block_steps(mp, n, m, dims)
            value, grads, avg = episode_eval(tensors, mu, params, cfg)
        assert value == ref_value and np.array_equal(avg, ref_avg)
        if n >= n_steps:
            assert np.array_equal(grads.flat, ref_grads.flat)
        else:  # the same terms, summed block by block
            scale = np.max(np.abs(ref_grads.flat))
            assert np.max(np.abs(grads.flat - ref_grads.flat)) <= 1e-13 * scale

    def test_finite_differences_with_three_step_blocks(self, monkeypatch):
        dims = GnnConfig(f1=8, f2=8)
        force_block_steps(monkeypatch, 3, 4, dims)
        report = finite_difference_check(small_problem(4), dims, SQUARE_4, 5)
        assert report.passed, f"max rel err {report.max_measurable_rel_err}"

    def test_block_rule(self):
        # (whole episodes, steps) per gradient block: 20-step time blocks at
        # the paper shape, three whole episodes at the desk acceptance shape
        # (m=6, f=64, T=50), whole episodes at the golden-run shapes (m=6
        # and 20, f=16, T=20), and one step where not even one fits
        assert gradient_blocks(50, 100, GnnConfig(f1=64, f2=64)) == (1, 20)
        assert gradient_blocks(6, 50, GnnConfig()) == (3, 50)
        assert gradient_blocks(6, 20, GnnConfig(f1=16, f2=16))[1] == 20
        assert gradient_blocks(20, 20, GnnConfig(f1=16, f2=16))[1] == 20
        assert gradient_blocks(10**6, 5, GnnConfig()) == (1, 1)
        # execution: whole T0-windows of (n, m, m) tensors, the whole desk
        # episode at m=6 and 25 steps at m=50; synthesis: 13 steps at m=50
        assert block_steps(8 * 6 * 6, 5) >= 400
        assert block_steps(8 * 50 * 50, 5) == 25
        assert block_steps(16 * 50 * 50) == 13
        assert block_steps(10**9, 5) == 5


class TestBatchAxis:
    """A batch of episodes in one ``episode_eval`` call, in blocks of whole
    episodes or in time blocks of one, gives the results of its episodes
    one by one."""

    @settings(max_examples=60)
    @given(
        m=st.integers(1, 7),
        n_steps=st.integers(1, 12),
        batch=st.integers(1, 6),
        widths=st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(lambda f: f[0] != f[1]),
        use_bias=st.booleans(),
        constant_features=st.booleans(),
        per_block=st.integers(0, 7),
        extra=st.integers(0, 11),
        with_out=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_batch_equals_single_episodes(
        self, m, n_steps, batch, widths, use_bias, constant_features, per_block, extra, with_out,
        seed
    ):
        cfg, dims = small_problem(m), GnnConfig(*widths, use_bias=use_bias)
        episodes = [
            episode_tensors(real.episode(n_steps), cfg)
            for real in make_realizations(m=m, count=batch, seed=seed, area=1000.0)
        ]
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0, 2, (batch, m))
        features = np.full(m, 1.5) if constant_features else None
        params = init_params(dims, seed)
        for name, a in params.named_arrays():
            if name.endswith(".b"):  # live biases, so inert ones would show
                a[...] = rng.uniform(-0.1, 0.1, a.shape)
        if per_block:  # whole episodes per block: one, several or the batch
            n = per_block * n_steps + extra % n_steps
        else:  # time blocks, part of one episode each
            n = 1 + extra % max(n_steps - 1, 1)
        # NaN rows in ``out``, so a row the batch left unwritten would show
        out = np.full((batch, params.flat.size), np.nan) if with_out else None
        with pytest.MonkeyPatch.context() as mp:
            force_block_steps(mp, n, m, dims)
            values, grads, avg = episode_eval(episodes, mu, params, cfg, node_features=features,
                                              out=out)
            rows = grads.flat
            singles = [episode_eval(e, u, params, cfg, node_features=features)
                       for e, u in zip(episodes, mu)]
        assert rows.shape == (batch, params.flat.size) and avg.shape == (batch, m)
        if with_out:
            assert rows is out
        for b, (value, grad, avg_b) in enumerate(singles):
            assert np.array_equal(np.float64(value).view(np.uint64), values[b].view(np.uint64))
            assert np.array_equal(grad.flat.view(np.uint64), rows[b].view(np.uint64))
            assert np.array_equal(avg_b.view(np.uint64), avg[b].view(np.uint64))

    def test_mismatched_batch_rejected(self):
        cfg, params = small_problem(3), init_params(GnnConfig(f1=4, f2=4), 0)
        (real,) = make_realizations(m=3, count=1, seed=2)
        short, long = (episode_tensors(real.episode(n), cfg) for n in (3, 4))
        with pytest.raises(DimensionMismatch):  # one dual vector per episode
            episode_eval([short, short], np.zeros((3, 3)), params, cfg)
        with pytest.raises(DimensionMismatch):  # episodes of one length
            episode_eval([short, long], np.zeros((2, 3)), params, cfg)
        with pytest.raises(DimensionMismatch):
            episode_eval([], np.zeros((0, 3)), params, cfg)

    def test_results_are_not_overwritten_by_the_next_call(self):
        cfg, params = small_problem(3), init_params(GnnConfig(f1=4, f2=4), 0)
        episodes = [episode_tensors(real.episode(5), cfg)
                    for real in make_realizations(m=3, count=4, seed=2)]
        mu = np.random.default_rng(2).uniform(0, 1, (4, 3))
        _, first, _ = episode_eval(episodes[:2], mu[:2], params, cfg)
        kept = first.flat.copy()
        _, second, _ = episode_eval(episodes[2:], mu[2:], params, cfg)
        assert not np.shares_memory(first.flat, second.flat)
        assert np.array_equal(first.flat.view(np.uint64), kept.view(np.uint64))
        assert not np.array_equal(first.flat, second.flat)

    @pytest.mark.parametrize("kind", ["rows", "width", "transposed", "strided", "float32"])
    def test_out_must_be_contiguous_float64_rows(self, kind):
        # a strided ``out`` would give GnnParams reshaped copies, and the
        # gradients written into them would be lost
        cfg, params = small_problem(3), init_params(GnnConfig(f1=4, f2=4), 0)
        episodes = [episode_tensors(real.episode(4), cfg)
                    for real in make_realizations(m=3, count=2, seed=2)]
        size = params.flat.size
        out = {
            "rows": np.empty((3, size)),
            "width": np.empty((2, size + 1)),
            "transposed": np.empty((size, 2)).T,
            "strided": np.empty((2, 2 * size))[:, ::2],
            "float32": np.empty((2, size), dtype=np.float32),
        }[kind]
        with pytest.raises(DimensionMismatch):
            episode_eval(episodes, np.zeros((2, 3)), params, cfg, out=out)


class TestActivationBuffers:
    """The forward and backward passes keep their (..., m, f) activations in
    buffers reused across blocks and calls."""

    # (m, T, f1, f2, steps per gradient block): the desk shape, unequal
    # widths either way round, and partial last blocks
    CASES = [(6, 50, 64, 64, 50), (5, 13, 16, 24, 4), (7, 9, 24, 16, 6), (3, 20, 8, 8, 7)]

    @staticmethod
    def results(mp, m, n_steps, f1, f2, n):
        cfg, dims = small_problem(m), GnnConfig(f1=f1, f2=f2)
        (real,) = make_realizations(m=m, count=1, seed=m)
        gain = real.episode(n_steps)
        params = init_params(dims, m)
        mu = np.random.default_rng(m).uniform(0, 2, m)
        force_block_steps(mp, n, m, dims)
        value, grads, avg = episode_eval(episode_tensors(gain, cfg), mu, params, cfg)
        # an execution window of five steps right after the training blocks
        powers = forward(build_graph(gain[:5], cfg), mu, params, cfg.p_max)
        return [np.array(value), grads.flat, avg, powers]

    def test_results_do_not_depend_on_earlier_calls(self, monkeypatch):
        first = [self.results(monkeypatch, *case) for case in self.CASES]
        kept = [[a.copy() for a in run] for run in first]
        again = [self.results(monkeypatch, *case) for case in reversed(self.CASES)][::-1]
        for run, copies, rerun in zip(first, kept, again):
            for a, copy, b in zip(run, copies, rerun):
                # bit for bit in either order, and no later call wrote into
                # an array an earlier one returned
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
                assert np.array_equal(a.view(np.uint64), copy.view(np.uint64))

    def test_warm_episode_eval_allocates_under_three_activations(self):
        # a warm gradient at the desk shape allocates less than three
        # (T, m, f) float64 activations in all
        m, n_steps, f = 6, 50, 64
        cfg = small_problem(m)
        params = init_params(GnnConfig(f1=f, f2=f), 0)
        (real,) = make_realizations(m=m, count=1, seed=1)
        episode = episode_tensors(real.episode(n_steps), cfg)
        mu = np.full(m, 0.5)
        episode_eval(episode, mu, params, cfg)
        tracemalloc.start()
        try:
            episode_eval(episode, mu, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n_steps * m * f * 8

    def test_warm_batch_allocates_under_three_activations(self):
        # a warm 16-episode gradient batch at the desk shape, three episodes
        # per block, reuses its stacked gains and writes its gradient rows
        # into the caller's ``out``: it too allocates less than three
        # (T, m, f) float64 activations in all
        m, n_steps, f, batch = 6, 50, 64, 16
        cfg = small_problem(m)
        params = init_params(GnnConfig(f1=f, f2=f), 0)
        episodes = [episode_tensors(real.episode(n_steps), cfg)
                    for real in make_realizations(m=m, count=batch, seed=1)]
        mu = np.random.default_rng(0).uniform(0, 1, (batch, m))
        assert gradient_blocks(m, n_steps, params.dims) == (3, n_steps)
        out = np.empty((batch, params.flat.size))
        episode_eval(episodes, mu, params, cfg, out=out)
        tracemalloc.start()
        try:
            episode_eval(episodes, mu, params, cfg, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n_steps * m * f * 8


class TestGradCheckReport:
    def test_max_measurable_rel_err_skips_coordinates_below_the_noise_floor(self):
        def coord(analytic, numeric):
            abs_err = abs(analytic - numeric)
            return verify.CoordinateCheck(
                "out.b", (0,), analytic, numeric, rel_err=abs_err / max(abs(analytic), abs(numeric)),
                abs_err=abs_err, noise_floor=1e-8,
            )

        # at tol 1e-4 the floor hides derivatives up to 1e-4: the first
        # coordinate passes on the floor with a relative error of 0.2
        below, above = coord(2e-8, 2.5e-8), coord(1.0, 1.0 + 2e-5)
        report = verify.GradCheckReport([below, above])
        assert report.passed and below.rel_err == pytest.approx(0.2)
        assert report.max_measurable_rel_err == above.rel_err
        assert verify.GradCheckReport([below]).max_measurable_rel_err == 0.0


class TestApplyUpdate:
    def test_zero_grad_and_zero_eta(self):
        params = init_params(GnnConfig(f1=4, f2=4), 1)
        assert params_equal(apply_update(params, params.zeros_like(), 0.5), params)
        grad = init_params(GnnConfig(f1=4, f2=4), 2)
        assert params_equal(apply_update(params, grad, 0.0), params)

    def test_single_parameter_quadratic_step(self):
        # objective -(w - c)^2 has slope -2(w - c); one step moves by eta*slope
        params = init_params(GnnConfig(f1=4, f2=4), 1)
        w0 = params.w_out[0, 0]
        c = 1.5
        grad = params.zeros_like()
        grad.w_out[0, 0] = -2.0 * (w0 - c)
        eta = 0.3
        updated = apply_update(params, grad, eta)
        assert updated.w_out[0, 0] == w0 + eta * (-2.0 * (w0 - c))

    def test_shape_mismatch_rejected(self):
        params = init_params(GnnConfig(f1=4, f2=4), 1)
        grad = init_params(GnnConfig(f1=8, f2=8), 1)
        with pytest.raises(DimensionMismatch):
            apply_update(params, grad, 0.1)


class TestFlatParams:
    NAMES = [f"layer{l}.{k}" for l in (1, 2) for k in ("w1", "w2", "w3", "b")] + ["out.w", "out.b"]

    @settings(max_examples=40)
    @given(
        f1=st.integers(1, 16),
        f2=st.integers(1, 16),
        use_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-1e3, 1e3),
    )
    def test_views_checkpoints_copies_and_updates(self, f1, f2, use_bias, seed, scale):
        dims = GnnConfig(f1=f1, f2=f2, use_bias=use_bias)
        p, other = init_params(dims, seed), init_params(dims, seed + 1)
        assert [name for name, _ in p.named_arrays()] == self.NAMES
        # save, load, save gives the same bytes
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            first = checkpoint_bytes(Checkpoint(params=p, seed=seed, iteration=3))
            path.write_bytes(first)
            assert checkpoint_bytes(load_checkpoint(path)) == first
        # add_scaled is the per-array update a += s * o, bit for bit
        pairs = zip(p.named_arrays(), other.named_arrays())
        expected = [a + scale * o for (_, a), (_, o) in pairs]
        c = p.copy()
        c.add_scaled(other, scale)
        assert all(np.array_equal(a, e) for (_, a), e in zip(c.named_arrays(), expected))
        # a copy shares no memory, and writes through the views land in flat
        assert not np.shares_memory(c.flat, p.flat)
        for i, (_, a) in enumerate(c.named_arrays()):
            a[...] = i + 1
        sizes = [a.size for _, a in c.named_arrays()]
        assert np.array_equal(c.flat, np.repeat(np.arange(1.0, 11.0), sizes))
        assert c.w1[1] is c.named_arrays()[4][1] and c.b_out is c.named_arrays()[9][1]
        assert np.array_equal(p.flat, init_params(dims, seed).flat)


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        params = init_params(GnnConfig(f1=16, f2=16), 5)
        ckpt = Checkpoint(
            params=params, seed=42, iteration=7, config_echo={"example": [1, 2.5]}
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        first = path.read_bytes()
        loaded = load_checkpoint(path)
        assert params_equal(loaded.params, params)
        assert loaded.seed == 42 and loaded.iteration == 7
        assert checkpoint_bytes(loaded) == first

    def test_dims_check(self):
        params = init_params(GnnConfig(f1=16, f2=16), 5)
        require_dims(params, GnnConfig(f1=16, f2=16))
        with pytest.raises(CheckpointDimMismatch):
            require_dims(params, GnnConfig(f1=8, f2=16))
