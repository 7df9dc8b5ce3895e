import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrrm import core
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
    _d_lagrangian_d_powers,
    _forward_tensors,
    apply_update,
    checkpoint_bytes,
    episode_eval,
    episode_tensors,
    forward,
    init_params,
    load_checkpoint,
    require_dims,
    save_checkpoint,
)
from dualrrm.verify import finite_difference_check

from conftest import make_realizations, params_equal, random_gains, relabel_matrix


def small_problem(m):
    return RrmProblemConfig(m=m)


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

        g = RrmGraph(edges=edges, in_sums=edges.sum(axis=0))
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
        episode = real.episode(6)
        value, _, _ = episode_eval(episode_tensors(episode, cfg), np.zeros(4), params, cfg)
        # independent path: the policy over the whole episode, then plain rates
        g2 = np.abs(episode) ** 2
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
            g2 = np.abs(episode[t]) ** 2
            p = forward(build_graph(g2, cfg), mu, params, cfg.p_max)
            f.append(rates(g2, p, cfg))
        avg = np.mean(f, axis=0)
        closed = float(((1 + mu) * avg).sum() - cfg.f_min_bps_hz * mu.sum())
        assert value == pytest.approx(closed, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        report = finite_difference_check(
            small_problem(4), GnnConfig(f1=8, f2=8), n_steps=6, n_coords=30, seed=5
        )
        assert report.passed(1e-4), f"max rel err {report.max_rel_err}"

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
                episode_tensors(np.empty((0, 2, 2), dtype=complex), cfg),
                np.zeros(2), params, cfg,
            )

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


def gradient_block_steps(m, dims):
    """Steps per time block of ``episode_eval``."""
    return block_steps(8 * m * max(dims.f1, dims.f2))


def force_block_steps(mp, n, m, dims):
    """Make ``episode_eval`` run time blocks of exactly ``n`` steps."""
    mp.setattr(core, "_BLOCK_BYTES", n * 8 * m * max(dims.f1, dims.f2))
    assert gradient_block_steps(m, dims) == n


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
        report = finite_difference_check(small_problem(4), dims, n_steps=7, n_coords=30, seed=5)
        assert report.passed(1e-4), f"max rel err {report.max_rel_err}"

    def test_block_rule(self):
        assert gradient_block_steps(50, GnnConfig(f1=64, f2=64)) == 20  # paper shape
        # one block at the desk acceptance shape (m=6, f=64, T=50) and the
        # golden-run shapes (m=6 and 20, f=16, T=20)
        assert gradient_block_steps(6, GnnConfig()) >= 50
        assert gradient_block_steps(6, GnnConfig(f1=16, f2=16)) >= 20
        assert gradient_block_steps(20, GnnConfig(f1=16, f2=16)) >= 20
        assert gradient_block_steps(10**6, GnnConfig()) == 1
        # execution: whole T0-windows of (n, m, m) tensors, the whole desk
        # episode at m=6 and 25 steps at m=50; synthesis: 13 steps at m=50
        assert block_steps(8 * 6 * 6, 5) >= 400
        assert block_steps(8 * 50 * 50, 5) == 25
        assert block_steps(16 * 50 * 50) == 13
        assert block_steps(10**9, 5) == 5


def random_kernel_inputs(rng, cfg, n_steps):
    """Spread gains, interior powers and Lagrangian rate weights 1 + mu."""
    p = rng.uniform(0.1, cfg.p_max, (n_steps, cfg.m))
    return random_gains(rng, n_steps, cfg.m), p, 1.0 + rng.uniform(0, 2, cfg.m)


class TestRatesAndGradientKernel:
    @pytest.mark.parametrize("m", [1, 6, 50])
    def test_batched_equals_per_step_bit_exact(self, rng, m):
        cfg = small_problem(m)
        g2, p, w = random_kernel_inputs(rng, cfg, 5)
        f, dldp = _d_lagrangian_d_powers(g2, p, w, cfg)
        assert np.array_equal(f, rates(g2, p, cfg))
        for t in range(5):
            f_t, dldp_t = _d_lagrangian_d_powers(g2[t], p[t], w, cfg)
            assert np.array_equal(f_t, f[t]) and np.array_equal(dldp_t, dldp[t])

    @pytest.mark.parametrize("m", [6, 50])
    def test_permutation_equivariance_bit_exact(self, rng, m):
        cfg = small_problem(m)
        g2, p, w = random_kernel_inputs(rng, cfg, 5)
        f, dldp = _d_lagrangian_d_powers(g2, p, w, cfg)
        for _ in range(5):
            perm = rng.permutation(m)
            f_perm, dldp_perm = _d_lagrangian_d_powers(
                g2[:, perm][:, :, perm], p[:, perm], w[perm], cfg
            )
            assert np.array_equal(f_perm, f[:, perm])
            assert np.array_equal(dldp_perm, dldp[:, perm])

    @pytest.mark.parametrize("m", [4, 12])
    def test_gradient_vs_central_differences(self, rng, m):
        # dL/dp is linear in the weights, and one-hot weights e_i make it row
        # i of the rate Jacobian, so every entry d f_i / d p_j is checked
        cfg = small_problem(m)
        g2, p, _ = random_kernel_inputs(rng, cfg, 5)
        jac = np.stack([_d_lagrangian_d_powers(g2, p, w, cfg)[1] for w in np.eye(m)], axis=-2)
        step = 1e-6
        fd = np.empty_like(jac)  # (T, i, j)
        for j in range(m):
            up, down = p.copy(), p.copy()
            up[:, j] += step  # steps are independent, so all move at once
            down[:, j] -= step
            diff = rates(g2, up, cfg) - rates(g2, down, cfg)
            fd[..., j] = diff / (2 * step)
        # central differences carry ~ulp(f)/step of rounding noise, so the
        # relative bound only applies to entries that rise above that floor
        scale = np.maximum(np.abs(jac), np.abs(fd))
        above = scale >= 1e-3
        assert np.all(np.abs(jac - fd)[above] / scale[above] < 1e-6)
        assert np.all(np.abs(jac - fd)[~above] < 5e-9)
        assert above.any() and (~above).any()


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
