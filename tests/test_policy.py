import json
import math

import numpy as np
import pytest

from dualrrm.core import RrmProblemConfig, rates, rates_from_gain2
from dualrrm.errors import (
    CheckpointDimMismatch,
    DimensionMismatch,
    NonFiniteActivation,
)
from dualrrm.graph import build_graph
from dualrrm.policy import (
    Checkpoint,
    GnnConfig,
    GnnParams,
    _d_lagrangian_d_powers,
    apply_update,
    checkpoint_bytes,
    episode_average_rates,
    episode_eval,
    episode_lagrangian_and_grad,
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
    return build_graph(h, mu, cfg), h, mu


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
        size = p.nbytes()
        outputs = {}
        for m in (4, 16, 64):
            cfg = small_problem(m)
            g, _, _ = random_graph(rng, cfg)
            outputs[m] = forward(g, p, cfg.p_max).powers
            assert p.nbytes() == size
            assert outputs[m].shape == (m,)


class TestForward:
    def test_zero_params_give_half_power(self, rng):
        cfg = small_problem(5)
        p = init_params(GnnConfig(f1=8, f2=8), 0).zeros_like()
        g, _, _ = random_graph(rng, cfg)
        out = forward(g, p, cfg.p_max)
        assert np.allclose(out.powers, cfg.p_max / 2, atol=1e-15)
        assert np.array_equal(out.pre_activation, np.zeros(5))

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_permutation_equivariance(self, m, rng):
        cfg = small_problem(m)
        params = init_params(GnnConfig(f1=16, f2=16), 7)
        g, h, mu = random_graph(rng, cfg)
        base = forward(g, params, cfg.p_max).powers
        for _ in range(5):
            perm = rng.permutation(m)
            gp = build_graph(relabel_matrix(h, perm), mu[perm], cfg)
            permuted = forward(gp, params, cfg.p_max).powers
            assert np.max(np.abs(permuted - base[perm])) < 1e-9

    def test_two_node_hand_trace(self):
        # 1x1 feature dims: every weight is a scalar, checked by hand recursion
        cfg = small_problem(2)
        params = GnnParams(
            w1=[np.array([[0.3]]), np.array([[-0.2]])],
            w2=[np.array([[0.5]]), np.array([[0.4]])],
            w3=[np.array([[0.7]]), np.array([[0.1]])],
            b=[np.array([0.05]), np.array([-0.02])],
            w_out=np.array([[1.3]]),
            b_out=np.array([0.11]),
        )
        edges = np.array([[0.6, -0.3], [0.2, 0.5]])
        mu = np.array([0.4, 0.9])
        y = mu.copy()
        for w1, w2, w3, b in [(0.3, 0.5, 0.7, 0.05), (-0.2, 0.4, 0.1, -0.02)]:
            nxt = np.empty(2)
            for v in range(2):
                s_v = edges[0, v] + edges[1, v]
                agg = edges[0, v] * y[0] + edges[1, v] * y[1]
                nxt[v] = max(0.0, y[v] * w1 + s_v * (y[v] * w2) - agg * w3 + b)
            y = nxt
        expected_pre = y * 1.3 + 0.11
        expected_powers = cfg.p_max / (1 + np.exp(-expected_pre))

        from dualrrm.graph import RrmGraph

        g = RrmGraph(m=2, node_features=mu.reshape(-1, 1), edge_weights=edges, z_norm=1.0)
        out = forward(g, params, cfg.p_max)
        assert np.allclose(out.pre_activation, expected_pre, atol=1e-12)
        assert np.allclose(out.powers, expected_powers, atol=1e-12)

    def test_powers_strictly_inside_box(self, rng):
        cfg = small_problem(6)
        params = init_params(GnnConfig(f1=16, f2=16), 2)
        g, _, _ = random_graph(rng, cfg)
        powers = forward(g, params, cfg.p_max).powers
        assert np.all(powers > 0) and np.all(powers < cfg.p_max)
        # serialization round trip stays in the closed box
        back = np.array(json.loads(json.dumps(powers.tolist())))
        assert np.all(back >= 0) and np.all(back <= cfg.p_max)

    def test_non_finite_detected(self, rng):
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 0)
        params.w_out[0, 0] = np.inf
        g, _, _ = random_graph(rng, cfg)
        with pytest.raises(NonFiniteActivation):
            forward(g, params, cfg.p_max)

    def test_input_width_other_than_one_rejected(self, rng):
        # the first layer is computed as outer products with row 0 of its
        # weights, so a wider input must raise instead of being read through it
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 0)
        for w in (params.w1, params.w2, params.w3):
            w[0] = np.vstack([w[0], w[0]])
        (real,) = make_realizations(m=3, count=1, seed=5)
        with pytest.raises(DimensionMismatch):
            episode_eval(episode_tensors(real.episode(4), cfg), np.zeros(3), params, cfg)
        g, _, _ = random_graph(rng, cfg)
        with pytest.raises(DimensionMismatch):
            forward(g, params, cfg.p_max)

    def test_use_bias_off_keeps_bias_inert(self, rng):
        cfg = small_problem(3)
        dims = GnnConfig(f1=8, f2=8, use_bias=False)
        params = init_params(dims, 1)
        (real,) = make_realizations(m=3, count=1, seed=5)
        _, grads = episode_lagrangian_and_grad(
            real.episode(4), np.zeros(3), params, cfg
        )
        assert np.array_equal(grads.b[0], np.zeros(8))
        assert np.array_equal(grads.b[1], np.zeros(8))


class TestEpisodeObjective:
    def test_mu_zero_value_is_mean_sum_rate(self):
        cfg = small_problem(4)
        params = init_params(GnnConfig(f1=8, f2=8), 3)
        (real,) = make_realizations(m=4, count=1, seed=2)
        episode = real.episode(6)
        value, _ = episode_lagrangian_and_grad(episode, np.zeros(4), params, cfg)
        avg = episode_average_rates(episode, np.zeros(4), params, cfg)
        assert value == pytest.approx(float(avg.sum()), abs=1e-12)

    def test_value_matches_direct_rate_computation(self):
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 9)
        mu = np.array([0.2, 0.0, 1.4])
        (real,) = make_realizations(m=3, count=1, seed=6)
        episode = real.episode(5)
        value, _ = episode_lagrangian_and_grad(episode, mu, params, cfg)
        # independent path: forward per step, rates per step, closed form
        f = []
        for t in range(5):
            g = build_graph(episode[t], mu, cfg)
            p = forward(g, params, cfg.p_max).powers
            f.append(rates(episode[t], p, cfg))
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
        v1, _ = episode_lagrangian_and_grad(episode, mu, params, cfg)
        v2, _ = episode_lagrangian_and_grad(
            np.concatenate([episode, episode]), mu, params, cfg
        )
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_empty_episode_rejected(self):
        cfg = small_problem(2)
        params = init_params(GnnConfig(f1=4, f2=4), 0)
        with pytest.raises(DimensionMismatch):
            episode_lagrangian_and_grad(
                np.empty((0, 2, 2), dtype=complex), np.zeros(2), params, cfg
            )

    def test_utility_scale_linearity(self):
        # doubling the utility reweights the rate gradient from (1 + mu) to
        # (2 + mu); with the policy input held at mu, the doubled-utility
        # gradient equals the (1 + mu)-gradient plus the all-ones gradient
        cfg = small_problem(3)
        params = init_params(GnnConfig(f1=8, f2=8), 8)
        mu = np.array([0.7, 0.2, 0.5])
        (real,) = make_realizations(m=3, count=1, seed=11)
        tensors = episode_tensors(real.episode(5), cfg)
        _, g2, _ = episode_eval(tensors, mu, params, cfg, utility_scale=2.0)
        _, ga, _ = episode_eval(tensors, mu, params, cfg)
        _, gb, _ = episode_eval(tensors, np.zeros(3), params, cfg, node_features=mu)
        for (_, x2), (_, xa), (_, xb) in zip(
            g2.named_arrays(), ga.named_arrays(), gb.named_arrays()
        ):
            assert np.max(np.abs(x2 - (xa + xb))) < 1e-10


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
        assert np.array_equal(f, rates_from_gain2(g2, p, cfg))
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
            diff = rates_from_gain2(g2, up, cfg) - rates_from_gain2(g2, down, cfg)
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
