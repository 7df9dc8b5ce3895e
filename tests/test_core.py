import math

import numpy as np
import pytest

from dualrrm.core import (
    MetricsSummary,
    RrmProblemConfig,
    constraints_g,
    interference_denominators,
    lagrangian,
    lagrangian_rate_weights,
    metrics,
    rates,
    rates_and_gradient,
    utility_sum,
)
from dualrrm.errors import DimensionMismatch, EmptyInput, NegativeDual

from conftest import random_gains, relabel_matrix


def random_channel(rng, m, scale=1e-5):
    # |h|^2 around 1e-10 puts direct links at moderate SINR
    return scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))


class TestRates:
    def test_unit_conversion(self):
        cfg = RrmProblemConfig(m=1)
        assert cfg.p_max == pytest.approx(10.0)  # 10 dBm in mW
        assert cfg.noise == pytest.approx(10 ** (-10.4))

    def test_zero_power_zero_rate(self, rng):
        cfg = RrmProblemConfig(m=4)
        h = random_channel(rng, 4)
        assert np.array_equal(rates(np.abs(h) ** 2, np.zeros(4), cfg), np.zeros(4))

    def test_unit_sinr_gives_one(self):
        cfg = RrmProblemConfig(m=1)
        # pick |h|^2 so that p_max |h|^2 equals the noise power exactly
        h = np.array([[math.sqrt(cfg.noise / cfg.p_max)]], dtype=complex)
        f = rates(np.abs(h) ** 2, np.array([cfg.p_max]), cfg)
        assert f[0] == 1.0

    def test_two_user_symmetric_closed_form(self):
        cfg = RrmProblemConfig(m=2)
        a, b = 3e-10, 4e-11
        h = np.sqrt(np.array([[a, b], [b, a]], dtype=complex))
        p = np.full(2, cfg.p_max)
        expected = math.log2(1 + cfg.p_max * a / (cfg.noise + cfg.p_max * b))
        f = rates(np.abs(h) ** 2, p, cfg)
        assert f[0] == pytest.approx(expected, rel=1e-12)
        assert f[1] == pytest.approx(expected, rel=1e-12)

    def test_random_instance_vs_scalar_oracle(self, rng):
        # independent oracle: plain python floats, fsum, math.log2
        cfg = RrmProblemConfig(m=5)
        h = random_channel(rng, 5)
        p = rng.uniform(0, cfg.p_max, 5)
        g2 = np.abs(h) ** 2
        for i in range(5):
            denom = math.fsum(
                [cfg.noise] + [p[j] * g2[j, i] for j in range(5) if j != i]
            )
            oracle = math.log2(1.0 + p[i] * g2[i, i] / denom)
            assert rates(g2, p, cfg)[i] == pytest.approx(oracle, rel=1e-15)

    def test_monotone_in_own_and_cross_power(self, rng):
        cfg = RrmProblemConfig(m=4)
        for trial in range(20):
            h = random_channel(rng, 4)
            p = rng.uniform(0, cfg.p_max, 4)
            i = trial % 4
            bumped = p.copy()
            bumped[i] = min(cfg.p_max, p[i] + 0.5)
            g2 = np.abs(h) ** 2
            f0, f1 = rates(g2, p, cfg), rates(g2, bumped, cfg)
            assert f1[i] >= f0[i]
            others = np.arange(4) != i
            assert np.all(f1[others] <= f0[others])

    def test_permutation_equivariance_bit_exact(self, rng):
        cfg = RrmProblemConfig(m=6)
        h = random_channel(rng, 6)
        p = rng.uniform(0, cfg.p_max, 6)
        g2 = np.abs(h) ** 2
        f = rates(g2, p, cfg)
        for _ in range(10):
            perm = rng.permutation(6)
            f_perm = rates(relabel_matrix(g2, perm), p[perm], cfg)
            assert np.array_equal(f_perm, f[perm])

    def test_dimension_mismatch(self, rng):
        cfg = RrmProblemConfig(m=3)
        with pytest.raises(DimensionMismatch):
            rates(np.abs(random_channel(rng, 4)) ** 2, np.zeros(4), cfg)


class TestBatchedDenominators:
    @pytest.mark.parametrize("m", [1, 2, 6, 50, 200])
    def test_within_1e15_of_fsum_oracle(self, rng, m):
        cfg = RrmProblemConfig(m=m)
        g2 = random_gains(rng, 3, m)
        p = rng.uniform(0, cfg.p_max, (3, m))
        d = interference_denominators(g2, p, cfg.noise)
        for t in range(3):
            for i in range(m):
                oracle = math.fsum(
                    [cfg.noise] + [p[t, j] * g2[t, j, i] for j in range(m) if j != i]
                )
                assert abs(d[t, i] - oracle) <= 1e-15 * oracle

    def test_single_user_is_noise_exactly(self, rng):
        cfg = RrmProblemConfig(m=1)
        g2 = random_gains(rng, 4, 1)
        p = rng.uniform(0, cfg.p_max, (4, 1))
        d = interference_denominators(g2, p, cfg.noise)
        assert np.array_equal(d, np.full((4, 1), cfg.noise))
        assert interference_denominators(g2[0], p[0], cfg.noise)[0] == cfg.noise

    @pytest.mark.parametrize("m", [1, 6, 50, 200])
    def test_batched_equals_per_step_bit_exact(self, rng, m):
        cfg = RrmProblemConfig(m=m)
        g2 = random_gains(rng, 5, m)
        p = rng.uniform(0, cfg.p_max, (5, m))
        d = interference_denominators(g2, p, cfg.noise)
        f = rates(g2, p, cfg)
        for t in range(5):
            assert np.array_equal(d[t], interference_denominators(g2[t], p[t], cfg.noise))
            assert np.array_equal(f[t], rates(g2[t], p[t], cfg))
        # extra leading axes reduce the same way
        f2 = rates(np.stack([g2, g2[::-1]]), np.stack([p, p[::-1]]), cfg)
        assert np.array_equal(f2[0], f) and np.array_equal(f2[1], f[::-1])


def random_kernel_inputs(rng, cfg, n_steps):
    """Spread gains, interior powers and Lagrangian rate weights 1 + mu."""
    p = rng.uniform(0.1, cfg.p_max, (n_steps, cfg.m))
    return random_gains(rng, n_steps, cfg.m), p, 1.0 + rng.uniform(0, 2, cfg.m)


class TestRatesAndGradientKernel:
    @pytest.mark.parametrize("m", [1, 6, 50])
    def test_batched_equals_per_step_bit_exact(self, rng, m):
        cfg = RrmProblemConfig(m=m)
        g2, p, w = random_kernel_inputs(rng, cfg, 5)
        f, dldp = rates_and_gradient(g2, p, w, cfg)
        assert np.array_equal(f, rates(g2, p, cfg))
        for t in range(5):
            f_t, dldp_t = rates_and_gradient(g2[t], p[t], w, cfg)
            assert np.array_equal(f_t, f[t]) and np.array_equal(dldp_t, dldp[t])

    @pytest.mark.parametrize("m", [6, 50])
    def test_permutation_equivariance_bit_exact(self, rng, m):
        cfg = RrmProblemConfig(m=m)
        g2, p, w = random_kernel_inputs(rng, cfg, 5)
        f, dldp = rates_and_gradient(g2, p, w, cfg)
        for _ in range(5):
            perm = rng.permutation(m)
            f_perm, dldp_perm = rates_and_gradient(
                g2[:, perm][:, :, perm], p[:, perm], w[perm], cfg
            )
            assert np.array_equal(f_perm, f[:, perm])
            assert np.array_equal(dldp_perm, dldp[:, perm])

    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_gradient_vs_central_differences(self, rng, m):
        # dL/dp is linear in the weights, and one-hot weights e_i make it row
        # i of the rate Jacobian, so every entry d f_i / d p_j is checked
        cfg = RrmProblemConfig(m=m)
        g2, p, _ = random_kernel_inputs(rng, cfg, 5)
        jac = np.stack([rates_and_gradient(g2, p, w, cfg)[1] for w in np.eye(m)], axis=-2)
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
        # one user has no cross terms, the entries that fall below the floor
        assert above.any() and (m == 1 or (~above).any())


class TestConstraintsUtility:
    def test_boundary(self):
        cfg = RrmProblemConfig(m=3)
        g = constraints_g(np.full(3, cfg.f_min_bps_hz), cfg)
        assert np.array_equal(g, np.zeros(3))

    def test_arithmetic(self):
        cfg = RrmProblemConfig(m=1)
        assert constraints_g(np.array([0.7]), cfg)[0] == pytest.approx(0.1)

    def test_affine_in_episode_average(self, rng):
        # g of the mean equals the mean of per-step g
        cfg = RrmProblemConfig(m=4)
        f = rng.uniform(0, 3, size=(10, 4))
        lhs = constraints_g(f.mean(axis=0), cfg)
        rhs = np.mean([constraints_g(ft, cfg) for ft in f], axis=0)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_utility_zero_and_permutation(self, rng):
        assert utility_sum(np.zeros(5)) == 0.0
        x = rng.uniform(0, 5, 7)
        assert utility_sum(x) == utility_sum(x[rng.permutation(7)])

    def test_utility_vs_fsum_oracle(self, rng):
        x = rng.uniform(0, 5, 64)
        assert utility_sum(x) == pytest.approx(math.fsum(x.tolist()), abs=1e-12)


class TestLagrangian:
    def test_mu_zero_is_sum_rate(self, rng):
        cfg = RrmProblemConfig(m=5)
        x = rng.uniform(0, 4, 5)
        assert lagrangian(x, np.zeros(5), cfg) == utility_sum(x)

    def test_hand_value(self):
        cfg = RrmProblemConfig(m=1)
        val = lagrangian(np.array([0.5]), np.array([2.0]), cfg)
        assert val == pytest.approx(0.3, abs=1e-12)

    def test_closed_form_agrees_with_generic_path(self, rng):
        cfg = RrmProblemConfig(m=6)
        for _ in range(20):
            x = rng.uniform(0, 4, 6)
            mu = rng.uniform(0, 3, 6)
            closed = math.fsum(((1 + mu) * x).tolist()) - cfg.f_min_bps_hz * math.fsum(
                mu.tolist()
            )
            assert lagrangian(x, mu, cfg) == pytest.approx(closed, abs=1e-12)

    def test_negative_dual_rejected(self):
        cfg = RrmProblemConfig(m=2)
        with pytest.raises(NegativeDual):
            lagrangian(np.ones(2), np.array([0.1, -0.1]), cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_dual_rejected(self, bad):
        cfg = RrmProblemConfig(m=2)
        with pytest.raises(NegativeDual):
            lagrangian(np.ones(2), np.array([0.1, bad]), cfg)
        with pytest.raises(NegativeDual):
            lagrangian_rate_weights(np.array([bad, 0.0]), cfg)

    def test_affine_in_mu_with_gradient_g(self, rng):
        cfg = RrmProblemConfig(m=4)
        x = rng.uniform(0, 4, 4)
        mu = rng.uniform(0, 2, 4)
        g = constraints_g(x, cfg)
        for i in range(4):
            bump = mu.copy()
            bump[i] += 1.0
            assert lagrangian(x, bump, cfg) - lagrangian(x, mu, cfg) == pytest.approx(
                g[i], abs=1e-12
            )

    def test_rate_weights(self):
        cfg = RrmProblemConfig(m=3)
        mu = np.array([0.0, 0.5, 2.0])
        assert np.array_equal(lagrangian_rate_weights(mu, cfg), 1.0 + mu)


class TestMetrics:
    def test_constant_rates(self):
        cfg = RrmProblemConfig(m=1)
        s = metrics(np.ones(50), cfg)
        assert s == MetricsSummary(1.0, 1.0, 1.0, 1.0, 50)

    def test_single_outlier_trimmed(self):
        cfg = RrmProblemConfig(m=1)
        values = np.concatenate([[0.0], np.ones(99)])
        assert metrics(values, cfg).min_rate_trimmed == 1.0

    def test_trim_count_is_ceil(self):
        cfg = RrmProblemConfig(m=1)
        # 101 values: ceil(1.01) = 2 dropped
        values = np.concatenate([[0.0, 0.1], np.ones(99)])
        assert metrics(values, cfg).min_rate_trimmed == 1.0

    def test_grid_p5(self):
        cfg = RrmProblemConfig(m=1)
        s = metrics(np.linspace(0, 1, 200), cfg)
        assert s.p5_rate == pytest.approx(0.05, abs=1e-9)

    def test_feasibility_threshold(self):
        cfg = RrmProblemConfig(m=1)  # f_min = 0.6
        values = np.array([0.58, 0.6, 0.61, 0.7])
        assert metrics(values, cfg).feasibility_fraction == pytest.approx(3 / 4)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            metrics(np.array([]), RrmProblemConfig(m=1))
