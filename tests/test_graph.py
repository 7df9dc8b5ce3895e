import math

import numpy as np
import pytest

from dualrrm.core import RrmProblemConfig
from dualrrm.errors import DegenerateNorm, DimensionMismatch, NegativeDual, ZeroChannel
from dualrrm.graph import build_graph, edge_weights_from_gain2
from dualrrm.policy import episode_tensors

from conftest import relabel_matrix


def channel_with_strength_ratio(cfg, ratio):
    """Channel whose every entry satisfies p_max |h|^2 / noise = ratio."""
    mag = math.sqrt(ratio * cfg.noise / cfg.p_max)
    return np.full((cfg.m, cfg.m), mag, dtype=complex)


def edge_normalizer(h, cfg):
    """Frobenius norm of the elementwise log channel strengths."""
    return edge_weights_from_gain2(np.abs(h) ** 2, cfg)[1]


class TestEdgeNormalizer:
    def test_all_entries_at_e(self):
        cfg = RrmProblemConfig(m=4)
        h = channel_with_strength_ratio(cfg, math.e)
        assert edge_normalizer(h, cfg) == pytest.approx(4.0, rel=1e-12)

    def test_single_entry_e_squared(self):
        cfg = RrmProblemConfig(m=1)
        h = channel_with_strength_ratio(cfg, math.e**2)
        assert edge_normalizer(h, cfg) == pytest.approx(2.0, rel=1e-12)

    def test_random_vs_independent_oracle(self, rng):
        cfg = RrmProblemConfig(m=3)
        h = 1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        oracle = np.linalg.norm(np.log(cfg.p_max * np.abs(h) ** 2 / cfg.noise))
        assert edge_normalizer(h, cfg) == pytest.approx(oracle, rel=1e-12)

    def test_zero_channel_rejected(self):
        cfg = RrmProblemConfig(m=2)
        h = channel_with_strength_ratio(cfg, math.e)
        h[0, 1] = 0.0
        with pytest.raises(ZeroChannel):
            edge_normalizer(h, cfg)

    def test_degenerate_norm_rejected(self):
        # p_max = noise = 1 mW makes the strength ratio exactly |h|^2
        cfg = RrmProblemConfig(m=2, p_max_dbm=0.0, noise_dbm=0.0)
        h = np.ones((2, 2), dtype=complex)  # log of every entry exactly 0
        with pytest.raises(DegenerateNorm):
            edge_normalizer(h, cfg)

    def test_permutation_invariant_bit_exact(self, rng):
        cfg = RrmProblemConfig(m=5)
        h = 1e-8 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        z = edge_normalizer(h, cfg)
        for _ in range(5):
            perm = rng.permutation(5)
            assert edge_normalizer(relabel_matrix(h, perm), cfg) == z


class TestBuildGraph:
    def test_zero_duals_zero_features(self, rng):
        cfg = RrmProblemConfig(m=3)
        h = 1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        g = build_graph(h, np.zeros(3), cfg)
        assert np.array_equal(g.mu, np.zeros(3))

    def test_unit_frobenius_norm(self, rng):
        cfg = RrmProblemConfig(m=4)
        h = 1e-8 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        g = build_graph(h, np.zeros(4), cfg)
        assert np.linalg.norm(g.edges) == pytest.approx(1.0, abs=1e-12)

    def test_negative_weights_preserved(self):
        cfg = RrmProblemConfig(m=2)
        h = channel_with_strength_ratio(cfg, math.e)
        h[0, 1] = h[0, 1] * 1e-4  # much weaker link -> negative log strength
        g = build_graph(h, np.zeros(2), cfg)
        assert g.edges[0, 1] < 0

    def test_permutation_relabeling(self, rng):
        cfg = RrmProblemConfig(m=4)
        h = 1e-8 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        mu = rng.uniform(0, 1, 4)
        g = build_graph(h, mu, cfg)
        perm = rng.permutation(4)
        gp = build_graph(relabel_matrix(h, perm), mu[perm], cfg)
        assert np.max(np.abs(gp.edges - relabel_matrix(g.edges, perm))) < 1e-12
        assert np.array_equal(gp.mu, g.mu[perm])
        assert edge_normalizer(relabel_matrix(h, perm), cfg) == edge_normalizer(h, cfg)

    def test_negative_dual_rejected(self, rng):
        cfg = RrmProblemConfig(m=2)
        h = channel_with_strength_ratio(cfg, math.e)
        with pytest.raises(NegativeDual):
            build_graph(h, np.array([0.1, -0.2]), cfg)

    def test_dimension_mismatch(self, rng):
        cfg = RrmProblemConfig(m=3)
        h = channel_with_strength_ratio(cfg, math.e)
        with pytest.raises(DimensionMismatch):
            build_graph(h, np.zeros(4), cfg)

    def test_window_graph_matches_single_steps(self, rng):
        cfg = RrmProblemConfig(m=3)
        window = 1e-8 * (rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))
        mu = rng.uniform(0, 1, 3)
        g = build_graph(window, mu, cfg)
        z = edge_normalizer(window, cfg)
        assert g.edges.shape == (4, 3, 3) and g.in_sums.shape == (4, 3) and z.shape == (4,)
        for t in range(4):
            step = build_graph(window[t], mu, cfg)
            assert np.array_equal(g.edges[t], step.edges)
            assert np.array_equal(g.in_sums[t], step.in_sums)
            assert z[t] == edge_normalizer(window[t], cfg)
            assert np.array_equal(g.mu, step.mu)

    def test_batched_weights_match_single_step(self, rng):
        cfg = RrmProblemConfig(m=3)
        eps = np.stack(
            [1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
             for _ in range(4)]
        )
        tensors = episode_tensors(eps, cfg)
        for t in range(4):
            single, _ = edge_weights_from_gain2(np.abs(eps[t]) ** 2, cfg)
            assert np.array_equal(tensors.edges[t], single)
            assert np.allclose(tensors.in_sums[t], single.sum(axis=0), atol=1e-15)
