import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrrm.core import RrmProblemConfig
from dualrrm.errors import DegenerateNorm, DimensionMismatch, NegativeDual, ZeroChannel
from dualrrm.graph import block_graph, build_graph
from dualrrm.policy import GnnConfig, episode_tensors, forward, init_params

from conftest import random_gains, relabel_matrix


def channel_with_strength_ratio(cfg, ratio):
    """Channel whose every entry satisfies p_max |h|^2 / noise = ratio."""
    mag = math.sqrt(ratio * cfg.noise / cfg.p_max)
    return np.full((cfg.m, cfg.m), mag, dtype=complex)


def edges_of(h, cfg):
    return build_graph(np.abs(h) ** 2, cfg).edges


class TestEdgeNormalizer:
    """Every edge is its log strength over Z, the Frobenius norm of all of them."""

    def test_all_entries_at_e(self):
        # every log strength is 1, so Z = 4 and every edge 1/4
        cfg = RrmProblemConfig(m=4)
        h = channel_with_strength_ratio(cfg, math.e)
        assert np.allclose(edges_of(h, cfg), 0.25, rtol=1e-12, atol=0.0)

    def test_single_entry_e_squared(self):
        # the log strength 2 is its own norm
        cfg = RrmProblemConfig(m=1)
        h = channel_with_strength_ratio(cfg, math.e**2)
        assert edges_of(h, cfg)[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_random_vs_independent_oracle(self, rng):
        cfg = RrmProblemConfig(m=3)
        h = 1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        logs = np.log(cfg.p_max * np.abs(h) ** 2 / cfg.noise)
        oracle = logs / np.linalg.norm(logs)
        assert np.allclose(edges_of(h, cfg), oracle, rtol=1e-12, atol=0.0)

    def test_zero_channel_rejected(self):
        cfg = RrmProblemConfig(m=2)
        h = channel_with_strength_ratio(cfg, math.e)
        h[0, 1] = 0.0
        with pytest.raises(ZeroChannel):
            edges_of(h, cfg)

    def test_degenerate_norm_rejected(self):
        # p_max = noise = 1 mW makes the strength ratio exactly |h|^2
        cfg = RrmProblemConfig(m=2, p_max_dbm=0.0, noise_dbm=0.0)
        h = np.ones((2, 2), dtype=complex)  # log of every entry exactly 0
        with pytest.raises(DegenerateNorm):
            edges_of(h, cfg)

    def test_permutation_invariant_bit_exact(self, rng):
        # a relabeling moves the log strengths and leaves Z unchanged, bit for bit
        cfg = RrmProblemConfig(m=5)
        h = 1e-8 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        edges = edges_of(h, cfg)
        for _ in range(5):
            perm = rng.permutation(5)
            assert np.array_equal(edges_of(relabel_matrix(h, perm), cfg),
                                  relabel_matrix(edges, perm))


class TestBuildGraph:
    def test_zero_duals_zero_features(self, rng):
        # zero duals feed zero node features: with zero biases the network
        # output is sigmoid(0) whatever the channel and the weights
        cfg = RrmProblemConfig(m=3)
        h = 1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        params = init_params(GnnConfig(f1=4, f2=4), 1)
        g = build_graph(np.abs(h) ** 2, cfg)
        powers = forward(g, np.zeros(3), params, cfg.p_max)
        assert np.array_equal(powers, np.full(3, cfg.p_max / 2))

    def test_unit_frobenius_norm(self, rng):
        cfg = RrmProblemConfig(m=4)
        h = 1e-8 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        g = build_graph(np.abs(h) ** 2, cfg)
        assert np.linalg.norm(g.edges) == pytest.approx(1.0, abs=1e-12)

    def test_negative_weights_preserved(self):
        cfg = RrmProblemConfig(m=2)
        h = channel_with_strength_ratio(cfg, math.e)
        h[0, 1] = h[0, 1] * 1e-4  # much weaker link -> negative log strength
        g = build_graph(np.abs(h) ** 2, cfg)
        assert g.edges[0, 1] < 0

    def test_permutation_relabeling(self, rng):
        cfg = RrmProblemConfig(m=4)
        h = 1e-8 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        g = build_graph(np.abs(h) ** 2, cfg)
        perm = rng.permutation(4)
        gp = build_graph(np.abs(relabel_matrix(h, perm)) ** 2, cfg)
        assert np.max(np.abs(gp.edges - relabel_matrix(g.edges, perm))) < 1e-12
        assert np.array_equal(gp.gain, relabel_matrix(g.gain, perm))

    def test_negative_dual_rejected(self, rng):
        # the duals enter as node features; NaN and inf are refused like -0.2
        cfg = RrmProblemConfig(m=2)
        g = build_graph(np.abs(channel_with_strength_ratio(cfg, math.e)) ** 2, cfg)
        params = init_params(GnnConfig(f1=2, f2=2), 0)
        for bad in (-0.2, math.nan, math.inf):
            with pytest.raises(NegativeDual):
                forward(g, np.array([0.1, bad]), params, cfg.p_max)

    def test_dimension_mismatch(self, rng):
        cfg = RrmProblemConfig(m=3)
        g2 = np.abs(channel_with_strength_ratio(cfg, math.e)) ** 2
        with pytest.raises(DimensionMismatch):
            build_graph(g2, RrmProblemConfig(m=4))
        params = init_params(GnnConfig(f1=2, f2=2), 0)
        with pytest.raises(DimensionMismatch):
            forward(build_graph(g2, cfg), np.zeros(4), params, cfg.p_max)

    def test_window_graph_matches_single_steps(self, rng):
        cfg = RrmProblemConfig(m=3)
        window = 1e-8 * (rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))
        g = build_graph(np.abs(window) ** 2, cfg)
        assert g.edges.shape == (4, 3, 3) and g.in_sums.shape == (4, 3)
        for t in range(4):
            step = build_graph(np.abs(window[t]) ** 2, cfg)
            assert np.array_equal(g.edges[t], step.edges)
            assert np.array_equal(g.in_sums[t], step.in_sums)
            assert np.array_equal(g[1:3].edges, g.edges[1:3])
            assert np.array_equal(g[1:3].gain, g.gain[1:3])

    def test_batched_weights_match_single_step(self, rng):
        cfg = RrmProblemConfig(m=3)
        eps = np.stack(
            [1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
             for _ in range(4)]
        )
        graph = build_graph(np.abs(eps) ** 2, cfg)
        for t in range(4):
            single = edges_of(eps[t], cfg)
            assert np.array_equal(graph.edges[t], single)
            assert np.allclose(graph.in_sums[t], single.sum(axis=0), atol=1e-15)


class TestGainEpisode:
    """Training keeps the gains and one edge norm per step, and builds the
    edges of each block of steps from them."""

    def test_holds_gains_and_one_norm_per_step(self):
        # paper shape: T (m^2 + 1) float64s, 2.0 MB, and no other array
        cfg, n_steps = RrmProblemConfig(m=50), 100
        episode = episode_tensors(random_gains(np.random.default_rng(0), n_steps, 50), cfg)
        arrays = [v for v in vars(episode).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == n_steps * (50 * 50 + 1) * 8

    @settings(max_examples=60)
    @given(
        m=st.integers(1, 12),
        n_steps=st.integers(1, 40),
        k=st.integers(1, 3),
        split=st.sampled_from(["one", "two", "uneven", "whole"]),
        seed=st.integers(0, 2**16),
    )
    def test_block_graphs_match_build_graph(self, m, n_steps, k, split, seed):
        cfg = RrmProblemConfig(m=m)
        rng = np.random.default_rng(seed)
        gains = [random_gains(rng, n_steps, m) for _ in range(k)]
        wholes = [build_graph(gain, cfg) for gain in gains]
        episodes = [episode_tensors(gain, cfg) for gain in gains]
        # "uneven": a block longer than half the episode, then a shorter one
        n = {"one": 1, "two": 2, "uneven": n_steps // 2 + 1, "whole": n_steps}[split]
        for t0 in range(0, n_steps, n):
            win = slice(t0, t0 + n)
            out = np.empty((k, min(n, n_steps - t0), m, m))
            block = block_graph(episodes, win, cfg, out)
            assert block.gain is out
            for i, whole in enumerate(wholes):
                ref = whole[win]
                assert np.array_equal(block.gain[i], ref.gain)
                assert np.array_equal(block.edges[i].view(np.uint64), ref.edges.view(np.uint64))
                assert np.array_equal(block.in_sums[i].view(np.uint64),
                                      ref.in_sums.view(np.uint64))

    def test_refused_like_build_graph(self):
        cfg = RrmProblemConfig(m=2, p_max_dbm=0.0, noise_dbm=0.0)
        gain = np.ones((3, 2, 2))  # every log strength exactly 0 at every step
        with pytest.raises(DegenerateNorm):
            episode_tensors(gain, cfg)
        gain = np.full((3, 2, 2), math.e)
        gain[2, 0, 1] = 0.0
        with pytest.raises(ZeroChannel):
            episode_tensors(gain, cfg)

    def test_stacked_episodes_refused(self):
        # execution stacks realizations on axis 1; a training episode is one
        # (T, m, m) realization, and block_graph cannot stack a stack
        cfg = RrmProblemConfig(m=3)
        rng = np.random.default_rng(2)
        stacked = np.stack([random_gains(rng, 4, 3) for _ in range(2)], axis=1)
        with pytest.raises(DimensionMismatch, match=r"\(4, 2, 3, 3\) is not \(T, m, m\)"):
            episode_tensors(stacked, cfg)
