import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualrrm import core
from dualrrm.channel import (
    LinkGainMatrix,
    PathlossConfig,
    Realization,
    TopologyConfig,
    load_realization,
    pathloss_db,
    realization_from_dict,
    realization_to_dict,
    sample_topology,
    save_realization,
)
from dualrrm.errors import ConfigError, DimensionMismatch, PlacementInfeasible

from conftest import make_realizations


class TestPathloss:
    def test_continuous_at_break(self):
        cfg = PathlossConfig()
        d = cfg.break_distance_m
        near = cfg.ref_loss_db_at_1m + 10 * cfg.exponent_near * math.log10(d)
        assert abs(pathloss_db(d, cfg) - near) < 1e-9
        # approaching from above converges to the same value
        assert abs(pathloss_db(d * (1 + 1e-12), cfg) - near) < 1e-6

    def test_monotone_in_distance(self):
        cfg = PathlossConfig()
        d = np.linspace(1.0, 1000.0, 2000)
        pl = pathloss_db(d, cfg)
        assert np.all(np.diff(pl) >= 0)

    def test_gain_at_break_matches_near_slope(self):
        # zero shadowing: the sampled gain formula reduces to pure path loss
        cfg = TopologyConfig(m=1, area_side_m=300.0, shadowing_sigma_db=0.0)
        large = sample_topology(cfg, 3)
        d = np.linalg.norm(large.tx_positions[0] - large.rx_positions[0])
        expected = 10 ** (-pathloss_db(d, cfg.pathloss) / 10)
        assert large.gains_linear[0, 0] == pytest.approx(expected, rel=1e-12)


class TestTopology:
    def test_variable_density_area(self):
        assert TopologyConfig(m=50, density_mode="variable").resolved_area_side_m() == 2000.0

    def test_fixed_density_area(self):
        side = TopologyConfig(m=80, density_mode="fixed").resolved_area_side_m()
        assert side == pytest.approx(math.sqrt(80 / 20) * 2000)

    @pytest.mark.parametrize("m", [20, 45, 80, 125])
    def test_fixed_density_is_five_users_per_km2(self, m):
        side = TopologyConfig(m=m, density_mode="fixed").resolved_area_side_m()
        assert m / (side / 1000.0) ** 2 == pytest.approx(5.0)

    def test_explicit_area_flags_nonstandard(self):
        assert TopologyConfig(m=50, area_side_m=900.0).nonstandard_area
        assert not TopologyConfig(m=50).nonstandard_area
        assert not TopologyConfig(m=50, area_side_m=2000.0).nonstandard_area

    def test_separation_and_annulus_respected(self):
        cfg = TopologyConfig(m=10, area_side_m=1200.0)
        large = sample_topology(cfg, 17)
        tx, rx = large.tx_positions, large.rx_positions
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(tx[i] - tx[j]) >= cfg.min_tx_separation_m
            r = np.linalg.norm(rx[i] - tx[i])
            assert cfg.rx_annulus_inner_m <= r <= cfg.rx_annulus_outer_m

    def test_deterministic_given_seed(self):
        cfg = TopologyConfig(m=8, area_side_m=900.0)
        a = sample_topology(cfg, 5)
        b = sample_topology(cfg, 5)
        assert np.array_equal(a.gains_linear, b.gains_linear)
        assert np.array_equal(a.tx_positions, b.tx_positions)
        c = sample_topology(cfg, 6)
        assert not np.array_equal(a.gains_linear, c.gains_linear)

    def test_all_gains_positive(self):
        large = sample_topology(TopologyConfig(m=12, area_side_m=1500.0), 2)
        assert np.all(large.gains_linear > 0)

    def test_placement_infeasible(self):
        cfg = TopologyConfig(m=30, area_side_m=120.0)
        with pytest.raises(PlacementInfeasible):
            sample_topology(cfg, 0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            TopologyConfig(m=4, rx_annulus_inner_m=60.0, rx_annulus_outer_m=50.0).validate()
        with pytest.raises(ConfigError):
            TopologyConfig(m=4, density_mode="bogus").validate()
        with pytest.raises(ConfigError):
            PathlossConfig(exponent_near=3.0, exponent_far=2.0).validate()


def realization(m, rho, seed, gain=1.0):
    """A realization with every large-scale gain equal to ``gain``, so its
    channels are sqrt(gain) times the fading coefficients."""
    large = LinkGainMatrix(
        gains_linear=np.full((m, m), gain), tx_positions=np.zeros((m, 2)),
        rx_positions=np.zeros((m, 2)),
    )
    return Realization(large=large, fading_seed=seed, rho=rho, topology_seed=0)


def complex_normal_at(seed, slot, m):
    """The CN(0, 1) draw of counter slot ``slot``: c_0 for slot 0, w_t for t,
    from a fresh generator advanced to the slot."""
    rng = np.random.Generator(np.random.Philox(key=seed).advance(slot << 64))
    re = rng.standard_normal((m, m))
    im = rng.standard_normal((m, m))
    return (re + 1j * im) / math.sqrt(2.0)


class TestFading:
    def test_rho_one_never_changes(self):
        ep = realization(4, 1.0, 9).episode(3)
        assert np.array_equal(ep[1], ep[0]) and np.array_equal(ep[2], ep[0])

    def test_rho_zero_is_full_innovation(self):
        # with rho = 0 each step is its own slot's innovation, whatever came before
        ep = realization(3, 0.0, 11).episode(3)
        for t in range(3):
            assert np.array_equal(ep[t], complex_normal_at(11, t, 3))

    def test_unit_mean_power(self):
        # 10^5 i.i.d. stationary draws
        c0 = realization(317, 0.956, 123).episode(1)[0]
        mean_power = np.mean(np.abs(c0) ** 2)
        assert 0.98 <= mean_power <= 1.02

    def test_lag1_autocorrelation_rho_zero(self):
        n = 100_000
        trace = realization(1, 0.0, 77).episode(n)[:, 0, 0]
        corr = np.mean(trace[1:] * np.conj(trace[:-1])).real
        assert abs(corr) < 0.02

    def test_lag1_autocorrelation_default_rho(self):
        n = 100_000
        rho = 0.956
        trace = realization(1, rho, 31).episode(n)[:, 0, 0]
        num = np.mean(trace[1:] * np.conj(trace[:-1])).real
        den = np.mean(np.abs(trace) ** 2)
        assert num / den == pytest.approx(rho, abs=0.01)

    def test_stationarity_after_thousand_steps(self):
        # 10^5 entries pooled over independent streams, stepped 1000 times
        total = 0.0
        count = 0
        for seed in range(10):
            c = realization(100, 0.956, 400 + seed).episode(1001)[-1]
            total += np.sum(np.abs(c) ** 2)
            count += c.size
        assert count == 100_000
        assert total / count == pytest.approx(1.0, abs=0.02)

    def test_trajectory_deterministic_and_replayable(self):
        once = realization(3, 0.956, 5).episode(3)
        again = realization(3, 0.956, 5).episode(2)
        assert np.array_equal(again, once[:2])
        assert not np.array_equal(once[1], once[0])

    def test_rho_validated(self):
        with pytest.raises(ConfigError):
            realization(2, 1.5, 0).episode(1)


class TestChannelAt:
    """The channel at step t is sqrt(large-scale gain) * fading coefficient."""

    def test_unit_everything(self):
        # unit gains leave the fading coefficients untouched
        ep = realization(2, 0.0, 4).episode(2)
        assert np.array_equal(ep[1], complex_normal_at(4, 1, 2))

    def test_scalar_arithmetic(self):
        four = realization(1, 0.956, 6, gain=4.0).episode(5)
        one = realization(1, 0.956, 6).episode(5)
        assert np.array_equal(four, 2.0 * one)

    def test_second_moment_matches_gain(self):
        m = 317  # 100489 > 10^5 samples in one draw
        h = realization(m, 0.956, 9, gain=4.0).episode(1)[0]
        assert np.mean(np.abs(h) ** 2) == pytest.approx(4.0, rel=0.02)


class TestRealizationIO:
    def test_roundtrip(self, tmp_path):
        (real,) = make_realizations(m=4, count=1, seed=42)
        path = tmp_path / "r.json"
        save_realization(path, real, config_echo={"m": 4})
        loaded = load_realization(path)
        assert np.array_equal(loaded.large.gains_linear, real.large.gains_linear)
        assert np.array_equal(loaded.large.tx_positions, real.large.tx_positions)
        assert loaded.fading_seed == real.fading_seed
        assert loaded.rho == real.rho
        # fading trajectory replays identically from the stored seed
        assert np.array_equal(loaded.episode(3), real.episode(3))

    def test_dict_shape_validation(self):
        (real,) = make_realizations(m=3, count=1, seed=1)
        d = realization_to_dict(real)
        d["m"] = 5
        with pytest.raises(DimensionMismatch):
            realization_from_dict(d)

    def test_episode_matches_manual_stepping(self):
        (real,) = make_realizations(m=3, count=1, seed=8)
        assert np.array_equal(real.episode(4), manual_episode(real, 4))


def manual_episode(real, n_steps):
    """The recurrence slot by slot: c_0 from slot 0, then w_t from slot t."""
    sqrt_gain = np.sqrt(real.large.gains_linear)
    c = complex_normal_at(real.fading_seed, 0, real.m)
    manual = [sqrt_gain * c]
    for t in range(1, n_steps):
        w = complex_normal_at(real.fading_seed, t, real.m)
        c = real.rho * c + math.sqrt(1.0 - real.rho**2) * w
        manual.append(sqrt_gain * c)
    return np.stack(manual)


class TestSynthesisBlocks:
    @settings(max_examples=40)
    @given(
        m=st.integers(1, 8),
        n_steps=st.integers(1, 40),
        rho=st.sampled_from([0.0, 0.956, 1.0]),
        split=st.sampled_from(["one", "two", "uneven", "whole"]),
        seed=st.integers(0, 2**16),
    )
    @example(m=1, n_steps=7, rho=0.0, split="two", seed=3)
    @example(m=1, n_steps=7, rho=1.0, split="uneven", seed=3)
    def test_blocks_match_slot_by_slot(self, m, n_steps, rho, split, seed):
        # the recurrence must carry c across every block edge unchanged
        (real,) = make_realizations(m=m, count=1, seed=seed, area=1000.0, rho=rho)
        # "uneven": a block longer than half the episode, then a shorter one
        n = {"one": 1, "two": 2, "uneven": n_steps // 2 + 1, "whole": n_steps}[split]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_BYTES", n * 16 * m * m)
            assert core.block_steps(16 * m * m) == n
            episode = real.episode(n_steps)
        assert np.array_equal(episode, manual_episode(real, n_steps))
