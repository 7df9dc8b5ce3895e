import json
import math
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dualrrm
from dualrrm import channel, core
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
from dualrrm.seeding import SlotGenerator

from conftest import force_cpus, make_realizations


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
    episode is ``gain`` times the fading powers |c|^2."""
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


class TestSlotGenerator:
    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    @pytest.mark.parametrize("slot", [0, 1, 7, 2**63, 2**64 - 1])
    def test_at_restarts_a_part_consumed_slot(self, seed, slot):
        # an odd count of normals, then one uint32, leaves the generator
        # mid-buffer with a half-used 64-bit word; at() must clear both
        slots = SlotGenerator(seed)
        used = slots.at(3)
        used.standard_normal(5)
        used.integers(0, 2**32, dtype=np.uint32)
        assert used.bit_generator.state["has_uint32"] == 1
        got = slots.at(slot).bit_generator.state
        want = np.random.Philox(key=seed).advance(slot << 64).state
        for part in ("counter", "key"):
            assert np.array_equal(got["state"][part], want["state"][part])
        assert np.array_equal(got["buffer"], want["buffer"])
        for key in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[key] == want[key]
        ref = np.random.Generator(np.random.Philox(key=seed).advance(slot << 64))
        assert np.array_equal(slots.at(slot).standard_normal(7), ref.standard_normal(7))


def lag1_correlation(x):
    return np.corrcoef(x[1:], x[:-1])[0, 1]


class TestFading:
    def test_rho_one_never_changes(self):
        ep = realization(4, 1.0, 9).episode(3)
        assert np.array_equal(ep[1], ep[0]) and np.array_equal(ep[2], ep[0])

    def test_rho_zero_is_full_innovation(self):
        # with rho = 0 each step is its own slot's innovation, whatever came before
        ep = realization(3, 0.0, 11).episode(3)
        for t in range(3):
            assert np.array_equal(ep[t], np.abs(complex_normal_at(11, t, 3)) ** 2)

    def test_unit_mean_power(self):
        # 10^5 i.i.d. stationary draws
        mean_power = np.mean(realization(317, 0.956, 123).episode(1)[0])
        assert 0.98 <= mean_power <= 1.02

    # The powers of a complex Gauss-Markov process have lag-1 correlation
    # rho^2.  Over 10^5 steps its estimate has a standard error of about
    # 0.0034 at rho = 0 and 0.0022 at rho = 0.956 (400 simulated runs each),
    # so both bounds sit 6-9 standard errors out.

    def test_lag1_autocorrelation_rho_zero(self):
        n = 100_000
        power = realization(1, 0.0, 77).episode(n)[:, 0, 0]
        assert abs(lag1_correlation(power)) < 0.02

    def test_lag1_autocorrelation_default_rho(self):
        n = 100_000
        rho = 0.956
        power = realization(1, rho, 31).episode(n)[:, 0, 0]
        assert lag1_correlation(power) == pytest.approx(rho**2, abs=0.02)

    def test_stationarity_after_two_hundred_steps(self):
        # 10^5 entries pooled over independent streams, stepped 200 times; a
        # recurrence with a wrong stationary power leaves the unit power
        # like rho^(2t), so by step 200 all but 1.5e-8 of the gap shows
        total = 0.0
        count = 0
        for seed in range(10):
            power = realization(100, 0.956, 400 + seed).episode(201)[-1]
            total += np.sum(power)
            count += power.size
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
    """The gain at step t is |sqrt(large-scale gain) * fading coefficient|^2."""

    def test_unit_everything(self):
        # unit gains leave the fading powers untouched
        ep = realization(2, 0.0, 4).episode(2)
        assert np.array_equal(ep[1], np.abs(complex_normal_at(4, 1, 2)) ** 2)

    def test_scalar_arithmetic(self):
        four = realization(1, 0.956, 6, gain=4.0).episode(5)
        one = realization(1, 0.956, 6).episode(5)
        assert np.array_equal(four, 4.0 * one)

    def test_second_moment_matches_gain(self):
        m = 317  # 100489 > 10^5 samples in one draw
        gain = realization(m, 0.956, 9, gain=4.0).episode(1)[0]
        assert np.mean(gain) == pytest.approx(4.0, rel=0.02)


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

    def test_rho_outside_unit_interval_refused(self, tmp_path):
        (real,) = make_realizations(m=2, count=1, seed=3, rho=1.5)
        save_realization(tmp_path / "r.json", real)
        with pytest.raises(ConfigError, match="rho"):
            load_realization(tmp_path / "r.json")

    @pytest.mark.parametrize("key", ["fading_seed", "topology_seed"])
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range_refused(self, tmp_path, key, seed):
        # the edges of [0, 2**128) still load, and replay their fading
        (real,) = make_realizations(m=2, count=1, seed=3)
        d = realization_to_dict(real)
        for edge in (0, 2**128 - 1):
            assert realization_from_dict({**d, key: edge}).episode(2).shape == (2, 2, 2)
        d[key] = seed
        (tmp_path / "r.json").write_text(json.dumps(d))
        with pytest.raises(ConfigError, match=key):
            load_realization(tmp_path / "r.json")

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
    """The complex recurrence slot by slot, c_0 from slot 0 and then w_t from
    slot t, squared at each step into |sqrt(G) c_t|^2."""
    sqrt_gain = np.sqrt(real.large.gains_linear)
    c = complex_normal_at(real.fading_seed, 0, real.m)
    manual = [sqrt_gain * c]
    for t in range(1, n_steps):
        w = complex_normal_at(real.fading_seed, t, real.m)
        c = real.rho * c + math.sqrt(1.0 - real.rho**2) * w
        manual.append(sqrt_gain * c)
    return np.abs(np.stack(manual)) ** 2


class TestSynthesisBlocks:
    @settings(max_examples=40)
    @given(
        m=st.integers(1, 8),
        n_steps=st.integers(1, 40),
        rho=st.sampled_from([0.0, 0.956, 1.0]),
        split=st.sampled_from(["one", "two", "uneven", "whole"]),
        cpus=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    @example(m=1, n_steps=7, rho=0.0, split="two", cpus=1, seed=3)
    @example(m=1, n_steps=7, rho=1.0, split="uneven", cpus=2, seed=3)
    @example(m=2, n_steps=9, rho=0.956, split="two", cpus=3, seed=5)  # 4 blocks of 2, then 1
    @example(m=3, n_steps=1, rho=0.956, split="one", cpus=3, seed=4)  # T=1: one block, no thread
    def test_blocks_match_slot_by_slot(self, m, n_steps, rho, split, cpus, seed):
        # the recurrence must carry c across every block edge unchanged,
        # whichever thread drew the block
        (real,) = make_realizations(m=m, count=1, seed=seed, area=1000.0, rho=rho)
        # "uneven": a block longer than half the episode, then a shorter one
        n = {"one": 1, "two": 2, "uneven": n_steps // 2 + 1, "whole": n_steps}[split]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_BYTES", n * 16 * m * m)
            assert core.block_steps(16 * m * m) == n
            force_cpus(mp, cpus)
            assert dualrrm.parallel_slots() == cpus
            episode = real.episode(n_steps)
        assert np.array_equal(episode, manual_episode(real, n_steps))

    @pytest.mark.parametrize("rho", [0.0, 0.956, 1.0])
    def test_paper_scale_blocks_match_slot_by_slot(self, rho, monkeypatch):
        # m=50, T=27: two natural 13-step blocks, then a 1-step tail, on one
        # thread and on threads of two and three slots
        (real,) = make_realizations(m=50, count=1, seed=61, area=2000.0, rho=rho)
        assert core.block_steps(16 * 50 * 50) == 13
        manual = manual_episode(real, 27)
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            assert np.array_equal(real.episode(27), manual), cpus

    @pytest.mark.parametrize("slow_block", [0, 3])
    def test_a_slow_block_holds_back_the_later_ones(self, monkeypatch, slow_block):
        # more threads than cores and a thread switch every microsecond; one
        # block's draws stall, so the threads holding the later blocks reach
        # their recurrence first and must wait for its last c
        (real,) = make_realizations(m=4, count=1, seed=9, area=1000.0)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * 16 * 4 * 4)  # two steps a block
        manual = manual_episode(real, 16)
        at = SlotGenerator.at

        def slow(self, slot):
            if slot == 2 * slow_block:
                time.sleep(0.05)
            return at(self, slot)

        monkeypatch.setattr(SlotGenerator, "at", slow)
        force_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert np.array_equal(real.episode(16), manual)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_only_for_several_blocks(self, monkeypatch):
        # this thread and at most one more per further block, none for one
        # block or in a pool worker, and every thread gone when the call returns
        submitted = []  # the workers each call hands its pool

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kw):
                submitted.append(0)
                super().__init__(*args, **kw)

            def submit(self, *args, **kw):
                submitted[-1] += 1
                return super().submit(*args, **kw)

        monkeypatch.setattr(channel, "ThreadPoolExecutor", RecordingPool)
        (real,) = make_realizations(m=6, count=1, seed=2)
        n_block = core.block_steps(16 * 6 * 6)
        before = threading.active_count()
        force_cpus(monkeypatch, 2)
        one = real.episode(n_block)
        assert submitted == [0]
        several = real.episode(2 * n_block + 1)
        assert submitted == [0, 1]
        force_cpus(monkeypatch, 3)
        assert np.array_equal(real.episode(n_block + 1), several[: n_block + 1])
        assert np.array_equal(real.episode(2 * n_block + 1), several)
        assert submitted == [0, 1, 1, 2]
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())  # a pool worker
        assert np.array_equal(real.episode(2 * n_block + 1), several)
        assert submitted == [0, 1, 1, 2, 0]
        assert threading.active_count() == before
        assert np.array_equal(several[:n_block], one)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("failing_block", [0, 1, 2])
    def test_a_failing_block_raises_its_error(self, monkeypatch, cpus, failing_block):
        # the blocks after it stop, whichever thread holds them, and none waits forever
        (real,) = make_realizations(m=6, count=1, seed=2)
        n_block = core.block_steps(16 * 6 * 6)
        at = SlotGenerator.at

        def failing(self, slot):
            if slot == failing_block * n_block + 1:
                raise RuntimeError("slot unavailable")
            return at(self, slot)

        monkeypatch.setattr(SlotGenerator, "at", failing)
        force_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="slot unavailable"):
            real.episode(3 * n_block)
        assert threading.active_count() == before
