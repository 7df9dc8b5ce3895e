"""Interference-channel simulation: topologies, large-scale gains, fading.

A network realization drops m transmitter-receiver pairs in a square area.
Large-scale link gains combine a dual-slope path loss with log-normal
shadowing and stay fixed for the lifetime of the realization.  Small-scale
Rayleigh fading evolves across time steps as a first-order Gauss-Markov
process.  The channel matrix at time t is

    h[i, j] = sqrt(G[i, j]) * c[i, j],

where G holds the large-scale power gains (transmitter i to receiver j,
linear scale) and c the unit-power complex fading coefficients at t.  Every
consumer reads only the gains |h|^2 = G |c|^2, so an episode is synthesized
straight into them: the recurrence runs on the real and imaginary parts of
c as two real planes, and only sqrt(G) c is complex, for one |.| per time
block.  The complex coefficients never leave this module.

Every time step's draws sit in their own counter slot of the fading stream,
so the time blocks of an episode can be drawn apart: synthesis is the third
stage that ``dualrrm.parallel_slots()`` sizes, after training's batch split
and the evaluation pool.  An episode's blocks run on up to that many
threads, at most one per block, and only the fading recurrence passes from
block to block, in block order, through one future per block that holds
the block's last coefficients or its error.  One code path serves any
slot count: an episode of one block starts no thread, and an evaluation
pool worker, being one slot, never starts one.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel_slots
from .artifacts import atomic_open, is_int, load_json, number_array
from .core import block_steps
from .errors import ConfigError, PlacementInfeasible
from .seeding import SlotGenerator, generator

_MAX_PLACEMENT_ROUNDS = 10_000

# Lag-1 correlation of the fading process.  Matches a Jakes-spectrum Doppler
# of about 6.67 Hz (1 m/s pedestrian at 2 GHz) sampled every 10 ms.
DEFAULT_FADING_RHO = 0.956

# Largest large-scale gain a realization file may hold: |h|^2 = G |c|^2 stays
# finite unless the fading power |c|^2 exceeds about 1e8, which it never does.
MAX_GAIN = 1e300


@dataclass(frozen=True)
class PathlossConfig:
    """Dual-slope path loss: exponent breaks at ``break_distance_m``.

    PL(d) = ref + 10 * a1 * log10(d)                     for d <= d_b
    PL(d) = PL(d_b) + 10 * a2 * log10(d / d_b)           for d >  d_b

    which is continuous at d_b by construction.
    """

    ref_loss_db_at_1m: float = 40.0
    exponent_near: float = 2.0
    exponent_far: float = 4.0
    break_distance_m: float = 100.0

    def validate(self) -> None:
        if not (self.exponent_far >= self.exponent_near > 0):
            raise ConfigError("need exponent_far >= exponent_near > 0")
        if self.break_distance_m <= 0:
            raise ConfigError("break_distance_m must be positive")


@dataclass(frozen=True)
class TopologyConfig:
    m: int = 50
    density_mode: str = "variable"  # "fixed" | "variable"
    area_side_m: float | None = None  # derived from density_mode when None
    min_tx_separation_m: float = 75.0
    rx_annulus_inner_m: float = 10.0
    rx_annulus_outer_m: float = 50.0
    shadowing_sigma_db: float = 7.0
    pathloss: PathlossConfig = field(default_factory=PathlossConfig)

    def validate(self) -> None:
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.density_mode not in ("fixed", "variable"):
            raise ConfigError(f"unknown density_mode {self.density_mode!r}")
        if not (0 < self.rx_annulus_inner_m < self.rx_annulus_outer_m):
            raise ConfigError("need 0 < rx_annulus_inner_m < rx_annulus_outer_m")
        if self.min_tx_separation_m < 0 or self.shadowing_sigma_db < 0:
            raise ConfigError("separations and sigmas must be nonnegative")
        if self.area_side_m is not None and self.area_side_m <= 0:
            raise ConfigError("area_side_m must be positive when given")
        self.pathloss.validate()

    def resolved_area_side_m(self) -> float:
        """Area side in meters; fixed density keeps m per km^2 constant."""
        if self.area_side_m is not None:
            return self.area_side_m
        if self.density_mode == "fixed":
            return math.sqrt(self.m / 20.0) * 2000.0
        return 2000.0

    @property
    def nonstandard_area(self) -> bool:
        """True when an explicit area overrides the density-mode rule."""
        return (
            self.area_side_m is not None
            and self.area_side_m != replace(self, area_side_m=None).resolved_area_side_m()
        )


@dataclass
class LinkGainMatrix:
    """Large-scale power gains and the node positions that produced them."""

    gains_linear: np.ndarray  # (m, m), entry (i, j): tx i -> rx j
    tx_positions: np.ndarray  # (m, 2) meters
    rx_positions: np.ndarray  # (m, 2) meters

    @property
    def m(self) -> int:
        return self.gains_linear.shape[0]


def pathloss_db(distance_m: np.ndarray | float, cfg: PathlossConfig) -> np.ndarray:
    """Dual-slope path loss in dB at the given distances (meters)."""
    d = np.asarray(distance_m, dtype=float)
    near = cfg.ref_loss_db_at_1m + 10.0 * cfg.exponent_near * np.log10(d)
    at_break = cfg.ref_loss_db_at_1m + 10.0 * cfg.exponent_near * np.log10(
        cfg.break_distance_m
    )
    far = at_break + 10.0 * cfg.exponent_far * np.log10(d / cfg.break_distance_m)
    return np.where(d <= cfg.break_distance_m, near, far)


def _place_transmitters(cfg: TopologyConfig, rng: np.random.Generator) -> np.ndarray:
    side = cfg.resolved_area_side_m()
    sep2 = cfg.min_tx_separation_m**2
    positions = np.empty((cfg.m, 2))
    rounds = 0
    for i in range(cfg.m):
        while True:
            cand = rng.uniform(0.0, side, size=2)
            d2 = np.sum((positions[:i] - cand) ** 2, axis=1)
            if i == 0 or np.all(d2 >= sep2):
                positions[i] = cand
                break
            rounds += 1
            if rounds >= _MAX_PLACEMENT_ROUNDS:
                raise PlacementInfeasible(
                    f"could not place {cfg.m} transmitters with "
                    f"{cfg.min_tx_separation_m} m separation in a "
                    f"{side:.0f} m square after {rounds} rejections"
                )
    return positions


def _place_receivers(cfg: TopologyConfig, tx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Uniform over the annulus area: radius from the sqrt of a uniform r^2.
    r = np.sqrt(
        rng.uniform(cfg.rx_annulus_inner_m**2, cfg.rx_annulus_outer_m**2, size=cfg.m)
    )
    theta = rng.uniform(0.0, 2.0 * math.pi, size=cfg.m)
    return tx + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def sample_topology(cfg: TopologyConfig, seed: int) -> LinkGainMatrix:
    """Draw node positions and large-scale gains for one realization.

    Gain (i, j) is 10**(-(PL(d_ij) + S_ij) / 10) with d_ij the distance from
    transmitter i to receiver j and S_ij per-link Gaussian shadowing in dB.
    Deterministic given (cfg, seed).
    """
    cfg.validate()
    rng = generator(seed)
    tx = _place_transmitters(cfg, rng)
    rx = _place_receivers(cfg, tx, rng)
    dist = np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=-1)
    shadowing = cfg.shadowing_sigma_db * rng.standard_normal((cfg.m, cfg.m))
    loss_db = pathloss_db(dist, cfg.pathloss) + shadowing
    return LinkGainMatrix(
        gains_linear=10.0 ** (-loss_db / 10.0), tx_positions=tx, rx_positions=rx
    )


@dataclass
class Realization:
    """One cached network sample: large-scale part plus fading stream seed."""

    large: LinkGainMatrix
    fading_seed: int
    rho: float
    topology_seed: int

    @property
    def m(self) -> int:
        return self.large.m

    def episode(self, n_steps: int) -> np.ndarray:
        """Gains |h_t|^2 = G |c_t|^2 for steps 0..n_steps-1, (T, m, m) float64.

        The fading starts from the stationary law, c_0 ~ CN(0, 1), and
        follows c_t = rho * c_{t-1} + sqrt(1 - rho^2) * w_t with w_t ~ CN(0, 1)
        i.i.d., which keeps the unit-power law intact.  c_0 and w_t are read
        from counter slots 0 and t of the Philox stream keyed by
        ``fading_seed`` (the real parts, then the imaginary parts), so any
        episode replays from the seed alone.  The steps are synthesized in
        time blocks sized by ``core.block_steps``.  The recurrence runs in
        place on the real and imaginary planes of each block's draws, with
        the products and sums that complex arithmetic would take, bit for
        bit: the scalings take a few calls per block and the recurrence one
        multiply-add per step.  sqrt(G) times each plane fills one complex
        buffer, and one complex |.| per block, squared, gives the gains.

        The blocks run on up to ``parallel_slots()`` threads, this one
        included, at most one per block, the rule of training's batch
        split.  Each thread, with its own ``SlotGenerator`` and buffers,
        takes the next block in order, draws and scales its slots, and runs
        its recurrence once the previous block's future yields that block's
        last c, so the recurrence still runs in block order and no bit
        depends on the threads.  A block that raises sets the error on its
        own future instead, so every later block raises it too rather than
        wait.  The pool starts a thread only for each further slot it is
        given work for: an episode of one block, and any episode in an
        evaluation pool worker, which is one slot, starts no thread; the
        threads end before the call returns.
        """
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho must lie in [0, 1]")
        m, rho = self.m, self.rho
        sqrt_gain = np.sqrt(self.large.gains_linear)
        innovation = math.sqrt(1.0 - rho**2)
        # 16 m^2 bytes a step: the two float64 planes of one step's draws
        n_block = min(block_steps(16 * m * m), max(n_steps, 1))
        starts = range(0, n_steps, n_block)
        out = np.empty((n_steps, m, m))
        ends = [Future() for _ in starts]  # c at the last step of each block, or its error
        blocks = iter(enumerate(starts))  # handed out in order, each to one thread

        def synthesize() -> None:
            slots = SlotGenerator(self.fading_seed)
            planes = np.empty((n_block, 2, m, m))
            coeffs = np.empty((n_block, m, m), dtype=complex)
            for k, t0 in blocks:
                n = min(n_block, n_steps - t0)
                c, h = planes[:n], coeffs[:n]
                try:
                    for i in range(n):
                        slots.at(t0 + i).standard_normal(out=c[i])
                    c *= 1.0 / math.sqrt(2.0)  # the bits of numpy's complex division by a real
                    first = int(t0 == 0)  # c_0 is the first draw itself
                    c[first:] *= innovation
                    for i in range(first, n):  # block k > 0 waits for its carry, or its error
                        c[i] += rho * (c[i - 1] if i else ends[k - 1].result())
                except BaseException as exc:
                    ends[k].set_exception(exc)  # so that no later block waits forever
                    raise
                ends[k].set_result(c[-1].copy())
                np.multiply(c[:, 0], sqrt_gain, out=h.real)
                np.multiply(c[:, 1], sqrt_gain, out=h.imag)
                gain = np.abs(h, out=out[t0 : t0 + n])
                gain **= 2

        threads = min(parallel_slots(), len(starts))
        with ThreadPoolExecutor(max(1, threads - 1)) as pool:  # starts a thread per submit only
            rest = [pool.submit(synthesize) for _ in range(threads - 1)]
            synthesize()
            for done in rest:
                done.result()
        return out


def realization_to_dict(r: Realization, config_echo: dict | None = None) -> dict:
    d = {
        "m": r.m,
        "topology_seed": r.topology_seed,
        "fading_seed": r.fading_seed,
        "rho": r.rho,
        "tx_positions": r.large.tx_positions.tolist(),
        "rx_positions": r.large.rx_positions.tolist(),
        "gains_linear": r.large.gains_linear.tolist(),
    }
    if config_echo is not None:
        d["config_echo"] = config_echo
    return d


def realization_from_dict(d: dict) -> Realization:
    """A realization from its JSON object.  A missing or mistyped key, a seed
    outside Philox's key range [0, 2**128), a rho outside [0, 1], a
    non-finite array entry or a gain that is not positive or above
    ``MAX_GAIN`` raises ConfigError; gains or positions that disagree with m
    raise DimensionMismatch."""
    if not is_int(d.get("m")):
        raise ConfigError(f"m is missing or mistyped: {d.get('m')!r}")
    for key in ("topology_seed", "fading_seed"):
        if not (is_int(d.get(key)) and 0 <= d[key] < 2**128):  # Philox's key range
            raise ConfigError(f"{key} must be an integer in [0, 2**128), not {d.get(key)!r}")
    rho, m = d.get("rho"), d["m"]
    if not (type(rho) in (int, float) and 0.0 <= rho <= 1.0):
        raise ConfigError(f"rho must be a number in [0, 1], not {rho!r}")
    large = LinkGainMatrix(
        gains_linear=number_array("gains_linear", d.get("gains_linear"), (m, m)),
        tx_positions=number_array("tx_positions", d.get("tx_positions"), (m, 2)),
        rx_positions=number_array("rx_positions", d.get("rx_positions"), (m, 2)),
    )
    if not np.all((large.gains_linear > 0) & (large.gains_linear <= MAX_GAIN)):
        raise ConfigError(f"gains_linear must be positive and at most {MAX_GAIN:g}")
    return Realization(large, d["fading_seed"], float(rho), d["topology_seed"])


def save_realization(path, r: Realization, config_echo: dict | None = None) -> None:
    with atomic_open(path) as f:
        json.dump(realization_to_dict(r, config_echo), f, sort_keys=True)


def load_realization(path) -> Realization:
    """Read a realization with ``artifacts.load_json``; malformed content raises ConfigError."""
    return load_json(path, "realization", realization_from_dict)
