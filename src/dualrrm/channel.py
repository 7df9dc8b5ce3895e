"""Interference-channel simulation: topologies, large-scale gains, fading.

A network realization drops m transmitter-receiver pairs in a square area.
Large-scale link gains combine a dual-slope path loss with log-normal
shadowing and stay fixed for the lifetime of the realization.  Small-scale
Rayleigh fading evolves across time steps as a first-order Gauss-Markov
process.  The channel matrix at time t is

    h[i, j] = sqrt(G[i, j]) * c[i, j],

where G holds the large-scale power gains (transmitter i to receiver j,
linear scale) and c the unit-power complex fading coefficients at t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import atomic_open
from .core import block_steps
from .errors import ConfigError, DimensionMismatch, PlacementInfeasible
from .seeding import SlotGenerator, generator

_MAX_PLACEMENT_ROUNDS = 10_000

# Lag-1 correlation of the fading process.  Matches a Jakes-spectrum Doppler
# of about 6.67 Hz (1 m/s pedestrian at 2 GHz) sampled every 10 ms.
DEFAULT_FADING_RHO = 0.956


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
        """Channels for steps 0..n_steps-1 as a (T, m, m) complex array.

        The fading starts from the stationary law, c_0 ~ CN(0, 1), and
        follows c_t = rho * c_{t-1} + sqrt(1 - rho^2) * w_t with w_t ~ CN(0, 1)
        i.i.d., which keeps the unit-power law intact.  c_0 and w_t are read
        from counter slots 0 and t of the Philox stream keyed by
        ``fading_seed`` (the real parts, then the imaginary parts), so any
        episode replays from the seed alone.  The steps are synthesized in
        time blocks sized by ``core.block_steps``: the normal draws, the
        complex innovations and the sqrt(G) scaling take a few calls per
        block, and the recurrence one multiply-add per step.
        """
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho must lie in [0, 1]")
        m, slots = self.m, SlotGenerator(self.fading_seed)
        sqrt_gain = np.sqrt(self.large.gains_linear)
        innovation = math.sqrt(1.0 - self.rho**2)
        n_block = min(block_steps(16 * m * m), max(n_steps, 1))  # the (n, 2, m, m) draws
        planes = np.empty((n_block, 2, m, m))
        out = np.empty((n_steps, m, m), dtype=complex)
        for t0 in range(0, n_steps, n_block):
            n = min(n_block, n_steps - t0)
            for i in range(n):
                slots.at(t0 + i).standard_normal(out=planes[i])
            # c is built in the output, so no block-sized temporary is left
            c = np.multiply(1j, planes[:n, 1], out=out[t0 : t0 + n])
            c += planes[:n, 0]
            c /= math.sqrt(2.0)
            first = int(t0 == 0)  # c_0 is the first draw itself
            c[first:] *= innovation
            for i in range(first, n):
                c[i] += self.rho * (c[i - 1] if i else last)
            last = c[-1].copy()
            c *= sqrt_gain
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


def realization_from_dict(d) -> Realization:
    """A realization from its JSON object.  A missing or mistyped key, or a
    gain that is not positive and finite, raises ConfigError; gains or
    positions that disagree with m raise DimensionMismatch."""
    if not isinstance(d, dict):
        raise ConfigError("not a JSON object")
    for key, kinds in (("m", (int,)), ("topology_seed", (int,)), ("fading_seed", (int,)),
                       ("rho", (int, float))):
        if type(d.get(key)) not in kinds:
            raise ConfigError(f"{key} is missing or mistyped: {d.get(key)!r}")
    arrays = {}
    for key in ("gains_linear", "tx_positions", "rx_positions"):
        try:
            arrays[key] = np.array(d.get(key))
        except ValueError as exc:  # ragged nesting
            raise ConfigError(f"{key}: {exc}") from None
        if arrays[key].dtype.kind not in "iuf":
            raise ConfigError(f"{key} must be an array of numbers")
    m, shapes = d["m"], [a.shape for a in arrays.values()]
    if shapes != [(m, m), (m, 2), (m, 2)]:
        raise DimensionMismatch(f"array shapes {shapes} do not match m={m}")
    gains = arrays["gains_linear"]
    if not np.all((gains > 0) & np.isfinite(gains)):
        raise ConfigError("gains_linear must be positive and finite")
    large = LinkGainMatrix(**{k: a.astype(float) for k, a in arrays.items()})
    return Realization(large, d["fading_seed"], float(d["rho"]), d["topology_seed"])


def save_realization(path, r: Realization, config_echo: dict | None = None) -> None:
    with atomic_open(path) as f:
        json.dump(realization_to_dict(r, config_echo), f, sort_keys=True)


def load_realization(path) -> Realization:
    """Read a realization; malformed content of any kind raises ConfigError."""
    try:
        with open(path) as f:
            return realization_from_dict(json.load(f))
    except (ValueError, ConfigError, DimensionMismatch) as exc:  # ValueError: bad JSON
        raise ConfigError(f"realization {path}: {exc}") from None
