"""Problem arithmetic: per-user rates, utility, constraints, Lagrangian, metrics.

Everything works in linear power units (milliwatts, matching the dBm config
boundary) and double precision, over any leading (batch, time) axes.
Interference denominators are reduced by ``sorted_sum``: each receiver's
terms are sorted ascending and then summed in one fixed pairwise order.  The
sorted sequence depends only on the set of terms, not on how the users are
numbered, so rates are bit-exactly equivariant under any relabeling, and a
batched call equals the per-step calls bit for bit.  For the nonnegative
terms summed here the result stays within about 5e-16 relative of the
correctly rounded sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NegativeDual


@dataclass(frozen=True)
class RrmProblemConfig:
    m: int
    p_max_dbm: float = 10.0
    noise_dbm: float = -104.0
    f_min_bps_hz: float = 0.6

    @property
    def p_max(self) -> float:
        """Maximum transmit power, linear mW."""
        return 10.0 ** (self.p_max_dbm / 10.0)

    @property
    def noise(self) -> float:
        """Noise power, linear mW."""
        return 10.0 ** (self.noise_dbm / 10.0)


@dataclass(frozen=True)
class MetricsSummary:
    mean_rate: float
    min_rate_trimmed: float
    p5_rate: float
    feasibility_fraction: float
    n_users: int


def _check_shapes(abs_h2: np.ndarray, p: np.ndarray, m: int) -> None:
    if abs_h2.shape[-2:] != (m, m) or p.shape[-1] != m:
        raise DimensionMismatch(
            f"channel {abs_h2.shape} / power {p.shape} inconsistent with m={m}"
        )


def sorted_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis that does not depend on the order of the terms.

    Each row is sorted ascending into a C-contiguous copy, so numpy reduces
    every row by the same pairwise rule whatever the leading shape.
    """
    rows = x.copy(order="C")
    rows.sort(axis=-1)
    return rows.sum(axis=-1)


def interference_denominators(abs_h2: np.ndarray, p: np.ndarray, noise: float) -> np.ndarray:
    """Noise-plus-interference at each receiver, over any leading axes.

    D[..., i] = noise + sum_{j != i} p[..., j] * abs_h2[..., j, i], reduced
    by ``sorted_sum`` so the result does not depend on user ordering.
    """
    # (..., i, j): power of tx j at rx i; the own signal's slot holds the noise
    terms = np.multiply(abs_h2.swapaxes(-1, -2), p[..., None, :], order="C")
    diag = np.arange(p.shape[-1])
    terms[..., diag, diag] = noise
    return sorted_sum(terms)


def rates_from_gain2(abs_h2: np.ndarray, p: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Per-user rates from squared channel magnitudes (see ``rates``), over
    any leading axes shared by ``abs_h2`` (..., m, m) and ``p`` (..., m)."""
    _check_shapes(abs_h2, p, cfg.m)
    signal = p * abs_h2.diagonal(0, -2, -1)
    denom = interference_denominators(abs_h2, p, cfg.noise)
    return np.log2(1.0 + signal / denom)


def rates(h: np.ndarray, p: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Rates when every receiver decodes treating interference as noise.

    f_i = log2(1 + p_i |h_ii|^2 / (N + sum_{j != i} p_j |h_ji|^2))
    """
    return rates_from_gain2(np.abs(h) ** 2, p, cfg)


def constraints_g(avg_f: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Constraint slacks g_i = avg_f_i - f_min (feasible when >= 0)."""
    return np.asarray(avg_f, dtype=float) - cfg.f_min_bps_hz


def utility_sum(avg_f: np.ndarray) -> float:
    """Network utility: the sum of the per-user ergodic rates."""
    return float(np.sum(avg_f))


def lagrangian(avg_f: np.ndarray, mu: np.ndarray, cfg: RrmProblemConfig) -> float:
    """U(avg_f) + mu . g(avg_f)."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise NegativeDual("dual variables must be nonnegative")
    if mu.shape[-1] != cfg.m:
        raise DimensionMismatch(f"mu shape {mu.shape} inconsistent with m={cfg.m}")
    return utility_sum(avg_f) + float(mu @ constraints_g(avg_f, cfg))


def lagrangian_rate_weights(mu: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Gradient of the Lagrangian in the ergodic rates: 1 + mu."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise NegativeDual("dual variables must be nonnegative")
    return 1.0 + mu


def metrics(
    pooled_rates: np.ndarray,
    cfg: RrmProblemConfig,
    feasibility_tolerance: float = 0.0,
) -> MetricsSummary:
    """Summary statistics over user ergodic rates pooled across a test set.

    The trimmed minimum discards the lowest ceil(0.01 * n) values as
    outliers; the 5th percentile interpolates linearly between order
    statistics; feasibility counts rates >= f_min - feasibility_tolerance.
    """
    values = np.asarray(pooled_rates, dtype=float).ravel()
    n = values.size
    if n == 0:
        raise EmptyInput("metrics need at least one rate")
    ordered = np.sort(values)
    n_trim = math.ceil(0.01 * n)
    trimmed = ordered[n_trim:] if n_trim < n else ordered[-1:]
    threshold = cfg.f_min_bps_hz - feasibility_tolerance
    return MetricsSummary(
        mean_rate=float(np.mean(values)),
        min_rate_trimmed=float(trimmed[0]),
        p5_rate=float(np.percentile(values, 5)),
        feasibility_fraction=float(np.mean(values >= threshold)),
        n_users=n,
    )
