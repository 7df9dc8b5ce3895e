"""Problem arithmetic: per-user rates and their power gradient, utility,
constraints, Lagrangian, metrics.

Everything works in linear power units (milliwatts, matching the dBm config
boundary), over any leading (batch, time) axes.  Powers, rates, gradients
and every sum are double precision; the gains may be float32, as training
caches them, and are widened exactly where they meet the powers.
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


# Byte budget of the largest per-step temporaries of one block, shared by
# channel synthesis, online execution and the training gradient, whose blocks
# take as many whole episodes as fit.  Blocks of 10-25 steps at paper shape
# keep the working set in cache, which made the episode gradient 30-40% faster
# than one call over all T steps; one-step blocks are slower again, as numpy
# call overhead then dominates, so the budget must not shrink toward one step.
_BLOCK_BYTES = 512 * 1024


def block_steps(step_bytes: int, unit: int = 1) -> int:
    """Steps per time block: the most whole units of ``unit`` steps whose
    temporaries, ``step_bytes`` per step, fit the budget; at least one unit."""
    return unit * max(1, _BLOCK_BYTES // (step_bytes * unit))


def sorted_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis that does not depend on the order of the terms.

    ``x`` must be C-contiguous and is sorted in place, each row ascending,
    so numpy reduces every row by the same pairwise rule whatever the
    leading shape; callers hand over a temporary they no longer read.
    """
    x.sort(axis=-1)
    return x.sum(axis=-1)


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


_LN2 = float(np.log(2.0))


def _rate_terms(
    abs_h2: np.ndarray, p: np.ndarray, cfg: RrmProblemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal p_i |h_ii|^2, noise-plus-interference and rate of every user."""
    if abs_h2.shape[-2:] != (cfg.m, cfg.m) or p.shape[-1] != cfg.m:
        raise DimensionMismatch(
            f"channel {abs_h2.shape} / power {p.shape} inconsistent with m={cfg.m}"
        )
    signal = p * abs_h2.diagonal(0, -2, -1)
    denom = interference_denominators(abs_h2, p, cfg.noise)
    return signal, denom, np.log2(1.0 + signal / denom)


def rates(abs_h2: np.ndarray, p: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Rates when every receiver decodes treating interference as noise,
    from the squared channel magnitudes ``abs_h2`` (..., m, m) and the
    powers ``p`` (..., m), over any shared leading axes.

    f_i = log2(1 + p_i |h_ii|^2 / (N + sum_{j != i} p_j |h_ji|^2))
    """
    return _rate_terms(abs_h2, p, cfg)[2]


def rates_and_gradient(
    abs_h2: np.ndarray, p: np.ndarray, weights: np.ndarray, cfg: RrmProblemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The ``rates`` and d(sum_i weights_i f_i)/dp, over any leading axes of
    ``abs_h2`` (..., m, m) and ``p`` (..., m); ``weights`` broadcasts."""
    signal, denom, f = _rate_terms(abs_h2, p, cfg)
    total = denom + signal
    beta = weights / (_LN2 * total)
    gamma = weights * signal / (_LN2 * denom * total)
    # dL/dp_j = beta_j |h_jj|^2 - sum_{i != j} abs_h2[j, i] gamma_i, reduced
    # by the same order-invariant sum as the denominators
    cross = np.multiply(abs_h2, gamma[..., None, :], order="C")
    diag = np.arange(p.shape[-1])
    cross[..., diag, diag] = 0.0
    return f, beta * abs_h2.diagonal(0, -2, -1) - sorted_sum(cross)


def full_power_inr(abs_h2: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """P_max |h|^2 / N of every link, in one new array: the INR of
    transmitter i at receiver j at full power, with the SNRs on the
    diagonal."""
    inr = np.multiply(abs_h2, cfg.p_max)
    inr /= cfg.noise
    return inr


def constraints_g(avg_f: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Constraint slacks g_i = avg_f_i - f_min (feasible when >= 0)."""
    return np.asarray(avg_f, dtype=float) - cfg.f_min_bps_hz


def utility_sum(avg_f: np.ndarray) -> float:
    """Network utility: the sum of the per-user ergodic rates."""
    return float(np.sum(avg_f))


def checked_duals(mu) -> np.ndarray:
    """``mu`` as a float array; NegativeDual unless every entry is finite
    and nonnegative (a NaN fails both comparisons)."""
    mu = np.asarray(mu, dtype=float)
    if not ((mu >= 0.0) & (mu < np.inf)).all():
        raise NegativeDual("dual variables must be finite and nonnegative")
    return mu


def lagrangian(avg_f: np.ndarray, mu: np.ndarray, cfg: RrmProblemConfig) -> float:
    """U(avg_f) + mu . g(avg_f)."""
    mu = checked_duals(mu)
    if mu.shape[-1] != cfg.m:
        raise DimensionMismatch(f"mu shape {mu.shape} inconsistent with m={cfg.m}")
    return utility_sum(avg_f) + float(mu @ constraints_g(avg_f, cfg))


def lagrangian_rate_weights(mu: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Gradient of the Lagrangian in the ergodic rates: 1 + mu."""
    return 1.0 + checked_duals(mu)


def metrics(pooled_rates: np.ndarray, cfg: RrmProblemConfig) -> MetricsSummary:
    """Summary statistics over user ergodic rates pooled across a test set.

    The trimmed minimum discards the lowest ceil(0.01 * n) values as
    outliers; the 5th percentile interpolates linearly between order
    statistics; feasibility counts rates >= f_min.
    """
    values = np.asarray(pooled_rates, dtype=float).ravel()
    n = values.size
    if n == 0:
        raise EmptyInput("metrics need at least one rate")
    ordered = np.sort(values)
    n_trim = math.ceil(0.01 * n)
    trimmed = ordered[n_trim:] if n_trim < n else ordered[-1:]
    return MetricsSummary(
        mean_rate=float(np.mean(values)),
        min_rate_trimmed=float(trimmed[0]),
        p5_rate=float(np.percentile(values, 5)),
        feasibility_fraction=float(np.mean(values >= cfg.f_min_bps_hz)),
        n_users=n,
    )
