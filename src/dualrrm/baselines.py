"""Comparison policies: full reuse and greedy link scheduling.

The early-stopped-duals baseline is the trained policy run under an
``ExecConfig`` with ``t_stop`` set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RrmProblemConfig, full_power_inr
from .errors import ConfigError


@dataclass(frozen=True)
class ItlinqConfig:
    """Greedy scheduling thresholds: link pairs may coexist only when their
    mutual interference-to-noise ratios stay under margin * SNR**eta."""

    eta_exponent: float = 0.7
    m_margin_db: float = 25.0
    ordering: str = "by-SNR-desc"  # or "by-index"

    def validate(self) -> None:
        if not (0.0 < self.eta_exponent <= 1.0):
            raise ConfigError("eta_exponent must lie in (0, 1]")
        try:  # 10 ** (dB / 10) beyond the float range, as ExperimentConfig bounds p_max
            margin = 10.0 ** (self.m_margin_db / 10.0)
        except OverflowError:
            margin = math.inf
        if not (math.isfinite(margin) and math.isfinite(self.m_margin_db)):
            raise ConfigError("m_margin_db must be finite, and 10 ** (m_margin_db / 10) too")
        if self.ordering not in ("by-SNR-desc", "by-index"):
            raise ConfigError(f"unknown ordering {self.ordering!r}")


def full_reuse(abs_h2: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Every transmitter at maximum power, whatever the channel; the powers
    take the leading shape of ``abs_h2`` (..., m, m)."""
    return np.full(abs_h2.shape[:-1], cfg.p_max)


def itlinq_schedule(
    abs_h2: np.ndarray, problem: RrmProblemConfig, cfg: ItlinqConfig
) -> np.ndarray:
    """Greedy on/off scheduling of every step of ``abs_h2`` (..., m, m);
    selected links transmit at p_max.

    Links are visited in the configured order (default: descending direct
    SNR, ties broken by lower index).  Candidate j joins the scheduled set S
    when for every i in S both INR(i -> j) <= M * SNR_i**eta and
    INR(j -> i) <= M * SNR_j**eta, with SNRs and INRs measured against the
    noise floor at maximum power.  The greedy scan runs once per rank k
    over every step at once: each step's k-th candidate is admitted where
    its conflict row hits none of that step's scheduled links.
    """
    cfg.validate()
    m = problem.m
    inr = full_power_inr(abs_h2, problem)  # (..., i, j): tx i at rx j
    snr = inr.diagonal(0, -2, -1)
    margin = 10.0 ** (cfg.m_margin_db / 10.0)
    cap = margin * snr**cfg.eta_exponent
    ok = inr <= cap[..., None]  # (..., i, j): INR(i -> j) within i's cap
    conflict = ~(ok & ok.swapaxes(-1, -2)).reshape(-1, m, m)  # [s, j, i]: i, j may not coexist
    scheduled = np.zeros(conflict.shape[:2], dtype=bool)
    if cfg.ordering == "by-SNR-desc":
        orders = np.argsort(-snr, axis=-1, kind="stable").reshape(-1, m)
    else:
        orders = np.broadcast_to(np.arange(m), scheduled.shape)
    steps = np.arange(len(scheduled))
    # every step's candidate of the same rank; j itself is not yet
    # scheduled, so its own diagonal entry never counts against it
    for j in orders.T:
        scheduled[steps, j] = ~(conflict[steps, j] & scheduled).any(axis=-1)
    return np.where(scheduled, problem.p_max, 0.0).reshape(abs_h2.shape[:-1])


@dataclass
class FullReusePolicy:
    def windows(self, abs_h2: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
        """Powers ignore the duals: the block's powers (see ``execute``)."""
        return full_reuse(abs_h2, cfg)


@dataclass
class ItlinqPolicy:
    cfg: ItlinqConfig

    def windows(self, abs_h2: np.ndarray, problem: RrmProblemConfig) -> np.ndarray:
        """Schedules ignore the duals: the block's powers (see ``execute``)."""
        return itlinq_schedule(abs_h2, problem, self.cfg)
