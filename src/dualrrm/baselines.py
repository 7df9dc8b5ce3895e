"""Comparison policies: full reuse and greedy link scheduling.

The early-stopped-duals baseline is the trained policy run under an
``ExecConfig`` with ``t_stop`` set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RrmProblemConfig
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
        if not np.isfinite(self.m_margin_db):
            raise ConfigError("m_margin_db must be finite")
        if self.ordering not in ("by-SNR-desc", "by-index"):
            raise ConfigError(f"unknown ordering {self.ordering!r}")


def full_reuse(h: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """Every transmitter at maximum power, whatever the channel; the powers
    take the leading shape of ``h`` (..., m, m)."""
    return np.full(h.shape[:-1], cfg.p_max)


def itlinq_schedule(
    h: np.ndarray, problem: RrmProblemConfig, cfg: ItlinqConfig
) -> np.ndarray:
    """Greedy on/off scheduling; selected links transmit at p_max.

    Links are visited in the configured order (default: descending direct
    SNR, ties broken by lower index).  Candidate j joins the scheduled set S
    when for every i in S both INR(i -> j) <= M * SNR_i**eta and
    INR(j -> i) <= M * SNR_j**eta, with SNRs and INRs measured against the
    noise floor at maximum power.
    """
    cfg.validate()
    inr = problem.p_max * np.abs(h) ** 2 / problem.noise  # (i, j): tx i at rx j
    snr = np.diagonal(inr)
    margin = 10.0 ** (cfg.m_margin_db / 10.0)
    cap = margin * snr**cfg.eta_exponent
    if cfg.ordering == "by-SNR-desc":
        order = np.argsort(-snr, kind="stable").tolist()
    else:
        order = range(problem.m)
    ok = inr <= cap[:, None]  # (i, j): INR(i -> j) within i's cap
    compat = (ok & ok.T).tolist()  # [j][i]: links i and j may coexist
    scheduled: list[int] = []
    for j in order:
        row = compat[j]
        if all(row[i] for i in scheduled):
            scheduled.append(j)
    powers = np.zeros(problem.m)
    powers[scheduled] = problem.p_max
    return powers


@dataclass
class FullReusePolicy:
    def powers(self, h: np.ndarray, mu: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
        return full_reuse(h, cfg)


@dataclass
class ItlinqPolicy:
    cfg: ItlinqConfig

    def powers(self, h: np.ndarray, mu: np.ndarray, problem: RrmProblemConfig) -> np.ndarray:
        """One schedule per step of ``h`` (..., m, m)."""
        steps = h.reshape(-1, problem.m, problem.m)
        return np.reshape([itlinq_schedule(h_t, problem, self.cfg) for h_t in steps], h.shape[:-1])

