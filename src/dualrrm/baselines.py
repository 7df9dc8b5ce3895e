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
    noise floor at maximum power.  Everything but the greedy scan is
    computed for all steps at once.
    """
    cfg.validate()
    inr = problem.p_max * abs_h2 / problem.noise  # (..., i, j): tx i at rx j
    snr = inr.diagonal(0, -2, -1)
    margin = 10.0 ** (cfg.m_margin_db / 10.0)
    cap = margin * snr**cfg.eta_exponent
    ok = inr <= cap[..., None]  # (..., i, j): INR(i -> j) within i's cap
    compat = (ok & ok.swapaxes(-1, -2)).reshape(-1, problem.m, problem.m).tolist()
    if cfg.ordering == "by-SNR-desc":
        orders = np.argsort(-snr, axis=-1, kind="stable").reshape(-1, problem.m).tolist()
    else:
        orders = [range(problem.m)] * len(compat)
    powers = np.zeros((len(compat), problem.m))
    for p, rows, order in zip(powers, compat, orders):  # [j][i]: i and j may coexist
        scheduled: list[int] = []
        for j in order:
            row = rows[j]
            if all(row[i] for i in scheduled):
                scheduled.append(j)
        p[scheduled] = problem.p_max
    return powers.reshape(abs_h2.shape[:-1])


@dataclass
class FullReusePolicy:
    def windows(self, abs_h2: np.ndarray, cfg: RrmProblemConfig):
        """Powers ignore the duals: one pass over the block (see ``execute``)."""
        powers = full_reuse(abs_h2, cfg)
        return lambda steps, mu: powers[steps]


@dataclass
class ItlinqPolicy:
    cfg: ItlinqConfig

    def windows(self, abs_h2: np.ndarray, problem: RrmProblemConfig):
        """Schedules ignore the duals: one pass over the block (see ``execute``)."""
        powers = itlinq_schedule(abs_h2, problem, self.cfg)
        return lambda steps, mu: powers[steps]
