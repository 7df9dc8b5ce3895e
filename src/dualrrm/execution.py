"""Online execution: frozen policy plus projected dual descent.

The duals move only at window boundaries, every T0 steps.  Within window k
the policy maps the window's channels and the dual vector in force,
mu_k, to powers; the window's rates then move the duals against their
constraint slack and project them back onto the nonnegative orthant:

    mu_{k+1} = max(0, mu_k - eta_mu * (mean_rates_window_k - f_min)).

Only the duals change between windows, so the channel work is done once per
time block of whole windows sized by ``core.block_steps``: the block is
squared once into |h|^2, and the policy turns it once into a window function
(for the GNN, the block's normalized edges; for full reuse and ITLinQ, which
ignore the duals, the block's powers).  Each window then costs one policy
call, one rate call and the dual update, and the result equals the
step-by-step computation bit for bit.  A violated constraint raises its
user's dual, which the trained policy answers with more transmit power;
satisfied constraints bleed the dual back toward zero.  An optional freeze
step stops the dual updates early and is how the plain primal-dual baseline
is realized.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Realization
from .core import (
    MetricsSummary, RrmProblemConfig, block_steps, checked_duals, constraints_g, metrics,
)
from .errors import ConfigError, DimensionMismatch, EmptyInput, WindowLengthMismatch
from .graph import build_graph
from .policy import GnnParams, forward

DEFAULT_ETA_MU = 20.0


@dataclass(frozen=True)
class ExecConfig:
    T: int = 100
    T0: int = 5
    eta_mu: float = DEFAULT_ETA_MU
    mu_init: tuple[float, ...] | None = None  # zeros when None
    t_stop: int | None = None  # duals frozen from this step on; None = never

    def validate(self) -> None:
        if self.T0 < 1 or self.T < self.T0:
            raise ConfigError("need T >= T0 >= 1")
        if self.eta_mu <= 0:
            raise ConfigError("eta_mu must be positive")
        if self.t_stop is not None and self.t_stop < 0:
            raise ConfigError("t_stop must be >= 0")

    def updates_after(self, k: int) -> bool:
        """Whether the duals move at the end of window k, i.e. whether its
        last step (k+1)*T0 - 1 comes before ``t_stop``."""
        return self.t_stop is None or (k + 1) * self.T0 - 1 < self.t_stop


@dataclass
class EpisodeTrace:
    """Everything one execution run produced, in step order."""

    powers: np.ndarray  # (T, m)
    rates: np.ndarray  # (T, m)
    duals: np.ndarray  # (K, m): multiplier in force during window k
    ergodic_rates: np.ndarray  # (T, m): running average of rates up to t
    final_dual: np.ndarray  # (m,): multiplier after the last boundary update

    @property
    def final_ergodic(self) -> np.ndarray:
        return self.ergodic_rates[-1]


@dataclass
class GnnPolicy:
    """Trained network wrapped as an executable power policy."""

    params: GnnParams

    def windows(self, abs_h2: np.ndarray, cfg: RrmProblemConfig):
        """The block's edges once; each window then runs only the forward pass."""
        graph = build_graph(abs_h2, cfg)
        return lambda steps, mu: forward(graph[steps], mu, self.params, cfg.p_max)


def dual_update(
    mu_k: np.ndarray,
    window_rates: np.ndarray,
    exec_cfg: ExecConfig,
    problem: RrmProblemConfig,
) -> np.ndarray:
    """One projected dual-descent step on the window-average rates."""
    mu_k = checked_duals(mu_k)
    window_rates = np.asarray(window_rates, dtype=float)
    if window_rates.ndim != 2 or window_rates.shape[0] != exec_cfg.T0:
        raise WindowLengthMismatch(
            f"window has shape {window_rates.shape}, expected ({exec_cfg.T0}, m)"
        )
    slack = constraints_g(window_rates.mean(axis=0), problem)
    return np.maximum(0.0, mu_k - exec_cfg.eta_mu * slack)


def _as_policy(policy):
    return GnnPolicy(policy) if isinstance(policy, GnnParams) else policy


def execute(
    policy,
    episode: np.ndarray,
    exec_cfg: ExecConfig,
    problem: RrmProblemConfig,
) -> EpisodeTrace:
    """Run the policy over one channel episode with dual descent.

    ``policy`` is either trained GnnParams or any object with a
    ``windows(abs_h2, problem)`` method.  It receives the squared channel
    magnitudes of one time block, (n, m, m), made of whole dual windows
    except possibly the episode's last, and returns a function
    ``powers(steps, mu)`` that maps a window's slice of the block and the
    duals ``mu`` (m,) in force to that window's powers, (len, m).  The dual
    update fires after each complete window k for which
    ``exec_cfg.updates_after(k)`` holds; a trailing partial window never
    triggers an update.
    """
    exec_cfg.validate()
    from .core import rates as rates_fn

    policy = _as_policy(policy)
    episode = np.asarray(episode)
    n_steps, T0 = exec_cfg.T, exec_cfg.T0
    if episode.ndim != 3 or episode.shape[0] < n_steps or episode.shape[1:] != (
        problem.m,
        problem.m,
    ):
        raise DimensionMismatch(
            f"episode shape {episode.shape} cannot cover T={n_steps}, m={problem.m}"
        )
    n_windows = n_steps // T0
    mu = checked_duals(np.zeros(problem.m) if exec_cfg.mu_init is None else exec_cfg.mu_init)
    if mu.shape != (problem.m,):
        raise DimensionMismatch(f"mu_init shape {mu.shape} inconsistent with m")

    powers = np.empty((n_steps, problem.m))
    rates_t = np.empty((n_steps, problem.m))
    duals = np.empty((n_windows, problem.m))
    n_block = block_steps(8 * problem.m**2, T0)  # the (n, m, m) float64 tensors
    for k, t0 in enumerate(range(0, n_steps, T0)):
        if t0 % n_block == 0:
            abs_h2 = np.abs(episode[t0 : min(t0 + n_block, n_steps)]) ** 2
            window_powers = policy.windows(abs_h2, problem)
        local, win = slice(t0 % n_block, t0 % n_block + T0), slice(t0, min(t0 + T0, n_steps))
        powers[win] = window_powers(local, mu)
        rates_t[win] = rates_fn(abs_h2[local], powers[win], problem)
        if k < n_windows:
            duals[k] = mu
            if exec_cfg.updates_after(k):
                mu = dual_update(mu, rates_t[win], exec_cfg, problem)
    ergodic = np.cumsum(rates_t, axis=0) / np.arange(1, n_steps + 1)[:, None]
    return EpisodeTrace(
        powers=powers, rates=rates_t, duals=duals, ergodic_rates=ergodic,
        final_dual=mu,
    )


def replay_duals(trace: EpisodeTrace, exec_cfg: ExecConfig, problem: RrmProblemConfig) -> np.ndarray:
    """Recompute the dual trajectory from the recorded rates alone."""
    n_windows = trace.duals.shape[0]
    mu = trace.duals[0].copy()
    out = np.empty_like(trace.duals)
    for k in range(n_windows):
        out[k] = mu
        if exec_cfg.updates_after(k):
            window = trace.rates[k * exec_cfg.T0 : (k + 1) * exec_cfg.T0]
            mu = dual_update(mu, window, exec_cfg, problem)
    return out


def _suite_task(payload) -> EpisodeTrace:
    policy, realization, exec_cfg, problem = payload
    return execute(policy, realization.episode(exec_cfg.T), exec_cfg, problem)


def evaluate_suite(
    policy,
    dataset: Sequence[Realization],
    exec_cfg: ExecConfig,
    problem: RrmProblemConfig,
    workers: int = 1,
    feasibility_tolerance: float = 0.0,
) -> tuple[MetricsSummary, list[EpisodeTrace]]:
    """Execute every test realization and pool the final ergodic rates."""
    if len(dataset) == 0:
        raise EmptyInput("evaluation dataset is empty")
    policy = _as_policy(policy)
    payloads = [(policy, r, exec_cfg, problem) for r in dataset]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_suite_task, payloads))
    else:
        traces = [_suite_task(p) for p in payloads]
    pooled = np.concatenate([tr.final_ergodic for tr in traces])
    return metrics(pooled, problem, feasibility_tolerance), traces
