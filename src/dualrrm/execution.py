"""Online execution: frozen policy plus projected dual descent.

The duals move only at window boundaries, every T0 steps.  Within window k
the policy maps the window's channels and the dual vector in force,
mu_k, to powers; the window's rates then move the duals against their
constraint slack and project them back onto the nonnegative orthant:

    mu_{k+1} = max(0, mu_k - eta_mu * (mean_rates_window_k - f_min)).

Only the duals change between windows, so the channel work is done once per
time block of whole windows sized by ``core.block_steps``: the policy turns
the block's gains |h|^2 once into either a function of the duals (for the
GNN, over the block's normalized edges) or, when its powers ignore the
duals, as for full reuse and ITLinQ, the block's powers.  The block then
runs in segments, each one policy call and one rate call: one window while
the powers read duals that can still move, the rest of the block once they
cannot, from the start for powers that ignore the duals and from the freeze
on for the others.  One ``window_slack`` call gives the slacks of a
segment's complete windows, and each window then records its dual and takes
the projected step that ``dual_update`` takes; the result equals the
step-by-step computation bit for bit.  A violated constraint raises its
user's dual, which the trained policy answers with more transmit power;
satisfied constraints bleed the dual back toward zero.  An optional freeze
step stops the dual updates early and is how the plain primal-dual baseline
is realized.

Several realizations run as one: their episodes stacked on axis 1, time
staying on axis 0, each under its own duals, bit for bit like one at a time;
a realization axis of length one is dropped for the run and restored in the
trace.

A trace keeps what execution decides: the powers and rates of every step,
the duals in force in every window, the final duals and the final ergodic
(time-average) rates.  A running average over time is computed from the
rates by the caller that reads it.  ``window_slack`` is the one definition
of a window's slack g, which ``dual_update`` and the law battery of
``verify`` both read.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# core.rates is looked up at call time, so a patched core.rates takes effect
from . import core, parallel_slots
from .channel import Realization
from .core import (
    MetricsSummary, RrmProblemConfig, block_steps, checked_duals, constraints_g, metrics,
)
from .errors import ConfigError, DimensionMismatch, EmptyInput, WindowLengthMismatch
from .graph import build_graph, checked_gain_episode
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
    """Everything one execution run produced, in step order; ``...`` are
    the realization axes of the episode, none for one realization."""

    powers: np.ndarray  # (T, ..., m)
    rates: np.ndarray  # (T, ..., m)
    duals: np.ndarray  # (K, ..., m): multiplier in force during window k
    final_ergodic: np.ndarray  # (..., m): ergodic (time-average) rate over all T steps
    final_dual: np.ndarray  # (..., m): multiplier after the last boundary update


@dataclass
class GnnPolicy:
    """Trained network wrapped as an executable power policy."""

    params: GnnParams

    def windows(self, abs_h2: np.ndarray, cfg: RrmProblemConfig):
        """The block's edges once; each segment then runs only the forward pass."""
        graph = build_graph(abs_h2, cfg)
        return lambda steps, mu: forward(graph[steps], mu, self.params, cfg.p_max)


def window_slack(window_rates: np.ndarray, exec_cfg: ExecConfig,
                 problem: RrmProblemConfig) -> np.ndarray:
    """Constraint slack g of a window's average rates: (T0, ..., m) -> (..., m)."""
    # summed step by step, as numpy's mean sums a stacked window; it sums a
    # (T0, 1) window pairwise, which would tie the bits to the stacking
    return constraints_g(sum(window_rates[1:], window_rates[0]) / exec_cfg.T0, problem)


def _projected_step(mu_k: np.ndarray, g: np.ndarray, exec_cfg: ExecConfig) -> np.ndarray:
    """mu_{k+1} = max(0, mu_k - eta_mu * g_k), for checked duals ``mu_k``."""
    return np.maximum(0.0, mu_k - exec_cfg.eta_mu * g)


def dual_update(
    mu_k: np.ndarray,
    window_rates: np.ndarray,
    exec_cfg: ExecConfig,
    problem: RrmProblemConfig,
) -> np.ndarray:
    """One projected dual-descent step on the window-average rates, for
    duals ``mu_k`` (..., m) and a window of shape (T0,) + mu_k.shape."""
    mu_k = checked_duals(mu_k)
    window_rates = np.asarray(window_rates, dtype=float)
    if window_rates.shape != (exec_cfg.T0,) + mu_k.shape:
        raise WindowLengthMismatch(
            f"window has shape {window_rates.shape}, expected {(exec_cfg.T0,) + mu_k.shape}"
        )
    return _projected_step(mu_k, window_slack(window_rates, exec_cfg, problem), exec_cfg)


def execute(
    policy,
    episode: np.ndarray,
    exec_cfg: ExecConfig,
    problem: RrmProblemConfig,
) -> EpisodeTrace:
    """Run the policy over gain episodes with dual descent.

    ``episode`` holds the gains |h|^2 of at least ``exec_cfg.T`` steps,
    (T, ..., m, m): one episode as ``Realization.episode`` returns it, or
    several stacked on the axes after time, each run under its own duals
    from ``mu_init``; the trace takes the same leading axes.  Complex
    channels are refused.  ``policy`` is either trained GnnParams or any
    object with a ``windows(abs_h2, problem)`` method.  It receives the
    gains of one time block, (n, ..., m, m), made of whole dual windows
    except possibly the episode's last, and returns either the block's
    powers (n, ..., m), when they ignore the duals, or a function
    ``powers(steps, mu)`` that maps a slice of the block and the duals
    ``mu`` (..., m) in force to the slice's powers, (len, ..., m).
    The dual update fires after each complete window k for which
    ``exec_cfg.updates_after(k)`` holds; a trailing partial window never
    triggers an update.
    """
    exec_cfg.validate()
    policy = GnnPolicy(policy) if isinstance(policy, GnnParams) else policy
    n_steps, T0 = exec_cfg.T, exec_cfg.T0
    episode = checked_gain_episode(episode, n_steps, problem.m)
    axes = episode.shape[1:-1]  # the caller's realization axes and users
    # unit realization axes change no bit and cost a broadcast in every call
    episode = episode.reshape(episode.shape[:1] + tuple(n for n in axes[:-1] if n != 1)
                              + episode.shape[-2:])
    n_windows = n_steps // T0
    mu = checked_duals(np.zeros(problem.m) if exec_cfg.mu_init is None else exec_cfg.mu_init)
    if mu.shape != (problem.m,):
        raise DimensionMismatch(f"mu_init shape {mu.shape} inconsistent with m")
    mu = np.broadcast_to(mu, episode.shape[1:-1]).copy()  # (..., m)

    powers = np.empty((n_steps,) + mu.shape)
    rates_t = np.empty((n_steps,) + mu.shape)
    duals = np.empty((n_windows,) + mu.shape)
    n_block = block_steps(8 * problem.m * mu.size, T0)  # the (n, ..., m, m) float64 tensors
    for b0 in range(0, n_steps, n_block):
        abs_h2 = episode[b0 : min(b0 + n_block, n_steps)]
        block_powers = policy.windows(abs_h2, problem)
        reads_duals, n, s0 = callable(block_powers), len(abs_h2), 0
        while s0 < n:
            # a segment: one window while the powers read duals that can
            # still move, the rest of the block once they cannot
            k0 = (b0 + s0) // T0
            s1 = min(s0 + T0, n) if reads_duals and exec_cfg.updates_after(k0) else n
            seg = slice(b0 + s0, b0 + s1)
            powers[seg] = block_powers(slice(s0, s1), mu) if reads_duals else block_powers[s0:s1]
            rates_t[seg] = core.rates(abs_h2[s0:s1], powers[seg], problem)
            k1 = (b0 + s1) // T0  # the segment's complete windows are k0 .. k1-1
            g = window_slack(rates_t[k0 * T0 : k1 * T0].reshape((k1 - k0, T0) + mu.shape)
                             .swapaxes(0, 1), exec_cfg, problem)
            for k in range(k0, k1):
                duals[k] = mu
                if exec_cfg.updates_after(k):
                    mu = _projected_step(mu, g[k - k0], exec_cfg)
            s0 = s1
    # every dual an update read, refused as dual_update refuses it
    checked_duals(duals[[exec_cfg.updates_after(k) for k in range(n_windows)]])
    fields = dict(powers=powers, rates=rates_t, duals=duals,
                  final_ergodic=np.cumsum(rates_t, axis=0)[-1] / n_steps, final_dual=mu)
    # back on the caller's realization axes
    return EpisodeTrace(**{name: a.reshape(a.shape[: a.ndim - mu.ndim] + axes)
                           for name, a in fields.items()})


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


def _run_block(suites, problem: RrmProblemConfig,
               block: Sequence[Realization]) -> list[tuple[EpisodeTrace, float]]:
    """Every suite on the block's episodes stacked on axis 1, and each run's seconds."""
    n_steps = max(exec_cfg.T for _, exec_cfg in suites)
    episodes = [r.episode(n_steps) for r in block]
    # one episode runs as a view: a copy costs a tenth of its run at m=50
    stacked = np.stack(episodes, axis=1) if len(episodes) > 1 else episodes[0][:, None]
    runs = []
    for policy, exec_cfg in suites:
        t0 = time.perf_counter()
        runs.append((execute(policy, stacked, exec_cfg, problem), time.perf_counter() - t0))
    return runs


def evaluate_suites(
    suites: Sequence[tuple[object, ExecConfig]],
    dataset: Sequence[Realization],
    problem: RrmProblemConfig,
) -> list[tuple[MetricsSummary, list[EpisodeTrace], float]]:
    """Execute each (policy, exec config) suite on every test realization's one
    episode, synthesized for the longest T.  Per suite: the pooled summary of the
    final ergodic rates, the traces, one per realization, and the seconds spent
    in ``execute``.

    The realizations run in blocks of whole episodes, as many as the
    ``core.block_steps`` budget holds at the longest T, as training sizes its
    gradient blocks, and at most ceil(n / ``parallel_slots()``).  The blocks
    run on a pool of up to ``parallel_slots()`` processes, the rule by which
    training splits its batches; one process opens no pool.  A block runs
    the same call in this process or in a worker: each task carries the
    suites and the problem with its block, and a worker keeps nothing
    between tasks.  A worker, a process that
    ``multiprocessing`` started, is one slot, so its channel synthesis, the
    third stage ``parallel_slots()`` sizes, starts no thread; when a single
    block runs in this process, synthesis runs a multi-block episode on up
    to ``parallel_slots()`` threads.  No bit depends on the blocks, the pool
    or the threads."""
    if len(dataset) == 0:
        raise EmptyInput("evaluation dataset is empty")
    n_steps, slots = max(exec_cfg.T for _, exec_cfg in suites), parallel_slots()
    size = min(block_steps(8 * problem.m**2, n_steps) // n_steps, -(-len(dataset) // slots))
    tasks = [dataset[i : i + size] for i in range(0, len(dataset), size)]
    workers, run = min(slots, len(tasks)), functools.partial(_run_block, suites, problem)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run, tasks))
    else:
        runs = list(map(run, tasks))
    results = []
    for s in range(len(suites)):
        blocks = [run[s][0] for run in runs]  # each realization's trace sits on axis -2
        traces = [EpisodeTrace(**{k: v[..., r, :] for k, v in vars(block).items()})
                  for block in blocks for r in range(len(block.final_dual))]
        pooled = np.concatenate([tr.final_ergodic for tr in traces])
        results.append((metrics(pooled, problem), traces, sum(run[s][1] for run in runs)))
    return results


def evaluate_suite(
    policy,
    dataset: Sequence[Realization],
    exec_cfg: ExecConfig,
    problem: RrmProblemConfig,
) -> tuple[MetricsSummary, list[EpisodeTrace]]:
    """Execute every test realization and pool the final ergodic rates."""
    summary, traces, _ = evaluate_suites([(policy, exec_cfg)], dataset, problem)[0]
    return summary, traces
