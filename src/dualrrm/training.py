"""Offline policy training by stochastic ascent on the expected Lagrangian.

Each iteration samples a batch of dual vectors and channel realizations,
rolls one episode per batch element with the duals held fixed, and applies
the batch-averaged gradient step.  No dual update ever runs during training;
the duals only condition the policy input and weight the objective.

All randomness is derived statelessly from (seed, purpose, index), so a run
resumed from any checkpoint reaches the uninterrupted run's parameters bit
for bit.  Its log holds only the iterations from the checkpoint on: a
resumed ``training_log.csv`` lacks the earlier rows.  Training runs in one
process.  A batch splits into chunks of whole episodes, one per
``parallel_slots()`` (the usable CPUs when BLAS runs one thread) and at
most one per gradient block (``policy.gradient_blocks``); the caller runs
the first, a thread pool the rest, and each writes its rows of one (B, P)
gradient array, summed in batch order, so no bit depends on the split.

Training caches each episode's gains in float32, so the message passing,
forward and backward, runs in float32, as in mixed-precision training; the
parameters, their update, the rates, dL/dp, the Lagrangian and the gradient
rows stay float64 (``policy.episode_eval``).  Gains that float32 cannot hold
are refused when the cache is filled.  Execution and the finite-difference
check run in float64 throughout.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import parallel_slots
from .channel import Realization
from .core import RrmProblemConfig, constraints_g
from .errors import (
    ConfigError,
    EmptyInput,
    NonFiniteActivation,
    NonFiniteLoss,
    SizeLimitExceeded,
    UnsupportedDistribution,
)
from .graph import GainEpisode
from .policy import (
    GnnConfig,
    GnnParams,
    apply_update,
    episode_eval,
    episode_tensors,
    gradient_blocks,
    init_params,
)
from .seeding import DATA_ORDER, DUAL_SAMPLING, ORACLE, PARAM_INIT, derive_seed, generator

ORACLE_MAX_USERS = 8


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule and hyperparameters; training runs in one process.

    ``n_iters`` overrides the epoch-derived schedule when set; otherwise the
    iteration count is epochs * dataset_size / batch_size.  ``eta_phi``
    defaults to 0.1 / m at use.  The learning-rate decay multiplies eta_phi
    by ``lr_decay_factor`` once per ``lr_decay_every_epochs`` epochs and is
    off at the default factor of 1.
    """

    n_iters: int | None = None
    epochs: int = 100
    batch_size: int = 128
    episode_len: int = 100
    eta_phi: float | None = None
    mu_dist: tuple[str, float, float] = ("uniform", 0.0, 1.0)
    lr_decay_factor: float = 1.0
    lr_decay_every_epochs: int = 100
    checkpoint_every: int | None = None
    seed: int | None = None  # inherits the experiment master seed when None

    def validate(self) -> None:
        if self.batch_size < 1 or self.episode_len < 1:
            raise ConfigError("batch_size and episode_len must be >= 1")
        if self.eta_phi is not None and self.eta_phi <= 0:
            raise ConfigError("eta_phi must be positive")
        if self.n_iters is not None and self.n_iters < 0:
            raise ConfigError("n_iters must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.lr_decay_every_epochs < 1 or self.lr_decay_factor <= 0:
            raise ConfigError("lr_decay_every_epochs must be >= 1 and lr_decay_factor positive")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1, or null for no checkpoints")
        _uniform_bounds(self.mu_dist)

    def resolved_n_iters(self, dataset_size: int) -> int:
        if self.n_iters is not None:
            return self.n_iters
        return (self.epochs * dataset_size) // self.batch_size

    def resolved_eta_phi(self, m: int) -> float:
        return self.eta_phi if self.eta_phi is not None else 0.1 / m


@dataclass
class TrainingLog:
    iterations: list[int] = field(default_factory=list)
    mean_lagrangian: list[float] = field(default_factory=list)
    mean_sum_rate: list[float] = field(default_factory=list)
    mean_constraint_slack: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)

    def append(self, n: int, lag: float, sum_rate: float, slack: float, ms: float) -> None:
        self.iterations.append(n)
        self.mean_lagrangian.append(lag)
        self.mean_sum_rate.append(sum_rate)
        self.mean_constraint_slack.append(slack)
        self.wall_ms.append(ms)


def _uniform_bounds(dist: Sequence) -> tuple[float, float]:
    """(a, b) of a dual distribution; only uniform(a, b), 0 <= a < b, is shipped."""
    if len(dist) != 3 or dist[0] != "uniform":
        raise UnsupportedDistribution(f"unsupported dual distribution {dist!r}")
    low, high = float(dist[1]), float(dist[2])
    if not (0.0 <= low < high):
        raise UnsupportedDistribution("uniform bounds need 0 <= a < b")
    return low, high


def sample_duals(m: int, batch: int, dist: Sequence, seed: int) -> np.ndarray:
    """(batch, m) i.i.d. dual draws from ``dist``, which must be uniform(a, b), 0 <= a < b."""
    low, high = _uniform_bounds(dist)
    return generator(seed).uniform(low, high, size=(batch, m))


def _checked_seed(cfg: TrainConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("train seed is unresolved; set TrainConfig.seed")
    return cfg.seed


def _n_chunks(cfg: TrainConfig, m: int, dims: GnnConfig) -> int:
    """Chunks per batch: one per parallel slot and gradient block."""
    per_block = gradient_blocks(m, cfg.episode_len, dims)[0]
    return min(parallel_slots(), -(-cfg.batch_size // per_block))


def _run_ascent(
    cfg: TrainConfig,
    problem: RrmProblemConfig,
    dims: GnnConfig,
    dataset: Sequence[Realization],
    init: GnnParams | None,
    start_iter: int,
    *,
    fixed_mu: np.ndarray | None = None,
    node_features: np.ndarray | None = None,
    checkpoint_cb: Callable[[int, GnnParams], None] | None = None,
) -> tuple[GnnParams, TrainingLog]:
    cfg.validate()
    seed = _checked_seed(cfg)
    if len(dataset) == 0:
        raise EmptyInput("training dataset is empty")
    n_iters = cfg.resolved_n_iters(len(dataset))
    if not 0 <= start_iter <= n_iters:
        raise ConfigError(f"start iteration {start_iter} lies outside the schedule of "
                          f"{n_iters} iterations")
    eta_base = cfg.resolved_eta_phi(problem.m)
    params = init if init is not None else init_params(dims, derive_seed(seed, PARAM_INIT))
    log = TrainingLog()

    @functools.cache
    def epoch_order(epoch: int) -> np.ndarray:
        return generator(derive_seed(seed, DATA_ORDER, epoch)).permutation(len(dataset))

    # the float32 gains and the edge norm of every step, T (m^2 + 1) floats
    # per realization; ``episode_eval`` builds the edges block by block and
    # runs the message passing in float32
    @functools.cache
    def episode(idx: int) -> GainEpisode:
        with np.errstate(over="ignore"):  # gains or INRs beyond float32's range: refused as inf
            gain = dataset[idx].episode(cfg.episode_len).astype(np.float32)
            return episode_tensors(gain, problem)

    n_chunks = _n_chunks(cfg, problem.m, dims)
    bounds = [cfg.batch_size * i // n_chunks for i in range(n_chunks + 1)]
    rows = np.empty((cfg.batch_size, params.flat.size))  # episode b's gradient in rows[b]
    with ThreadPoolExecutor(max(1, n_chunks - 1)) as pool:  # a thread may run two chunks
        for n in range(start_iter, n_iters):
            t0 = time.perf_counter()
            if fixed_mu is None:
                mu_batch = sample_duals(problem.m, cfg.batch_size, cfg.mu_dist,
                                        derive_seed(seed, DUAL_SAMPLING, n))
            else:
                mu_batch = np.broadcast_to(fixed_mu, (cfg.batch_size, problem.m))
            # every epoch visits the dataset once, in its own shuffled order
            slots = [divmod(n * cfg.batch_size + b, len(dataset)) for b in range(cfg.batch_size)]
            batch = [episode(int(epoch_order(sample_epoch)[pos])) for sample_epoch, pos in slots]
            def run(a: int, b: int):  # the chunk of episodes a to b - 1
                return episode_eval(batch[a:b], mu_batch[a:b], params=params, cfg=problem,
                                    node_features=node_features, out=rows[a:b])
            try:
                rest = [pool.submit(run, a, b) for a, b in zip(bounds[1:], bounds[2:])]
                parts = [run(*bounds[:2])] + [future.result() for future in rest]
            except NonFiniteActivation as exc:
                raise NonFiniteLoss(n, f"iteration {n}: {exc}") from exc
            # Fixed reduction order (batch index) keeps training bit-reproducible.
            grad_mean = params.zeros_like()
            for row in rows:
                grad_mean.flat += (1.0 / cfg.batch_size) * row
            values, avg_f = (np.concatenate([part[i] for part in parts]) for i in (0, 2))
            sum_rates = avg_f.sum(axis=1)  # utility_sum of each episode
            slacks = constraints_g(avg_f, problem).mean(axis=1)
            mean_value = float(np.sum(values) / cfg.batch_size)
            if not np.isfinite(mean_value) or not grad_mean.is_finite():
                raise NonFiniteLoss(n)
            epoch = (n * cfg.batch_size) // len(dataset)
            eta = eta_base * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every_epochs)
            params = apply_update(params, grad_mean, eta)
            log.append(
                n,
                mean_value,
                float(np.sum(sum_rates) / cfg.batch_size),
                float(np.sum(slacks) / cfg.batch_size),
                (time.perf_counter() - t0) * 1e3,
            )
            if checkpoint_cb and cfg.checkpoint_every and (n + 1) % cfg.checkpoint_every == 0:
                checkpoint_cb(n + 1, params)
    return params, log


def train(
    cfg: TrainConfig,
    problem: RrmProblemConfig,
    dims: GnnConfig,
    dataset: Sequence[Realization],
    init: GnnParams | None = None,
    start_iter: int = 0,
    checkpoint_cb: Callable[[int, GnnParams], None] | None = None,
) -> tuple[GnnParams, TrainingLog]:
    """Train the dual-conditioned policy; returns final params and the log."""
    return _run_ascent(cfg, problem, dims, dataset, init, start_iter, checkpoint_cb=checkpoint_cb)


def train_per_mu_oracle(
    mu: np.ndarray,
    cfg: TrainConfig,
    problem: RrmProblemConfig,
    dims: GnnConfig,
    dataset: Sequence[Realization],
) -> GnnParams:
    """Channel-only policy trained for one fixed dual vector.

    Node features are constant ones, so the network cannot condition on the
    duals; the fixed mu enters only through the objective weights.  Intended
    as a small-scale comparison target, hence the hard size cap.
    """
    if problem.m > ORACLE_MAX_USERS:
        raise SizeLimitExceeded(
            f"per-mu oracle is restricted to m <= {ORACLE_MAX_USERS}"
        )
    init = init_params(dims, derive_seed(_checked_seed(cfg), ORACLE, PARAM_INIT))
    params, _ = _run_ascent(cfg, problem, dims, dataset, init, 0,
                            fixed_mu=np.asarray(mu, dtype=float), node_features=np.ones(problem.m))
    return params
