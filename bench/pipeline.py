"""Workload definitions and the pipeline every workload runs.

A workload interleaves training with evaluation, both driven through the
same library calls the ``dualrrm`` CLI makes:
``datasets.generate_dataset`` -> ``training.train`` for ``generate``/``train``,
and ``policy.load_checkpoint`` -> ``execution.evaluate_suite`` for
``eval``/``baselines``.  Every call into the library goes through a module
attribute looked up at call time, so the traced run can wrap it.

Every workload reports every end-to-end metric, so each one runs both;
the part a workload is named for carries most of its work and the other
part runs at the small desk shape.  The evaluation phase always runs
the committed desk checkpoint, so its quality metrics do not depend on how
the training phase of the same run went.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dualrrm import core, datasets, execution, policy, training
from dualrrm.baselines import FullReusePolicy, ItlinqPolicy
from dualrrm.channel import TopologyConfig
from dualrrm.config import DatasetConfig, ExperimentConfig
from dualrrm.errors import RrmError
from dualrrm.execution import ExecConfig
from dualrrm.training import TrainConfig

BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "desk_checkpoint.json"

# Set-up is repeated this many times per run and its median reported; the
# last repetition is the first epoch of the measured training call.
SETUP_REPS = 5


@dataclass(frozen=True)
class TrainShape:
    m: int
    area_side_m: float
    batch_size: int
    episode_len: int
    n_train: int
    steady_iters: int  # timed iterations after the cache-filling first epoch

    @property
    def fill_iters(self) -> int:
        """Iterations of the first epoch, which fill the tensor cache."""
        return math.ceil(self.n_train / self.batch_size)


@dataclass(frozen=True)
class EvalShape:
    m: int
    area_side_m: float
    T: int
    n_test: int  # realizations for the state-augmented suite
    n_baseline: int  # leading realizations for the full-reuse and ITLinQ suites
    n_exec_episodes: int  # pre-synthesized episodes that execute() cycles over
    min_exec_networks: int  # execute() calls timed before the time budget counts


KINDS = ("train", "suite", "baselines", "exec")


@dataclass(frozen=True)
class Workload:
    name: str
    train: TrainShape
    eval: EvalShape
    # Share of the measured interval each kind of work gets.  The kinds run
    # interleaved in these proportions, so every timing metric samples the
    # whole interval rather than one stretch of it.
    shares: dict


DESK_AREA_M = 500.0
PAPER_AREA_M = 2000.0

# The desk shapes are the acceptance setting (m=6, B=16, T=50, 32 realizations).
# Desk evaluation uses the default horizon T=100 instead of the acceptance
# T=400: per-step cost does not depend on T, and the phase stays light.
DESK_EVAL = EvalShape(
    m=6, area_side_m=DESK_AREA_M, T=100, n_test=96, n_baseline=32,
    n_exec_episodes=16, min_exec_networks=100,
)
# Training workloads give most of the interval to training and split the rest.
TRAIN_SHARES = {"train": 0.6, "suite": 0.15, "baselines": 0.1, "exec": 0.15}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-desk",
            TrainShape(m=6, area_side_m=DESK_AREA_M, batch_size=16, episode_len=50,
                       n_train=32, steady_iters=220),
            DESK_EVAL,
            TRAIN_SHARES,
        ),
        # Paper shapes with B=8 rather than 128: the loop is sequential over
        # the batch, so an episode costs the same at any batch size, and B=8
        # gives about 30 timed iterations of 0.6 s where B=128 would give one
        # of 11 s.
        Workload(
            "train-paper",
            TrainShape(m=50, area_side_m=PAPER_AREA_M, batch_size=8, episode_len=100,
                       n_train=16, steady_iters=30),
            DESK_EVAL,
            TRAIN_SHARES,
        ),
        # Size transfer: the desk checkpoint run at m=50 over the paper's 128
        # test realizations.  Training runs only at the desk shape, lightly.
        Workload(
            "eval-paper",
            TrainShape(m=6, area_side_m=DESK_AREA_M, batch_size=16, episode_len=50,
                       n_train=32, steady_iters=64),
            EvalShape(m=50, area_side_m=PAPER_AREA_M, T=100, n_test=128, n_baseline=32,
                      n_exec_episodes=20, min_exec_networks=100),
            {"train": 0.14, "suite": 0.42, "baselines": 0.2, "exec": 0.24},
        ),
    )
}

# Toy sizes for the smoke mode: every phase runs, in about a second.
SMOKE_TRAIN = TrainShape(m=3, area_side_m=300.0, batch_size=2, episode_len=5,
                         n_train=4, steady_iters=3)
SMOKE_EVAL = EvalShape(m=3, area_side_m=300.0, T=10, n_test=4, n_baseline=4,
                       n_exec_episodes=2, min_exec_networks=4)


def smoke_workload(name: str) -> Workload:
    return Workload(name, SMOKE_TRAIN, SMOKE_EVAL, WORKLOADS[name].shares)


def experiment_config(
    master_seed: int, m: int, area_side_m: float, n_train: int = 0, n_test: int = 0,
    train: TrainConfig | None = None, exec_cfg: ExecConfig | None = None,
) -> ExperimentConfig:
    """The config a CLI user would write for one phase of a workload."""
    return ExperimentConfig(
        seed=master_seed,
        topology=TopologyConfig(m=m, area_side_m=area_side_m),
        data=DatasetConfig(n_train=n_train, n_test=n_test),
        train=train or TrainConfig(),
        execution=exec_cfg or ExecConfig(),
    ).validate()


def train_config(master_seed: int, shape: TrainShape, n_iters: int) -> ExperimentConfig:
    return experiment_config(
        master_seed, shape.m, shape.area_side_m, n_train=shape.n_train,
        train=TrainConfig(n_iters=n_iters, batch_size=shape.batch_size,
                          episode_len=shape.episode_len),
    )


def eval_config(master_seed: int, shape: EvalShape) -> ExperimentConfig:
    return experiment_config(
        master_seed, shape.m, shape.area_side_m, n_test=shape.n_test,
        exec_cfg=ExecConfig(T=shape.T),  # default T0=5, eta_mu=20
    )


def trace_ok(trace, exec_cfg: ExecConfig, problem) -> bool:
    """Output checks on one executed episode."""
    return bool(
        np.all(trace.powers >= 0.0)
        and np.all(trace.powers <= problem.p_max)
        and np.all(np.isfinite(trace.rates))
        and np.all(trace.duals >= 0.0)
        and np.all(trace.final_dual >= 0.0)
        and np.array_equal(execution.replay_duals(trace, exec_cfg, problem), trace.duals)
    )


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)  # metric name -> value
    samples: dict = field(default_factory=dict)  # metric name -> sample count
    info: dict = field(default_factory=dict)  # measured, but not a benchmark metric

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.notes.append(why)


class Pipeline:
    """One run of one workload: set-up, then the measured interval.

    The measured interval starts after the first epoch of one ``train()``
    call.  From that call's per-iteration callback, and after it returns,
    the other kinds of work run one unit at a time: one realization through
    the ``state_augmented`` suite, one realization through the full-reuse
    and ITLinQ suites, or one ``execute()``.  The kind run next is always the
    one furthest behind its share of the time used so far, so the kinds stay
    interleaved over the whole interval.  The suites cycle over their
    realizations; quality metrics come from the first pass, and every later
    pass must reproduce it exactly.  The interval ends when ``seconds`` have
    passed, training is done and every kind has done its minimum: one pass
    over each suite's realizations and ``min_exec_networks`` calls.
    ``tracer`` is switched off around the output checks, so the traced run
    records only the timed work.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float, tracer=None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.out = Outcome()
        self.measure_t0 = None
        self.used = dict.fromkeys(KINDS, 0.0)  # seconds spent per kind, checks included
        self.training = True
        self.sa_done, self.bl_done = 0, 0
        self.sa_rates: dict[int, np.ndarray] = {}  # first pass, by test realization
        # Realization-steps per second of each suite unit.
        self.sa_unit_rates: list[float] = []
        self.bl_unit_rates: list[float] = []
        self.exec_ms: list[float] = []

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _checks(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    # -- set-up ------------------------------------------------------------

    def _prepare(self):
        """Datasets, checkpoint and pre-synthesized episodes: one repetition."""
        w = self.w
        t0 = time.perf_counter()
        tcfg = train_config(self.seed, w.train, w.train.fill_iters + w.train.steady_iters)
        ecfg = eval_config(self.seed, w.eval)
        train_set = datasets.generate_dataset(tcfg, "train")
        test_set = datasets.generate_dataset(ecfg, "test")
        ckpt = policy.load_checkpoint(CHECKPOINT)
        policy.require_dims(ckpt.params, ecfg.gnn)
        episodes = [r.episode(w.eval.T) for r in test_set[: w.eval.n_exec_episodes]]
        return time.perf_counter() - t0, (tcfg, ecfg, train_set, test_set, ckpt.params, episodes)

    def _train(self, tcfg: ExperimentConfig, train_set, n_iters: int, callback=None):
        """One training call; counts its iterations and checks its result."""
        cfg = replace(tcfg.train, n_iters=n_iters, checkpoint_every=1 if callback else None)
        self.out.attempted += n_iters
        try:
            params, log = training.train(cfg, tcfg.problem, tcfg.gnn, train_set,
                                         checkpoint_cb=callback)
        except RrmError as exc:
            self.out.fail(n_iters, f"train raised {type(exc).__name__}: {exc}")
            return None
        with self._checks():
            if len(log.iterations) != n_iters or not params.is_finite():
                self.out.fail(n_iters, "training log incomplete or parameters non-finite")
                return None
        return log

    def run(self) -> Outcome:
        w, out = self.w, self.out
        fill = w.train.fill_iters
        setup_s = []
        with self._span("bench.setup"):
            for _ in range(SETUP_REPS - 1):
                prep_s, state = self._prepare()
                log = self._train(state[0], state[2], fill)
                setup_s.append(prep_s + (sum(log.wall_ms) / 1e3 if log else math.nan))
            prep_s, state = self._prepare()
        tcfg, ecfg, train_set, test_set, params, episodes = state
        self.state = (ecfg, params, episodes)
        self.units = {
            "suite": lambda: self._suite_unit(ecfg, test_set, params),
            "baselines": lambda: self._baselines_unit(ecfg, test_set),
            "exec": lambda: self._exec_unit(ecfg, params, episodes),
        }
        last_exit = None

        def on_iteration(iteration: int, _params) -> None:
            nonlocal last_exit
            if iteration < fill:  # the first epoch is set-up
                return
            if iteration == fill:
                self.measure_t0 = time.perf_counter()
            else:
                self.used["train"] += time.perf_counter() - last_exit
            self._fill()
            last_exit = time.perf_counter()

        with self._span("bench.train"):
            log = self._train(tcfg, train_set, fill + w.train.steady_iters, on_iteration)
        self.training = False
        if self.measure_t0 is None:  # training stopped before the interval began
            self.measure_t0 = time.perf_counter()
        self._fill()

        if log is not None:
            setup_s.append(prep_s + sum(log.wall_ms[:fill]) / 1e3)
            steady = log.wall_ms[fill:]
            last = log.mean_lagrangian[-max(1, len(log.mean_lagrangian) // 10):]
            out.values["train_iter_ms_p90"] = percentile(steady, 90)
            out.info["train_iter_ms_p50"] = percentile(steady, 50)
            out.info["train_iter_ms_mean"] = float(np.mean(steady))
            out.values["train_lagrangian"] = float(np.mean(last))
            out.samples["train_iter_ms"] = len(steady)
            out.samples["train_lagrangian"] = len(last)
        out.values["setup_s"] = statistics.median(setup_s)
        out.samples["setup_s"] = len(setup_s)
        if len(self.sa_rates) == w.eval.n_test:
            summary = core.metrics(np.concatenate(list(self.sa_rates.values())), ecfg.problem)
            out.values["eval_feasibility"] = summary.feasibility_fraction
            out.values["eval_mean_rate"] = summary.mean_rate
            out.samples["eval_users"] = summary.n_users
        for name, rates in (("eval_steps_per_s", self.sa_unit_rates),
                            ("baseline_steps_per_s", self.bl_unit_rates)):
            if rates:
                out.values[name] = percentile(rates, 10)
                out.info[f"{name}_p50"] = percentile(rates, 50)
                out.info[f"{name}_overall"] = len(rates) / float(np.sum(1.0 / np.array(rates)))
                out.samples[name] = len(rates)
        if self.exec_ms:
            out.values["exec_step_ms_p90"] = percentile(self.exec_ms, 90)
            out.info["exec_step_ms_p50"] = percentile(self.exec_ms, 50)
            out.info["exec_step_ms_mean"] = float(np.mean(self.exec_ms))
            out.samples["exec_step_ms"] = len(self.exec_ms)
        out.info["measured_s"] = time.perf_counter() - self.measure_t0
        out.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    # -- the measured interval ---------------------------------------------

    def _owed(self) -> list[str]:
        """Kinds that have not yet done their minimum work."""
        e = self.w.eval
        return [kind for kind, short in (
            ("suite", self.sa_done < e.n_test),
            ("baselines", self.bl_done < e.n_baseline),
            ("exec", len(self.exec_ms) < e.min_exec_networks),
        ) if short]

    def _fill(self) -> None:
        """Run units of the kind furthest behind its share, until training is
        (while it runs) or the interval ends (after it has finished)."""
        shares = self.w.shares
        while True:
            if self.training:
                kinds = [k for k in KINDS if shares[k] > 0]
            elif time.perf_counter() - self.measure_t0 < self.seconds:
                kinds = [k for k in KINDS[1:] if shares[k] > 0]
            else:
                kinds = self._owed()
            if not kinds:
                return
            kind = min(kinds, key=lambda k: self.used[k] / shares[k])
            if kind == "train":
                return
            t0 = time.perf_counter()
            self.units[kind]()
            self.used[kind] += time.perf_counter() - t0

    def _suite_unit(self, ecfg: ExperimentConfig, test_set, params) -> None:
        """The next test realization through the state-augmented suite."""
        i = self.sa_done % self.w.eval.n_test
        first = self.sa_done < self.w.eval.n_test
        with self._span("bench.eval.state_augmented" if first else "bench.eval.repeat"):
            done = self._suite(params, [test_set[i]], ecfg)
        self.sa_done += 1
        if done is None:
            return
        self.sa_unit_rates.append(ecfg.execution.T / done[1])
        rates = done[0][0].final_ergodic
        if first:
            self.sa_rates[i] = rates
        elif i in self.sa_rates and not np.array_equal(rates, self.sa_rates[i]):
            self.out.fail(1, f"state_augmented on test realization {i} did not repeat exactly")

    def _baselines_unit(self, ecfg: ExperimentConfig, test_set) -> None:
        """The next baseline realization through full reuse, then ITLinQ."""
        i = self.bl_done % self.w.eval.n_baseline
        first = self.bl_done < self.w.eval.n_baseline
        with self._span("bench.eval.baselines" if first else "bench.eval.repeat"):
            timed = [self._suite(pol, [test_set[i]], ecfg)
                     for pol in (FullReusePolicy(), ItlinqPolicy(ecfg.itlinq))]
        self.bl_done += 1
        if all(done is not None for done in timed):
            self.bl_unit_rates.append(2 * ecfg.execution.T / sum(done[1] for done in timed))

    def _exec_unit(self, ecfg: ExperimentConfig, params, episodes) -> None:
        with self._span("bench.exec"):
            ms = self._execute_one(params, episodes[len(self.exec_ms) % len(episodes)], ecfg)
        if ms is not None:
            self.exec_ms.append(ms)

    def _suite(self, pol, realizations, ecfg: ExperimentConfig):
        """evaluate_suite's traces and wall time; None when it raised."""
        self.out.attempted += len(realizations)
        t0 = time.perf_counter()
        try:
            _, traces = execution.evaluate_suite(pol, realizations, ecfg.execution, ecfg.problem)
        except RrmError as exc:
            self.out.fail(len(realizations), f"evaluate_suite raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        with self._checks():
            bad = sum(not trace_ok(tr, ecfg.execution, ecfg.problem) for tr in traces)
        if bad:
            self.out.fail(bad, f"{bad} suite traces failed the output checks")
        return traces, elapsed

    def _execute_one(self, params, episode, ecfg: ExperimentConfig):
        """One timed execute(); returns ms per step, or None on failure."""
        self.out.attempted += 1
        t0 = time.perf_counter()
        try:
            trace = execution.execute(params, episode, ecfg.execution, ecfg.problem)
        except RrmError as exc:
            self.out.fail(1, f"execute raised {type(exc).__name__}: {exc}")
            return None
        step_ms = (time.perf_counter() - t0) * 1e3 / ecfg.execution.T
        with self._checks():
            if not trace_ok(trace, ecfg.execution, ecfg.problem):
                self.out.fail(1, "execute trace failed the output checks")
                return None
        return step_ms

    def tracing_overhead_pct(self, pairs: int) -> float:
        """Traced over untraced execute() step time, in percent above 1.

        Runs ``pairs`` traced and untraced calls interleaved on the run's own
        episodes and compares their medians.
        """
        ecfg, params, episodes = self.state
        timed = {True: [], False: []}
        for k in range(pairs):
            for enabled in ((False, True) if k % 2 == 0 else (True, False)):
                self.tracer.enabled = enabled
                ms = self._execute_one(params, episodes[k % len(episodes)], ecfg)
                if ms is not None:
                    timed[enabled].append(ms)
        self.tracer.enabled = True
        return (statistics.median(timed[True]) / statistics.median(timed[False]) - 1.0) * 100.0
