"""CSV emission with a provenance header on every file.

The first line of every CSV is a comment of the form

    # tool_version=... config_hash=... master_seed=...

followed by the header row.  Floats are written with shortest-round-trip
precision, so identical runs produce byte-identical files.  Wall-clock
columns are left empty unless timing emission is requested, since timings
would break byte-level reproducibility.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import atomic_open
from .core import MetricsSummary
from .execution import EpisodeTrace, ExecConfig
from .training import TrainingLog

POOLED_LABEL = "pooled"


@dataclass(frozen=True)
class FileMeta:
    tool_version: str
    config_hash: str
    master_seed: int

    def comment(self) -> str:
        return (
            f"# tool_version={self.tool_version} "
            f"config_hash={self.config_hash} master_seed={self.master_seed}"
        )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence], meta: FileMeta) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, newline="") as f:
        f.write(meta.comment() + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


TRAINING_LOG_HEADER = [
    "iteration",
    "mean_lagrangian",
    "mean_sum_rate",
    "mean_constraint_slack",
    "wall_ms",
]


def write_training_log(path, log: TrainingLog, meta: FileMeta, emit_timing: bool = False) -> None:
    rows = []
    for i in range(len(log.iterations)):
        ms = repr(log.wall_ms[i]) if emit_timing else ""
        rows.append(
            [
                log.iterations[i],
                log.mean_lagrangian[i],
                log.mean_sum_rate[i],
                log.mean_constraint_slack[i],
                ms,
            ]
        )
    write_csv(path, TRAINING_LOG_HEADER, rows, meta)


METRICS_HEADER = [
    "policy",
    "realization",
    "n_users",
    "mean_rate",
    "min_rate_trimmed",
    "p5_rate",
    "feasibility_fraction",
]


def metrics_row(policy: str, realization, summary: MetricsSummary) -> list:
    return [
        policy,
        realization,
        summary.n_users,
        summary.mean_rate,
        summary.min_rate_trimmed,
        summary.p5_rate,
        summary.feasibility_fraction,
    ]


RATES_HEADER = ["policy", "realization", "user", "ergodic_rate"]


def rates_rows(policy: str, traces: Sequence[EpisodeTrace]) -> list[list]:
    rows = []
    for r, trace in enumerate(traces):
        for u, rate in enumerate(trace.final_ergodic):
            rows.append([policy, r, u, rate])
    return rows


TRACE_HEADER = ["t", "user", "power_norm", "rate", "ergodic_rate", "mu_current"]


def write_trace(path, trace: EpisodeTrace, exec_cfg: ExecConfig, p_max: float, meta: FileMeta) -> None:
    n_steps, m = trace.powers.shape
    n_windows = trace.duals.shape[0]
    rows = []
    for t in range(n_steps):
        k = t // exec_cfg.T0
        # steps of a trailing partial window run under the post-update dual
        mu = trace.duals[k] if k < n_windows else trace.final_dual
        for u in range(m):
            rows.append(
                [
                    t,
                    u,
                    trace.powers[t, u] / p_max,
                    trace.rates[t, u],
                    trace.ergodic_rates[t, u],
                    mu[u],
                ]
            )
    write_csv(path, TRACE_HEADER, rows, meta)


CDF_HEADER = ["ergodic_rate", "cum_fraction"]


def write_cdf(path, traces: Sequence[EpisodeTrace], meta: FileMeta) -> None:
    pooled = np.sort(np.concatenate([tr.final_ergodic for tr in traces]))
    n = pooled.size
    rows = [[pooled[i], (i + 1) / n] for i in range(n)]
    write_csv(path, CDF_HEADER, rows, meta)


TIMING_HEADER = ["m", "policy", "mean_step_ms", "n_steps"]
