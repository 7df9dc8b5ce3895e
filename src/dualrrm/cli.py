"""Experiment harness.

Subcommands:
    generate       draw and cache a train or test dataset
    train          run the ascent loop, write checkpoints and the log CSV
    eval           execute a policy over the test set, write metric CSVs
    baselines      run the full policy comparison suite
    gradcheck      finite-difference verification of the episode gradient,
                   always acceptance 1's check (``verify.FD_*``)
    theorem-suite  dual-dynamics law battery on every test realization

``eval``, ``baselines`` and ``theorem-suite`` run the test realizations in
blocks of whole episodes on a pool of up to ``dualrrm.parallel_slots()``
processes (``execution.evaluate_suites``), the rule by which training splits
its batches; no option sets the count or the block size.

Exit codes: 0 success; 2 configuration error, which is every package error
but a ``NumericalError``; 3 numerical failure, a ``NumericalError`` or a
failed check; 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import BLAS_THREAD_VARS, __version__

for _var in BLAS_THREAD_VARS:  # one BLAS thread, set before numpy loads; a user's value wins
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .artifacts import write_csv
from .baselines import FullReusePolicy, ItlinqPolicy
from .config import ExperimentConfig, config_hash, config_to_dict, load_config
from .core import metrics
from .datasets import dataset_dir, generate_dataset, load_dataset, write_dataset
from .errors import ConfigError, NumericalError, RrmError
from .execution import GnnPolicy, evaluate_suite, evaluate_suites
from .policy import Checkpoint, load_checkpoint, require_dims, save_checkpoint
from .training import train
from .verify import FD_TOL, dual_trace_battery, finite_difference_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if cfg.execution.t_stop is not None:
        # a config-wide t_stop would run every GNN suite as an early-stop ablation
        raise ConfigError(
            "execution.t_stop is not read from a config; stop the duals with "
            "eval --policy early_stop --t-stop"
        )
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed, train=replace(cfg.train, seed=None))
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if getattr(args, "m_override", None) is not None:
        cfg = cfg.with_m(args.m_override)
    return cfg.validate()


def _provenance(cfg: ExperimentConfig) -> str:
    """The comment line that heads every CSV the CLI writes."""
    return (
        f"# tool_version={__version__} "
        f"config_hash={config_hash(cfg)} master_seed={cfg.seed}"
    )


def _policy_for(name: str, cfg: ExperimentConfig, checkpoint_path: str | None):
    if name == "full_reuse":
        return FullReusePolicy()
    if name == "itlinq":
        return ItlinqPolicy(cfg.itlinq)
    if name in ("state_augmented", "early_stop"):
        if checkpoint_path is None:
            raise ConfigError(f"policy {name!r} needs --checkpoint")
        ckpt = load_checkpoint(checkpoint_path)
        require_dims(ckpt.params, cfg.gnn)
        return GnnPolicy(ckpt.params)
    raise ConfigError(f"unknown policy {name!r}")


def cmd_generate(args) -> int:
    cfg = _load_experiment(args)
    realizations = generate_dataset(cfg, args.split)
    out = write_dataset(cfg, args.split, realizations)
    print(f"wrote {len(realizations)} realizations to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    dataset, _ = load_dataset(dataset_dir(cfg, "train"))
    ckpt_dir = Path(cfg.output_dir) / "checkpoints"
    init = None
    start_iter = 0
    if args.resume is not None:
        resumed = load_checkpoint(args.resume)
        require_dims(resumed.params, cfg.gnn)
        init, start_iter = resumed.params, resumed.iteration
    echo = config_to_dict(cfg)

    def save(iteration: int, params, name: str | None = None) -> Path:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        path = ckpt_dir / f"checkpoint_{name or f'{iteration:06d}'}.json"
        save_checkpoint(
            path,
            Checkpoint(params=params, seed=cfg.seed, iteration=iteration, config_echo=echo),
        )
        return path

    params, log = train(
        cfg.train,
        cfg.problem,
        cfg.gnn,
        dataset,
        init=init,
        start_iter=start_iter,
        checkpoint_cb=save if cfg.train.checkpoint_every else None,
    )
    final_path = save(cfg.train.resolved_n_iters(len(dataset)), params, "final")
    wall_ms = log.wall_ms if args.timing else [""] * len(log.iterations)
    rows = zip(
        log.iterations, log.mean_lagrangian, log.mean_sum_rate, log.mean_constraint_slack, wall_ms
    )
    write_csv(
        Path(cfg.output_dir) / "training_log.csv",
        ["iteration", "mean_lagrangian", "mean_sum_rate", "mean_constraint_slack", "wall_ms"],
        rows,
        _provenance(cfg),
    )
    print(f"trained {len(log.iterations)} iterations; checkpoint at {final_path}")
    return EXIT_OK


def _n_updates(run_cfg) -> int:
    """How many dual windows of a run update, by ``ExecConfig.updates_after``."""
    return sum(map(run_cfg.updates_after, range(run_cfg.T // run_cfg.T0)))


def _eval_policies(cfg: ExperimentConfig, suites, args) -> int:
    """Run the (name, policy, exec config) suites on the test split in one pass."""
    dataset, manifest = load_dataset(dataset_dir(cfg, "test"))
    provenance = _provenance(cfg)
    eval_dir = Path(cfg.output_dir) / "eval"
    results = evaluate_suites([(p, c) for _, p, c in suites], dataset, cfg.problem)
    metric_rows, user_rows, timing_rows = [], [], []
    for (name, _, run_cfg), (summary, traces, seconds) in zip(suites, results):
        n_steps = len(dataset) * run_cfg.T
        timing_rows.append([cfg.problem.m, name, seconds * 1e3 / n_steps, n_steps])
        final = np.stack([trace.final_ergodic for trace in traces])  # (realizations, m)
        user_rows += [[name, r, u, rate] for (r, u), rate in np.ndenumerate(final)]
        stats = [*enumerate(metrics(rates, cfg.problem) for rates in final), ("pooled", summary)]
        metric_rows += [[name, r, s.n_users, s.mean_rate, s.min_rate_trimmed, s.p5_rate,
                         s.feasibility_fraction] for r, s in stats]
        for r, trace in enumerate(traces[: args.export_trace]):
            # a trailing partial window runs under the dual after the last update
            in_force = np.vstack([trace.duals, trace.final_dual])
            # the running mean of the rates up to each step; its last row is final_ergodic
            ergodic = np.cumsum(trace.rates, axis=0) / np.arange(1, run_cfg.T + 1)[:, None]
            table = np.stack([trace.powers / cfg.problem.p_max, trace.rates, ergodic,
                              in_force[np.arange(run_cfg.T) // run_cfg.T0]], axis=-1)  # (T, m, 4)
            rows = [[t, u, *table[t, u]] for t, u in np.ndindex(table.shape[:2])]
            header = ["t", "user", "power_norm", "rate", "ergodic_rate", "mu_current"]
            write_csv(eval_dir / f"trace_{name}_r{r:03d}.csv", header, rows, provenance)
        if args.export_cdf:
            pooled = np.sort(final, axis=None)
            rows = [[rate, (i + 1) / pooled.size] for i, rate in enumerate(pooled)]
            header = ["ergodic_rate", "cum_fraction"]
            write_csv(eval_dir / f"cdf_{name}.csv", header, rows, provenance)
        print(
            f"{name}: mean={summary.mean_rate:.3f} min={summary.min_rate_trimmed:.3f} "
            f"p5={summary.p5_rate:.3f} feas={summary.feasibility_fraction:.3f} "
            f"({manifest['count']} realizations)"
        )
    metrics_header = ["policy", "realization", "n_users", "mean_rate", "min_rate_trimmed",
                      "p5_rate", "feasibility_fraction"]
    write_csv(eval_dir / "metrics.csv", metrics_header, metric_rows, provenance)
    write_csv(
        eval_dir / "rates.csv", ["policy", "realization", "user", "ergodic_rate"], user_rows,
        provenance,
    )
    if args.export_timing:
        write_csv(
            eval_dir / "timing.csv", ["m", "policy", "mean_step_ms", "n_steps"], timing_rows,
            provenance,
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_experiment(args)
    name, run_cfg = args.policy, cfg.execution
    if (name == "early_stop") != (args.t_stop is not None):
        raise ConfigError("--t-stop is needed by --policy early_stop and refused by the others")
    policy = _policy_for(name, cfg, args.checkpoint)
    if name == "early_stop":
        name, run_cfg = f"early_stop_{args.t_stop}", replace(run_cfg, t_stop=args.t_stop)
        if _n_updates(run_cfg) == _n_updates(cfg.execution):
            raise ConfigError(f"--t-stop {args.t_stop} freezes no dual window; the run would "
                              "be state_augmented")
    return _eval_policies(cfg, [(name, policy, run_cfg)], args)


def cmd_baselines(args) -> int:
    cfg = _load_experiment(args)
    run_cfg = cfg.execution
    suites = [
        ("full_reuse", FullReusePolicy(), run_cfg),
        ("itlinq", ItlinqPolicy(cfg.itlinq), run_cfg),
    ]
    if args.checkpoint is not None:
        gnn_policy = _policy_for("state_augmented", cfg, args.checkpoint)
        # a GNN run is fixed by how many dual windows update: keep the first of each count
        gnn_runs = {_n_updates(run_cfg): ("state_augmented", run_cfg)}
        for t_stop in (0, run_cfg.T // 5, run_cfg.T):
            stop_cfg = replace(run_cfg, t_stop=t_stop)
            gnn_runs.setdefault(_n_updates(stop_cfg), (f"early_stop_{t_stop}", stop_cfg))
        suites += [(name, gnn_policy, c) for name, c in gnn_runs.values()]
    return _eval_policies(cfg, suites, args)


def cmd_gradcheck(args) -> int:
    cfg = _load_experiment(args)
    report = finite_difference_check(cfg.problem, cfg.gnn, cfg.topology, cfg.seed)
    for check in report.checks:
        print(
            f"{check.tensor}{list(check.index)}: analytic={check.analytic:.6e} "
            f"numeric={check.numeric:.6e} rel_err={check.rel_err:.3e}"
        )
    print(f"max relative error over coordinates above the noise floor at tol {FD_TOL:g}: "
          f"{report.max_measurable_rel_err:.3e}")
    print(f"vacuous coordinates (both derivatives exactly 0): {report.n_vacuous}")
    if not report.passed:
        print("GRADCHECK FAIL")
        return EXIT_NUMERIC
    print("GRADCHECK PASS")
    return EXIT_OK


def cmd_theorem_suite(args) -> int:
    cfg = _load_experiment(args)
    dataset, _ = load_dataset(dataset_dir(cfg, "test"))
    policy = _policy_for("state_augmented", cfg, args.checkpoint)
    _, traces = evaluate_suite(policy, dataset, cfg.execution, cfg.problem)
    all_ok = True
    for r, trace in enumerate(traces):
        for result in dual_trace_battery(trace, cfg.execution, cfg.problem):
            status = "PASS" if result.passed else "FAIL"
            all_ok &= result.passed
            print(f"trace {r:03d} {result.name}: {status} ({result.detail})")
    print("THEOREM-SUITE", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_NUMERIC


def _at_least(minimum: int):
    """An argparse type for a count of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    # no option prefixes, so a removed or mistyped flag cannot become another
    parser = argparse.ArgumentParser(
        prog="dualrrm",
        description="Constraint-aware power control experiments",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, allow_abbrev=False)  # not inherited

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--m-override", type=int, default=None,
                       help="override the number of user pairs")

    def exports(p: argparse.ArgumentParser) -> None:
        p.add_argument("--export-trace", type=_at_least(0), default=0, metavar="N",
                       help="write per-step traces for the first N realizations")
        p.add_argument("--export-cdf", action="store_true")
        p.add_argument("--export-timing", action="store_true")

    p = add_parser("generate", help="draw and cache a dataset split")
    common(p)
    p.add_argument("--split", choices=("train", "test"), required=True)
    p.set_defaults(func=cmd_generate)

    p = add_parser("train", help="train the policy on the cached train split")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--timing", action="store_true",
                   help="fill the wall_ms column (breaks byte-reproducibility)")
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="evaluate one policy on the test split")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument(
        "--policy",
        default="state_augmented",
        choices=("state_augmented", "full_reuse", "itlinq", "early_stop"),
    )
    p.add_argument("--t-stop", type=int, default=None)
    exports(p)
    p.set_defaults(func=cmd_eval)

    p = add_parser("baselines", help="run the policy comparison suite")
    common(p)
    p.add_argument("--checkpoint", default=None,
                   help="adds the trained policy and its early-stop ablations")
    exports(p)
    p.set_defaults(func=cmd_baselines)

    p = add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = add_parser("theorem-suite", help="dual-dynamics law battery")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_theorem_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RrmError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
