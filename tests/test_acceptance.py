"""Acceptance battery: every exit criterion with its stated tolerance.

Each test prints one PASS/FAIL line.  The feasibility experiment (criterion
5) trains one policy per master seed and shares the artifacts with the
early-stopping and transferability criteria through a session fixture.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dualrrm import execution
from dualrrm.baselines import FullReusePolicy
from dualrrm.channel import Realization, TopologyConfig, sample_topology
from dualrrm.core import RrmProblemConfig, block_steps, constraints_g, rates
from dualrrm.execution import ExecConfig, evaluate_suite, execute
from dualrrm.graph import build_graph
from dualrrm.policy import (
    GnnConfig,
    GnnParams,
    episode_eval,
    episode_tensors,
    forward,
    init_params,
)
from dualrrm.seeding import derive_seed
from dualrrm.training import TrainConfig, sample_duals, train, train_per_mu_oracle
from dualrrm.verify import FD_COORDS, FD_STEP, FD_STEPS, FD_TOL, finite_difference_check

from conftest import force_cpus, make_realizations, relabel_matrix


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 5/6/7 shared artifacts: the desk-scale feasibility experiment.
# m=6 in a 500 m square, 300 iterations, B=16, T=50; executed with T=400,
# T0=5, eta_mu=20 on 32 held-out realizations; five master seeds.
# ---------------------------------------------------------------------------

MASTER_SEEDS = (101, 102, 103, 104, 105)
EXPERIMENT_EXEC = ExecConfig(T=400, T0=5, eta_mu=20.0)
FEASIBILITY_TOL = 0.05


def tolerant_feasibility(traces, problem):
    """Fraction of pooled final ergodic rates at least f_min - FEASIBILITY_TOL."""
    pooled = np.concatenate([tr.final_ergodic for tr in traces])
    return float(np.mean(pooled >= problem.f_min_bps_hz - FEASIBILITY_TOL))


@pytest.fixture(scope="session")
def feasibility_experiment():
    start = time.time()
    runs = []
    for seed in MASTER_SEEDS:
        train_set = make_realizations(m=6, count=32, seed=derive_seed(seed, 10))
        test_set = make_realizations(m=6, count=32, seed=derive_seed(seed, 11))
        cfg = TrainConfig(n_iters=300, batch_size=16, episode_len=50, seed=seed)
        params, _ = train(cfg, RrmProblemConfig(m=6), GnnConfig(), train_set)
        runs.append((seed, params, test_set))
    return runs, time.time() - start


class TestCriterion1Gradient:
    def test_gradient_exactness(self):
        start = time.time()
        report_obj = finite_difference_check(
            RrmProblemConfig(m=6), GnnConfig(f1=16, f2=16),
            TopologyConfig(m=6, area_side_m=500.0), seed=2024,
        )
        elapsed = time.time() - start
        tensors = {c.tensor for c in report_obj.checks}
        worst_abs = max(c.abs_err for c in report_obj.checks)
        measurable_rel = report_obj.max_measurable_rel_err
        passed = (
            (FD_STEPS, FD_COORDS, FD_STEP, FD_TOL) == (10, 50, 1e-6, 1e-4)
            and report_obj.passed
            and elapsed < 30.0
            and len(report_obj.checks) == 50
            and len(tensors) == 10  # every weight tensor represented
        )
        report(
            "1 gradient-exactness", passed,
            f"rel err {measurable_rel:.2e} above the FD noise "
            f"floor, abs err {worst_abs:.2e}, 50 coords ({report_obj.n_vacuous} vacuous) "
            f"in {elapsed:.1f}s",
        )

    def test_directional_derivatives_of_a_batch_block(self):
        # Acceptance 1's setting with B=3 episodes in one gradient block: the
        # batch-mean Lagrangian's central difference along a random unit
        # direction of the whole parameter vector checks every coordinate at
        # once, where coordinate picks land on dead units.  The errors stay
        # below 2e-8; layer2.w3's gradient scaled by 0.99 gives 1e-3 to 5e-3.
        problem, dims, seed = RrmProblemConfig(m=6), GnnConfig(f1=16, f2=16), 2024
        n_steps, batch, step = 10, 3, 1e-5
        assert block_steps(8 * problem.m * dims.f1) >= batch * n_steps
        episodes = [episode_tensors(real.episode(n_steps), problem)
                    for real in make_realizations(m=6, count=batch, seed=seed)]
        mu = sample_duals(problem.m, batch, ("uniform", 0.0, 1.0), seed + 2)
        params = init_params(dims, seed + 3)

        def objective(flat):
            values, _, _ = episode_eval(episodes, mu, GnnParams(flat, dims), problem)
            return float(np.mean(values))

        _, grads, _ = episode_eval(episodes, mu, params, problem)
        analytic = grads.flat.mean(axis=0)
        skewed = GnnParams(analytic.copy(), dims)
        skewed.w3[1][...] *= 0.99
        rng = np.random.default_rng(seed)
        errors, skewed_errors = [], []
        for _ in range(5):
            direction = rng.standard_normal(params.flat.size)
            direction /= np.linalg.norm(direction)
            numeric = (objective(params.flat + step * direction)
                       - objective(params.flat - step * direction)) / (2 * step)
            for grad, out in ((analytic, errors), (skewed.flat, skewed_errors)):
                exact = float(grad @ direction)
                out.append(abs(numeric - exact) / max(abs(numeric), abs(exact)))
        assert max(errors) < 1e-6, errors
        assert min(skewed_errors) > 1e-6, skewed_errors


class TestCriterion2Equivariance:
    def test_forward_and_rates_equivariance(self):
        start = time.time()
        rng = np.random.default_rng(7)
        worst_forward = 0.0
        rates_exact = True
        params = init_params(GnnConfig(f1=16, f2=16), 77)
        checks = 0
        for m in range(3, 9):
            problem = RrmProblemConfig(m=m)
            (real,) = make_realizations(m=m, count=1, seed=900 + m)
            g2 = real.episode(1)[0]
            mu = rng.uniform(0, 1, m)
            p = rng.uniform(0, problem.p_max, m)
            base_powers = forward(build_graph(g2, problem), mu, params, problem.p_max)
            base_rates = rates(g2, p, problem)
            base_g = constraints_g(base_rates, problem)
            for _ in range(20):
                perm = rng.permutation(m)
                g2p = relabel_matrix(g2, perm)
                out = forward(build_graph(g2p, problem), mu[perm], params, problem.p_max)
                worst_forward = max(
                    worst_forward, float(np.max(np.abs(out - base_powers[perm])))
                )
                rp = rates(g2p, p[perm], problem)
                rates_exact &= np.array_equal(rp, base_rates[perm])
                rates_exact &= np.array_equal(constraints_g(rp, problem), base_g[perm])
                checks += 1
        elapsed = time.time() - start
        passed = worst_forward < 1e-9 and rates_exact and elapsed < 10.0
        report(
            "2 permutation-equivariance", passed,
            f"{checks} permutations, forward dev {worst_forward:.2e}, "
            f"rates bit-exact {rates_exact}, {elapsed:.1f}s",
        )


class TestCriterion3DualArithmetic:
    def test_hand_values(self):
        from dualrrm.execution import dual_update

        problem = RrmProblemConfig(m=1)
        cfg = ExecConfig(T=5, T0=5, eta_mu=20.0)
        window = np.full((5, 1), problem.f_min_bps_hz + 0.01)
        no_proj = dual_update(np.array([0.5]), window, cfg, problem)
        expected = max(0.0, 0.5 - 20.0 * (float(np.mean(window)) - problem.f_min_bps_hz))
        proj = dual_update(np.array([0.1]), window, cfg, problem)
        balanced = dual_update(
            np.array([0.7]), np.full((5, 1), problem.f_min_bps_hz), cfg, problem
        )
        passed = (
            no_proj[0] == expected
            and abs(no_proj[0] - 0.3) < 1e-12
            and proj[0] == 0.0
            and balanced[0] == 0.7
        )
        report(
            "3 dual-arithmetic", passed,
            f"update {no_proj[0]!r}, projected {proj[0]!r}, balanced {balanced[0]!r}",
        )


class TestCriterion4ViolationResponse:
    def test_violation_raises_dual_on_32_traces(self):
        problem = RrmProblemConfig(m=4)
        dataset = make_realizations(m=4, count=8, seed=404, area=350.0)
        cfg = TrainConfig(n_iters=120, batch_size=8, episode_len=20, seed=44)
        params, _ = train(cfg, problem, GnnConfig(f1=16, f2=16), dataset)
        run = ExecConfig(T=200, T0=5, eta_mu=20.0)
        traces = []
        for i in range(32):
            (real,) = make_realizations(m=4, count=1, seed=derive_seed(405, i), area=350.0)
            traces.append(execute(params, real.episode(run.T), run, problem))
        exceptions = 0
        checked = 0
        for trace in traces:
            for k in range(trace.duals.shape[0] - 1):
                window = trace.rates[k * run.T0 : (k + 1) * run.T0].mean(axis=0)
                for i in range(problem.m):
                    if window[i] < problem.f_min_bps_hz:
                        checked += 1
                        if not trace.duals[k + 1, i] > trace.duals[k, i]:
                            exceptions += 1
        passed = exceptions == 0 and checked > 0
        report(
            "4 violation-response", passed,
            f"{checked} violated (user, window) pairs on 32 traces, {exceptions} exceptions",
        )


class TestCriterion5Feasibility:
    def test_desk_scale_feasibility(self, feasibility_experiment):
        start = time.time()
        runs, train_seconds = feasibility_experiment
        problem = RrmProblemConfig(m=6)
        seed_pass = []
        details = []
        for seed, params, test_set in runs:
            sa, sa_traces = evaluate_suite(params, test_set, EXPERIMENT_EXEC, problem)
            fr, _ = evaluate_suite(FullReusePolicy(), test_set, EXPERIMENT_EXEC, problem)
            feas = tolerant_feasibility(sa_traces, problem)
            ok = feas >= 0.95 and sa.min_rate_trimmed > fr.min_rate_trimmed
            seed_pass.append(ok)
            details.append(
                f"seed {seed}: feas {feas:.3f} "
                f"min {sa.min_rate_trimmed:.3f} vs FR {fr.min_rate_trimmed:.3f}"
            )
        elapsed = time.time() - start
        total = train_seconds + elapsed
        passed = sum(seed_pass) >= 4 and total < 900.0
        report(
            "5 desk-scale-feasibility", passed,
            f"{sum(seed_pass)}/5 seeds; " + "; ".join(details)
            + f"; train+eval {total:.0f}s",
        )


class TestCriterion6EarlyStopping:
    def test_early_stopping_degrades_feasibility(self, feasibility_experiment):
        runs, _ = feasibility_experiment
        problem = RrmProblemConfig(m=6)
        wins = 0
        details = []
        for seed, params, test_set in runs:
            _, frozen_traces = evaluate_suite(
                params, test_set, replace(EXPERIMENT_EXEC, t_stop=0), problem,
            )
            _, full_traces = evaluate_suite(
                params, test_set, replace(EXPERIMENT_EXEC, t_stop=EXPERIMENT_EXEC.T), problem,
            )
            frozen = tolerant_feasibility(frozen_traces, problem)
            full = tolerant_feasibility(full_traces, problem)
            ok = frozen <= full
            wins += ok
            details.append(f"seed {seed}: stop0 {frozen:.3f} vs full {full:.3f}")
        passed = wins >= 4
        report("6 early-stopping", passed, f"{wins}/5 seeds; " + "; ".join(details))


class TestCriterion7Transferability:
    def test_m6_checkpoint_runs_at_m12(self, feasibility_experiment):
        runs, _ = feasibility_experiment
        _, params, _ = runs[0]
        problem12 = RrmProblemConfig(m=12)
        # same user density as the training networks: area scales with m
        side = 500.0 * np.sqrt(12 / 6)
        test12 = make_realizations(m=12, count=16, seed=712, area=side)
        summary, _ = evaluate_suite(params, test12, EXPERIMENT_EXEC, problem12)
        passed = summary.feasibility_fraction >= 0.80
        report(
            "7 transferability", passed,
            f"m=6 checkpoint on m=12: feasibility {summary.feasibility_fraction:.3f}",
        )


class TestCriterion8TheoremGap:
    def test_state_augmented_close_to_per_mu_oracles(self):
        start = time.time()
        problem = RrmProblemConfig(m=4)
        dims = GnnConfig()
        dataset = make_realizations(m=4, count=16, seed=821)
        cfg = TrainConfig(n_iters=300, batch_size=16, episode_len=20, seed=21)
        sa_params, _ = train(cfg, problem, dims, dataset)
        tensors = [episode_tensors(r.episode(20), problem) for r in dataset]

        def mean_lagrangian(params, mu, node_features=None):
            return float(
                np.mean(
                    [
                        episode_eval(t, mu, params, problem, node_features=node_features)[0]
                        for t in tensors
                    ]
                )
            )

        ones = np.ones(4)
        mus = sample_duals(4, 5, ("uniform", 0.0, 1.0), 99)
        within = 0
        details = []
        for mu in mus:
            oracle = train_per_mu_oracle(mu, cfg, problem, dims, dataset)
            l_sa = mean_lagrangian(sa_params, mu)
            l_oracle = mean_lagrangian(oracle, mu, node_features=ones)
            delta = l_oracle - l_sa
            ratio = delta / abs(l_oracle)
            within += ratio <= 0.10
            details.append(f"delta {delta:+.3f} ratio {ratio:+.3f}")
        elapsed = time.time() - start
        passed = within >= 4 and elapsed < 600.0
        report(
            "8 theorem-gap", passed,
            f"{within}/5 draws within 10%; " + "; ".join(details) + f"; {elapsed:.0f}s",
        )


class TestCriterion9TwoUserOracle:
    def test_grid_oracle_on_static_instances(self):
        start = time.time()
        problem = RrmProblemConfig(m=2)
        topo = TopologyConfig(m=2, area_side_m=500.0)
        grid = np.linspace(0.0, problem.p_max, 101)
        wins = 0
        details = []
        for inst in range(10):
            large = sample_topology(topo, derive_seed(1234, 0, inst))
            real = Realization(
                large=large,
                fading_seed=derive_seed(1234, 1, inst),
                rho=1.0,  # frozen fading: the channel is static
                topology_seed=inst,
            )
            g2 = real.episode(1)[0]
            # the whole grid in one call: f[i, j] are the rates at (grid[i], grid[j])
            f = rates(g2, np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1), problem)
            sums = np.where((f >= problem.f_min_bps_hz).all(axis=-1), f.sum(axis=-1), -np.inf)
            best = float(sums.max())
            assert np.isfinite(best), f"instance {inst} has no feasible grid point"
            cfg = TrainConfig(n_iters=300, batch_size=16, episode_len=4, seed=inst)
            params, _ = train(cfg, problem, GnnConfig(), [real])
            run = ExecConfig(T=1000, T0=5, eta_mu=20.0)
            trace = execute(params, real.episode(run.T), run, problem)
            ergodic = trace.final_ergodic
            feasible = bool((ergodic >= problem.f_min_bps_hz).all())
            ratio = float(ergodic.sum()) / best
            ok = feasible and ratio >= 0.85
            wins += ok
            details.append(f"i{inst}: ratio {ratio:.2f} feas {feasible}")
        elapsed = time.time() - start
        passed = wins >= 7
        report(
            "9 two-user-oracle", passed,
            f"{wins}/10 instances; " + "; ".join(details) + f"; {elapsed:.0f}s",
        )


class TestCriterion10Reproducibility:
    def test_pipeline_reproducible_across_workers(self, tmp_path, monkeypatch):
        from dualrrm.cli import EXIT_OK, main

        cfg = {
            "seed": 31,
            "output_dir": str(tmp_path / "run"),
            "topology": {"m": 4, "area_side_m": 500.0},
            "gnn": {"f1": 8, "f2": 8},
            "train": {"n_iters": 6, "batch_size": 4, "episode_len": 8},
            "execution": {"T": 20, "T0": 5},
            "data": {"n_train": 4, "n_test": 3},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        ckpt = run / "checkpoints" / "checkpoint_final.json"
        watched = [
            run / "datasets" / "train" / "manifest.json",
            run / "datasets" / "test" / "realization_00000.json",
            run / "training_log.csv",
            run / "eval" / "metrics.csv",
            run / "eval" / "rates.csv",
            ckpt,
        ]

        pools, real_pool = [], execution.ProcessPoolExecutor
        monkeypatch.setattr(execution, "ProcessPoolExecutor",
                            lambda max_workers, **kw: pools.append(max_workers)
                            or real_pool(max_workers, **kw))

        def pipeline(cpus):
            force_cpus(monkeypatch, cpus)
            assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
            assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
            assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
            assert main(
                ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]
            ) == EXIT_OK
            return {str(f): f.read_bytes() for f in watched}

        first = pipeline(cpus=1)
        second = pipeline(cpus=4)
        identical = all(first[k] == second[k] for k in first)
        # the 3 test realizations evaluate in this process as one stacked
        # block, then as three one-realization blocks on 3 processes
        report(
            "10 reproducibility", identical and pools == [3],
            f"{len(watched)} artifacts byte-identical across runs on 1 and 4 usable CPUs; "
            f"evaluation pools {pools}",
        )
