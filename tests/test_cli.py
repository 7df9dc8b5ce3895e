import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualrrm
from dualrrm import BLAS_THREAD_VARS, errors
from dualrrm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from dualrrm.policy import load_checkpoint

from conftest import force_cpus, params_equal, record_pool_sizes


def read_csv(path):
    """Provenance fields and row dicts of a CSV written by the CLI."""
    with open(path, newline="") as f:
        comment = f.readline().strip().lstrip("# ")
        meta = dict(part.split("=", 1) for part in comment.split())
        rows = list(csv.DictReader(f))
    return meta, rows


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "seed": 5,
        "output_dir": str(tmp_path / "run"),
        "topology": {"m": 3, "area_side_m": 500.0},
        "gnn": {"f1": 8, "f2": 8},
        "train": {"n_iters": 4, "batch_size": 4, "episode_len": 6},
        "execution": {"T": 20, "T0": 5},
        "data": {"n_train": 3, "n_test": 2},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full generate + train + eval flow on a tiny configuration."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg_path = write_cfg(tmp_path)
    assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
    assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    run = tmp_path / "run"
    ckpt = run / "checkpoints" / "checkpoint_final.json"
    assert main(
        ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--export-cdf"]
    ) == EXIT_OK
    return tmp_path, cfg_path, run, ckpt


class TestGenerate:
    def test_dataset_files_and_manifest(self, workspace):
        _, _, run, _ = workspace
        train_dir = run / "datasets" / "train"
        assert (train_dir / "manifest.json").exists()
        assert len(list(train_dir.glob("realization_*.json"))) == 3

    def test_generate_deterministic(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
        manifest = tmp_path / "run" / "datasets" / "test" / "manifest.json"
        first = manifest.read_bytes()
        assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
        assert manifest.read_bytes() == first

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        manifest = tmp_path / "run" / "datasets" / "test" / "manifest.json"
        assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
        baseline = json.loads(manifest.read_text())
        assert main(
            ["generate", "--config", str(cfg_path), "--split", "test", "--seed", "99"]
        ) == EXIT_OK
        reseeded = json.loads(manifest.read_text())
        assert reseeded["master_seed"] == 99
        assert reseeded["seeds"] != baseline["seeds"]


class TestTrain:
    def test_zero_epoch_checkpoint_equals_init(self, tmp_path):
        from dualrrm.policy import GnnConfig, init_params
        from dualrrm.seeding import PARAM_INIT, derive_seed

        cfg_path = write_cfg(tmp_path, train={"n_iters": 0, "batch_size": 4, "episode_len": 6})
        assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
        assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
        ckpt = load_checkpoint(tmp_path / "run" / "checkpoints" / "checkpoint_final.json")
        expected = init_params(GnnConfig(f1=8, f2=8), derive_seed(5, PARAM_INIT))
        assert params_equal(ckpt.params, expected)

    def test_log_rows_match_iterations(self, workspace):
        _, _, run, _ = workspace
        _, rows = read_csv(run / "training_log.csv")
        assert [int(r["iteration"]) for r in rows] == list(range(4))
        assert all(r["wall_ms"] == "" for r in rows)  # timing off by default

    def test_resume_reproduces_monolithic_run(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, train={"n_iters": 6, "batch_size": 4, "episode_len": 6,
                             "checkpoint_every": 3}
        )
        assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
        assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
        ckpt_dir = tmp_path / "run" / "checkpoints"
        full = (ckpt_dir / "checkpoint_final.json").read_bytes()
        mid = ckpt_dir / "checkpoint_000003.json"
        assert mid.exists()
        assert main(
            ["train", "--config", str(cfg_path), "--resume", str(mid)]
        ) == EXIT_OK
        assert (ckpt_dir / "checkpoint_final.json").read_bytes() == full

    def test_resume_past_the_schedule_refused(self, tmp_path, capsys):
        # a checkpoint from a longer run holds an iteration this schedule never reaches
        cfg_path = write_cfg(tmp_path)
        assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
        assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
        run = tmp_path / "run"
        final, log = run / "checkpoints" / "checkpoint_final.json", run / "training_log.csv"
        before = final.read_bytes(), log.read_bytes()
        late = tmp_path / "late.json"
        late.write_bytes(_edit(lambda d: d.update(iteration=9))(before[0]))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--resume", str(late)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: start iteration 9")
        assert (final.read_bytes(), log.read_bytes()) == before


class TestEval:
    def test_metrics_csv_schema(self, workspace):
        _, _, run, _ = workspace
        meta, rows = read_csv(run / "eval" / "metrics.csv")
        assert set(meta) == {"tool_version", "config_hash", "master_seed"}
        assert [r["policy"] for r in rows] == ["state_augmented"] * 3
        assert [r["realization"] for r in rows] == ["0", "1", "pooled"]

    def test_pooled_row_recomputable_from_user_rates(self, workspace):
        _, _, run, _ = workspace
        from dualrrm.core import RrmProblemConfig, metrics

        _, pooled_rows = read_csv(run / "eval" / "metrics.csv")
        pooled = next(r for r in pooled_rows if r["realization"] == "pooled")
        _, user_rows = read_csv(run / "eval" / "rates.csv")
        values = np.array([float(r["ergodic_rate"]) for r in user_rows])
        redo = metrics(values, RrmProblemConfig(m=3))
        assert float(pooled["mean_rate"]) == redo.mean_rate
        assert float(pooled["min_rate_trimmed"]) == redo.min_rate_trimmed
        assert float(pooled["p5_rate"]) == redo.p5_rate
        assert float(pooled["feasibility_fraction"]) == redo.feasibility_fraction

    def test_cdf_export(self, workspace):
        _, _, run, _ = workspace
        _, rows = read_csv(run / "eval" / "cdf_state_augmented.csv")
        assert len(rows) == 6  # 2 realizations x 3 users
        fractions = [float(r["cum_fraction"]) for r in rows]
        assert fractions[-1] == 1.0
        values = [float(r["ergodic_rate"]) for r in rows]
        assert values == sorted(values)

    def test_full_reuse_needs_no_checkpoint(self, workspace):
        tmp_path, cfg_path, run, _ = workspace
        assert main(
            ["eval", "--config", str(cfg_path), "--policy", "full_reuse"]
        ) == EXIT_OK

    def test_checkpoint_transfers_to_other_m(self, workspace, tmp_path):
        # checkpoint trained at m=3 evaluates on an m=5 test set
        _, cfg_path, _, ckpt = workspace
        transfer_cfg = write_cfg(
            tmp_path, name="transfer.json", output_dir=str(tmp_path / "transfer"),
            topology={"m": 5, "area_side_m": 700.0},
        )
        assert main(["generate", "--config", str(transfer_cfg), "--split", "test"]) == EXIT_OK
        assert main(
            ["eval", "--config", str(transfer_cfg), "--checkpoint", str(ckpt)]
        ) == EXIT_OK

    def test_m_override_flag(self, workspace, tmp_path):
        _, cfg_path, _, ckpt = workspace
        out = str(tmp_path / "override")
        assert main(
            ["generate", "--config", str(cfg_path), "--split", "test",
             "--m-override", "4", "--out", out]
        ) == EXIT_OK
        assert main(
            ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
             "--m-override", "4", "--out", out]
        ) == EXIT_OK

    @pytest.mark.parametrize("policy", ["state_augmented", "full_reuse"])
    def test_t_stop_refused_without_early_stop(self, workspace, capsys, policy):
        _, cfg_path, _, ckpt = workspace
        capsys.readouterr()
        code = main(
            ["eval", "--config", str(cfg_path), "--policy", policy,
             "--checkpoint", str(ckpt), "--t-stop", "0"]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("command", ["eval", "baselines", "theorem-suite"])
    def test_pool_follows_parallel_slots(self, workspace, tmp_path, monkeypatch, command):
        # 3 test realizations on 4 usable CPUs run on 3 processes; BLAS on
        # two threads, or of a count the probe cannot read, runs them in
        # this process
        _, _, _, ckpt = workspace
        cfg_path = write_cfg(tmp_path, data={"n_test": 3})
        assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
        argv = [command, "--config", str(cfg_path), "--checkpoint", str(ckpt)]
        sizes = record_pool_sizes(monkeypatch)
        force_cpus(monkeypatch, 4)
        assert main(argv) == EXIT_OK
        assert sizes == [3]
        for threads in (2, None):
            monkeypatch.setattr(dualrrm, "blas_threads", lambda: threads)
            assert main(argv) == EXIT_OK
            assert sizes == [3]

    @pytest.mark.parametrize("command", ["eval", "baselines"])
    def test_config_t_stop_refused(self, workspace, tmp_path, capsys, command):
        # a config t_stop would run the state_augmented suite as early_stop
        _, _, run, ckpt = workspace
        out = tmp_path / "out"
        shutil.copytree(run / "datasets" / "test", out / "datasets" / "test")
        cfg_path = write_cfg(tmp_path, output_dir=str(out), execution={"t_stop": 0})
        capsys.readouterr()
        code = main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and "--policy early_stop --t-stop" in err
        assert not (out / "eval").exists()

    def test_mu_init_of_wrong_length_refused(self, workspace, tmp_path, capsys):
        # the config reader cannot know m's length; execute refuses it
        _, _, run, _ = workspace
        out = tmp_path / "out"
        shutil.copytree(run / "datasets" / "test", out / "datasets" / "test")
        cfg_path = write_cfg(tmp_path, output_dir=str(out), execution={"mu_init": [0.1, 0.2]})
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg_path), "--policy", "full_reuse"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: mu_init shape (2,)") and "Traceback" not in err
        assert not (out / "eval").exists()

    @pytest.mark.parametrize("t_stop", [20, 400])
    def test_t_stop_that_freezes_no_window_refused(self, workspace, tmp_path, capsys, t_stop):
        # at T=20, T0=5 the last window ends at step 19, so t_stop >= 20 lets
        # every window update: the run would be state_augmented under another name
        _, cfg_path, run, ckpt = workspace
        out = tmp_path / "out"
        shutil.copytree(run / "datasets" / "test", out / "datasets" / "test")
        argv = ["eval", "--config", str(cfg_path), "--policy", "early_stop",
                "--checkpoint", str(ckpt), "--out", str(out)]
        capsys.readouterr()
        assert main(argv + ["--t-stop", str(t_stop)]) == EXIT_CONFIG
        assert "freezes no dual window" in capsys.readouterr().err
        assert not (out / "eval").exists()
        assert main(argv + ["--t-stop", "19"]) == EXIT_OK

    def test_early_stop_requires_t_stop(self, workspace):
        _, cfg_path, _, ckpt = workspace
        code = main(
            ["eval", "--config", str(cfg_path), "--policy", "early_stop",
             "--checkpoint", str(ckpt)]
        )
        assert code == EXIT_CONFIG


class TestBaselinesCommand:
    def test_policy_column_covers_suite(self, workspace, tmp_path):
        _, cfg_path, _, ckpt = workspace
        out = str(tmp_path / "bl")
        assert main(
            ["generate", "--config", str(cfg_path), "--split", "test", "--out", out]
        ) == EXIT_OK
        assert main(
            ["baselines", "--config", str(cfg_path), "--checkpoint", str(ckpt),
             "--out", out]
        ) == EXIT_OK
        _, rows = read_csv(Path(out) / "eval" / "metrics.csv")
        policies = {r["policy"] for r in rows}
        # at T=20, T0=5 early_stop_20 repeats state_augmented and early_stop_4
        # (no complete window before step 4) repeats early_stop_0
        assert policies == {"full_reuse", "itlinq", "state_augmented", "early_stop_0"}

    def test_each_test_realization_synthesized_once(self, workspace, tmp_path, monkeypatch):
        from dualrrm.channel import Realization

        _, cfg_path, _, ckpt = workspace
        out = str(tmp_path / "bl")
        assert main(
            ["generate", "--config", str(cfg_path), "--split", "test", "--out", out]
        ) == EXIT_OK
        real, seen = Realization.episode, []

        def spy(self, n_steps):
            seen.append(self.fading_seed)
            return real(self, n_steps)

        monkeypatch.setattr(Realization, "episode", spy)
        record_pool_sizes(monkeypatch)  # a pool in this process, where the spy sees it
        assert main(
            ["baselines", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--out", out]
        ) == EXIT_OK
        assert len(seen) == 2 and len(set(seen)) == 2  # n_test realizations, once each


class TestVerificationCommands:
    def test_gradcheck_passes(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert main(["gradcheck", "--config", str(cfg_path)]) == EXIT_OK

    def test_gradcheck_runs_at_config_m_and_topology(self, tmp_path, monkeypatch):
        # 50 transmitters do not fit the check's default 500 m square; the
        # config's 2 km area holds them
        import dualrrm.cli as cli

        real, seen = cli.finite_difference_check, []

        def spy(problem, dims, topology, seed):
            seen.append((problem.m, topology.m, topology.area_side_m))
            return real(problem, dims, topology, seed)

        monkeypatch.setattr(cli, "finite_difference_check", spy)
        cfg_path = write_cfg(tmp_path, topology={"m": 50, "area_side_m": 2000.0})
        assert main(["gradcheck", "--config", str(cfg_path)]) == EXIT_OK
        assert seen == [(50, 50, 2000.0)]

    def test_numeric_failure_exit_code(self, tmp_path):
        # resuming from a checkpoint that overflows the forward pass must
        # abort with the numeric-failure exit code
        import numpy as np

        from dualrrm.cli import EXIT_NUMERIC
        from dualrrm.policy import Checkpoint, GnnConfig, init_params, save_checkpoint

        cfg_path = write_cfg(tmp_path)
        assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
        bad = init_params(GnnConfig(f1=8, f2=8), 0)
        bad.w_out[...] = 1e308
        bad_path = tmp_path / "bad.json"
        save_checkpoint(bad_path, Checkpoint(params=bad, seed=5, iteration=0))
        with np.errstate(over="ignore"):
            code = main(["train", "--config", str(cfg_path), "--resume", str(bad_path)])
        assert code == EXIT_NUMERIC

    def test_theorem_suite(self, workspace):
        _, cfg_path, _, ckpt = workspace
        assert main(
            ["theorem-suite", "--config", str(cfg_path), "--checkpoint", str(ckpt)]
        ) == EXIT_OK


class TestExports:
    def test_trace_export_schema_and_dual_column(self, workspace, tmp_path):
        _, cfg_path, _, ckpt = workspace
        out = str(tmp_path / "traces")
        assert main(
            ["generate", "--config", str(cfg_path), "--split", "test", "--out", out]
        ) == EXIT_OK
        assert main(
            ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
             "--out", out, "--export-trace", "1", "--export-timing"]
        ) == EXIT_OK
        _, rows = read_csv(Path(out) / "eval" / "trace_state_augmented_r000.csv")
        assert list(rows[0]) == ["t", "user", "power_norm", "rate", "ergodic_rate",
                                 "mu_current"]
        assert len(rows) == 20 * 3  # T steps x m users
        # normalized powers stay in the unit box
        assert all(0.0 <= float(r["power_norm"]) <= 1.0 for r in rows)
        # the dual column is constant within each T0-window
        for r in rows:
            t, u = int(r["t"]), int(r["user"])
            if t % 5 != 0:
                prev = next(
                    x for x in rows if int(x["t"]) == t - 1 and int(x["user"]) == u
                )
                if (t % 5) != 0:
                    assert r["mu_current"] == prev["mu_current"]
        # the ergodic column is the running mean of the file's own rate column,
        # and its last step is the realization's row in rates.csv
        rate, ergodic = np.empty((20, 3)), np.empty((20, 3))
        for r in rows:
            t, u = int(r["t"]), int(r["user"])
            rate[t, u], ergodic[t, u] = float(r["rate"]), float(r["ergodic_rate"])
        assert np.array_equal(ergodic, np.cumsum(rate, axis=0) / np.arange(1, 21)[:, None])
        _, user_rows = read_csv(Path(out) / "eval" / "rates.csv")
        final = {int(r["user"]): float(r["ergodic_rate"]) for r in user_rows
                 if r["policy"] == "state_augmented" and r["realization"] == "0"}
        assert [final[u] for u in range(3)] == list(ergodic[-1])
        _, timing_rows = read_csv(Path(out) / "eval" / "timing.csv")
        assert list(timing_rows[0]) == ["m", "policy", "mean_step_ms", "n_steps"]

    def test_timing_flag_fills_training_log(self, tmp_path):
        cfg_path = write_cfg(tmp_path, train={"n_iters": 2, "batch_size": 2,
                                              "episode_len": 4})
        assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
        assert main(["train", "--config", str(cfg_path), "--timing"]) == EXIT_OK
        _, rows = read_csv(tmp_path / "run" / "training_log.csv")
        assert all(float(r["wall_ms"]) > 0 for r in rows)


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        from dualrrm.cli import EXIT_IO

        code = main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--split", "train"])
        assert code == EXIT_IO

    def test_bad_config_value(self, tmp_path):
        cfg_path = write_cfg(tmp_path, execution={"T": 2, "T0": 5})
        assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_CONFIG

    def test_infeasible_placement(self, tmp_path):
        cfg_path = write_cfg(tmp_path, topology={"m": 40, "area_side_m": 100.0})
        assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_CONFIG

    def test_checkpoint_dim_mismatch(self, workspace, tmp_path):
        _, cfg_path, run, ckpt = workspace
        other = write_cfg(tmp_path, name="otherdims.json", gnn={"f1": 16, "f2": 8})
        code = main(["eval", "--config", str(other), "--checkpoint", str(ckpt)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--policy", "full_reuse", "--export-trace", "-2"],
            ["baselines", "--export-trace", "-1"],
        ],
        ids=["eval_trace_-2", "baselines_trace_-1"],
    )
    def test_counts_that_check_nothing_refused(self, tmp_path, argv, capsys):
        cfg_path = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,overrides",
        [(["--seed", "-1"], {}), ([], {"seed": -1}), ([], {"train": {"seed": -3}})],
        ids=["seed_flag", "config_seed", "config_train_seed"],
    )
    def test_negative_seed_refused(self, tmp_path, capsys, flags, overrides):
        cfg_path = write_cfg(tmp_path, **overrides)
        code = main(["generate", "--config", str(cfg_path), "--split", "test", *flags])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and "seed" in err

    @pytest.mark.parametrize(
        "error",
        [
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.RrmError)
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_exit_code_follows_error_class(self, monkeypatch, capsys, error):
        import dualrrm.cli as cli

        def fail(args):
            raise error("injected")

        monkeypatch.setattr(cli, "cmd_generate", fail)
        code = main(["generate", "--split", "test"])
        err = capsys.readouterr().err
        numerical = {"NumericalError", "ZeroChannel", "DegenerateNorm",
                     "NonFiniteActivation", "NonFiniteLoss"}
        if error.__name__ in numerical:
            assert code == EXIT_NUMERIC
            assert err.startswith("numerical failure: ")
        else:
            assert code == EXIT_CONFIG
            assert err.startswith("config error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--m", "2"],
            ["eval", "--export-c"],
            ["eval", "--workers", "2"],
            ["gradcheck", "--tol", "0.5"],
            ["gradcheck", "--steps", "5"],
            ["gradcheck", "--coords", "5"],
            ["theorem-suite", "--checkpoint", "c.json", "--realizations", "2"],
        ],
    )
    def test_abbreviated_flags_refused(self, argv, capsys):
        # --m and --export-c are prefixes of --m-override and --export-cdf;
        # --workers is gone, as the usable CPUs set the evaluation pool;
        # gradcheck always runs acceptance 1's check and theorem-suite checks
        # every test realization, so no flag resizes or loosens either
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err


def _deeply_nested(raw: bytes) -> bytes:
    return b"[" * 200_000 + raw + b"]" * 200_000


# a row is either overrides of the valid config or a function of its bytes
CONFIG_MUTATIONS = {
    "seed_string": {"seed": "x"},
    "seed_bool": {"seed": True},
    "seed_float": {"seed": 5.0},
    "seed_null": {"seed": None},
    "batch_size_string": {"train": {"batch_size": "4"}},
    "horizon_float": {"execution": {"T": 20.0}},
    "p_max_nan": {"problem": {"p_max_dbm": float("nan")}},
    "p_max_int_beyond_float": {"problem": {"p_max_dbm": 10**400}},
    "p_max_overflows_in_mw": {"problem": {"p_max_dbm": 4000.0}},
    "noise_underflows_to_zero_mw": {"problem": {"noise_dbm": -4000.0}},
    "p_max_2000_dbm_overflows_gradient": {"problem": {"p_max_dbm": 2000.0}},
    "p_max_3000_dbm_overflows_gradient": {"problem": {"p_max_dbm": 3000.0}},
    "checkpoint_every_negative": {"train": {"checkpoint_every": -1}},
    "checkpoint_every_zero": {"train": {"checkpoint_every": 0}},
    "lr_decay_every_zero": {"train": {"lr_decay_every_epochs": 0}},
    "lr_decay_every_negative": {"train": {"lr_decay_every_epochs": -3}},
    "lr_decay_factor_zero": {"train": {"lr_decay_factor": 0.0}},
    "lr_decay_factor_negative": {"train": {"lr_decay_factor": -0.5}},
    "use_bias_int": {"gnn": {"use_bias": 1}},
    "density_mode_number": {"topology": {"density_mode": 3}},
    "mu_init_entry_string": {"execution": {"mu_init": [0.1, "a", 0.2]}},
    "mu_dist_bound_string": {"train": {"mu_dist": ["uniform", "0", 1]}},
    "mu_dist_two_entries": {"train": {"mu_dist": ["uniform", 0.0]}},
    "mu_dist_normal": {"train": {"mu_dist": ["normal", 0.0, 1.0]}},
    "mu_dist_string": {"train": {"mu_dist": "uniform"}},
    "mu_init_number": {"execution": {"mu_init": 0.5}},
    "m_margin_int_beyond_float": {"itlinq": {"m_margin_db": 2**64}},
    "m_margin_overflows_linear": {"itlinq": {"m_margin_db": 1e300}},
    "section_null": {"train": None},
    "train_workers": {"train": {"workers": 2}},
    "eta_phi_zero": {"train": {"eta_phi": 0.0}},
    "n_iters_negative": {"train": {"n_iters": -1}},
    "epochs_negative": {"train": {"epochs": -1}},
    "t_stop_negative": {"execution": {"t_stop": -1}},
    "n_test_negative": {"data": {"n_test": -1}},
    "area_side_zero": {"topology": {"area_side_m": 0.0}},
    "problem_m_disagrees": {"problem": {"m": 20}},
    "not_utf8": lambda raw: b"\xff" + raw,
    "deeply_nested": _deeply_nested,
}


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(CONFIG_MUTATIONS))
    def test_exits_with_config_error(self, tmp_path, capsys, case):
        mutation = CONFIG_MUTATIONS[case]
        if callable(mutation):
            cfg_path = write_cfg(tmp_path)
            cfg_path.write_bytes(mutation(cfg_path.read_bytes()))
        else:
            cfg_path = write_cfg(tmp_path, **mutation)
        code = main(["generate", "--config", str(cfg_path), "--split", "test"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and "Traceback" not in err


def _edit(change):
    """A checkpoint mutation that edits the parsed JSON object."""

    def mutate(raw: bytes) -> bytes:
        d = json.loads(raw)
        change(d)
        return json.dumps(d).encode()

    return mutate


def _first_value(name, value):
    def change(d):
        d["arrays"][name]["data"][0] = value

    return _edit(change)


def _widen_input(d):
    for kind in ("w1", "w2", "w3"):
        rec = d["arrays"][f"layer1.{kind}"]
        rec["shape"][0] = 2
        rec["data"] = rec["data"] * 2


def _narrow_layer2(d):
    rec = d["arrays"]["layer2.w1"]
    rec["shape"][0] -= 1
    rec["data"] = rec["data"][: rec["shape"][0] * rec["shape"][1]]


CHECKPOINT_MUTATIONS = {
    "truncated_json": lambda raw: raw[: len(raw) // 2],
    "not_utf8": lambda raw: b"\xff\xfe\x00" + raw,
    "not_an_object": lambda raw: b"[1, 2]",
    "missing_array": _edit(lambda d: d["arrays"].pop("out.w")),
    "unknown_array": _edit(lambda d: d["arrays"].update(extra=d["arrays"]["out.b"])),
    "data_shorter_than_shape": _edit(lambda d: d["arrays"]["out.b"].update(data=[])),
    "data_not_numbers": _edit(lambda d: d["arrays"]["out.b"].update(data=["0.5"])),
    "input_width_two": _edit(_widen_input),
    "broken_chain_f1": _edit(_narrow_layer2),
    "nan_value": _first_value("layer1.b", float("nan")),
    "inf_value": _first_value("out.w", float("inf")),
    "dims_disagree": _edit(lambda d: d["dims"].update(f1=d["dims"]["f1"] + 1)),
    "dims_use_bias_missing": _edit(lambda d: d["dims"].pop("use_bias")),
    "seed_not_int": _edit(lambda d: d.update(seed="x")),
    "iteration_negative": _edit(lambda d: d.update(iteration=-1)),
    "deeply_nested": _deeply_nested,
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case", sorted(CHECKPOINT_MUTATIONS))
    def test_exits_with_config_error(self, workspace, tmp_path, capsys, case):
        _, cfg_path, _, ckpt = workspace
        bad = tmp_path / "bad.json"
        bad.write_bytes(CHECKPOINT_MUTATIONS[case](ckpt.read_bytes()))
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: checkpoint") and "Traceback" not in err


def _rewrite(name, mutate):
    """A dataset mutation that rewrites one file's bytes."""

    def apply(dataset):
        target = dataset / name
        target.write_bytes(mutate(target.read_bytes()))

    return apply


def _manifest(change):
    return _rewrite("manifest.json", _edit(change))


def _realization(change):
    return _rewrite("realization_00001.json", _edit(change))


def _first_entry(key, value):
    def change(d):
        d[key][0][0] = value

    return _realization(change)


def _swap_realizations(dataset):
    first, second = dataset / "realization_00000.json", dataset / "realization_00001.json"
    raw = first.read_bytes()
    first.write_bytes(second.read_bytes())
    second.write_bytes(raw)


def _bump_seed(entry, key):
    entry[key] += 1


DATASET_MUTATIONS = {
    "manifest_truncated": _rewrite("manifest.json", lambda raw: raw[: len(raw) // 2]),
    "manifest_not_an_object": _rewrite("manifest.json", lambda raw: b"[1, 2]"),
    "manifest_count_missing": _manifest(lambda d: d.pop("count")),
    "manifest_count_string": _manifest(lambda d: d.update(count="2")),
    "manifest_m_disagrees": _manifest(lambda d: d.update(m=d["m"] + 1)),
    "manifest_deeply_nested": _rewrite("manifest.json", _deeply_nested),
    "realization_truncated": _rewrite("realization_00001.json", lambda raw: raw[: len(raw) // 2]),
    "realization_not_an_object": _rewrite("realization_00001.json", lambda raw: b"null"),
    "realization_deeply_nested": _rewrite("realization_00001.json", _deeply_nested),
    "fading_seed_missing": _realization(lambda d: d.pop("fading_seed")),
    "fading_seed_float": _realization(lambda d: d.update(fading_seed=1.5)),
    "rho_string": _realization(lambda d: d.update(rho="0.9")),
    "gains_not_numbers": _realization(lambda d: d.update(gains_linear=[["a"]])),
    "gains_ragged": _realization(lambda d: d["gains_linear"][0].pop()),
    "gains_disagree_with_m": _realization(lambda d: d["gains_linear"].pop()),
    "gain_negative": _first_entry("gains_linear", -1.0),
    "gain_nan": _first_entry("gains_linear", float("nan")),
    "gain_overflows_squared": _first_entry("gains_linear", 1e301),  # G |c|^2 would be inf
    "tx_position_nan": _first_entry("tx_positions", float("nan")),
    # seeds: files, manifest and master seed must agree
    "realizations_swapped": _swap_realizations,
    "fading_seed_edited": _realization(lambda d: _bump_seed(d, "fading_seed")),
    "manifest_seed_edited": _manifest(lambda d: _bump_seed(d["seeds"][1], "topology")),
    "manifest_seeds_short": _manifest(lambda d: d["seeds"].pop()),
    "master_seed_edited": _manifest(lambda d: _bump_seed(d, "master_seed")),
}


class TestMalformedDataset:
    @pytest.mark.parametrize("case", sorted(DATASET_MUTATIONS))
    def test_exits_with_config_error(self, workspace, tmp_path, capsys, case):
        _, cfg_path, run, _ = workspace
        out = tmp_path / "out"
        shutil.copytree(run / "datasets" / "test", out / "datasets" / "test")
        DATASET_MUTATIONS[case](out / "datasets" / "test")
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg_path), "--policy", "full_reuse",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and "Traceback" not in err


class TestGainsBeyondFloat32:
    """Training caches its gains in float32: a train split whose gains that
    range cannot hold is refused with a numerical error naming it."""

    @pytest.mark.parametrize("scale,reason", [(1e60, "not finite"), (1e-40, "zero")])
    def test_training_exits_numeric(self, workspace, tmp_path, capsys, scale, reason):
        _, cfg_path, run, _ = workspace
        out = tmp_path / "out"
        shutil.copytree(run / "datasets" / "train", out / "datasets" / "train")
        scaled = _realization(lambda d: d.update(
            gains_linear=(scale * np.array(d["gains_linear"])).tolist()))
        scaled(out / "datasets" / "train")
        capsys.readouterr()
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numerical failure") and reason in err and "float32" in err
        assert "Traceback" not in err


class TestReproducibility:
    def test_pipeline_byte_identical_across_runs_and_workers(self, tmp_path, monkeypatch):
        # two full generate + train + eval passes into the same output root,
        # once on 1 usable CPU and once on 4, must leave identical bytes
        cfg_path = write_cfg(tmp_path)
        run = tmp_path / "run"
        ckpt = run / "checkpoints" / "checkpoint_final.json"
        files = [
            run / "datasets" / "train" / "manifest.json",
            run / "datasets" / "test" / "realization_00000.json",
            run / "training_log.csv",
            run / "eval" / "metrics.csv",
            run / "eval" / "rates.csv",
            ckpt,
        ]

        def run_pipeline(cpus):
            force_cpus(monkeypatch, cpus)
            assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
            assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
            assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
            assert main(
                ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]
            ) == EXIT_OK
            return {str(f): f.read_bytes() for f in files}

        first = run_pipeline(cpus=1)
        second = run_pipeline(cpus=4)
        for name in first:
            assert first[name] == second[name], f"{name} differs across runs"


# Imports the CLI in a fresh interpreter and reports the BLAS thread variables,
# the OpenBLAS thread count and the desk shape's chunk count.
BLAS_PROBE = """
import json, os
import dualrrm.cli
from dualrrm.policy import GnnConfig
from dualrrm.training import TrainConfig, _n_chunks
env = {v: os.environ.get(v) for v in dualrrm.BLAS_THREAD_VARS}
chunks = _n_chunks(TrainConfig(batch_size=16, episode_len=50), 6, GnnConfig())
from conftest import blas_threads
print(json.dumps([env, blas_threads(), chunks]))
"""


# Loads numpy with no BLAS thread variable set, so OpenBLAS takes a thread
# per CPU, then sets them all to 1 and reports the count and the slots.
LATE_BLAS_VARS = """
import json, os
import numpy
import dualrrm
for v in dualrrm.BLAS_THREAD_VARS:
    os.environ[v] = "1"
print(json.dumps([dualrrm.blas_threads(), dualrrm.parallel_slots()]))
"""


# Imports the CLI in a fresh interpreter and reports the OpenBLAS thread
# count and the slots.
CLI_SLOTS = """
import json
import dualrrm.cli
print(json.dumps([dualrrm.blas_threads(), dualrrm.parallel_slots()]))
"""


class TestBlasThreads:
    @pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_slots_follow_the_blas_that_runs(self, var):
        # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so the
        # CLI's 1 wins over a user's OMP_NUM_THREADS=2 and the run splits
        # across the cores; a user's OPENBLAS_NUM_THREADS=2 runs two BLAS
        # threads and one slot
        cpus = len(os.sched_getaffinity(0))
        if cpus < 2:
            pytest.skip("one usable CPU: one slot whatever BLAS took")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env[var] = "2"
        env["PYTHONPATH"] = str(Path(dualrrm.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", CLI_SLOTS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        threads, slots = json.loads(done.stdout.splitlines()[-1])
        if threads is None:
            pytest.skip("numpy loaded no OpenBLAS")
        if var == "OMP_NUM_THREADS":
            assert (threads, slots) == (1, cpus)
        else:
            assert (threads, slots) == (2, 1)

    def test_variables_set_after_numpy_loaded_give_one_slot(self):
        # the variables read 1, but the OpenBLAS already loaded runs more
        # threads, so no stage may split across the cores
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: one slot whatever BLAS took")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(Path(dualrrm.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", LATE_BLAS_VARS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        threads, slots = json.loads(done.stdout.splitlines()[-1])
        assert threads != 1
        assert slots == 1

    @pytest.mark.parametrize("suffix", ["", " (deleted)"])
    def test_mapped_path_is_read_whole(self, tmp_path, monkeypatch, suffix):
        # a mapping's path is its sixth field, spaces and all; a file replaced
        # after it was mapped reads "(deleted)" after the path
        with open("/proc/self/maps") as f:
            libs = [line[line.index("/"):].strip() for line in f if "openblas" in line.lower()]
        if not libs:
            pytest.skip("numpy loaded no OpenBLAS")
        spaced = tmp_path / "a dir" / "libopenblas copy.so"
        spaced.parent.mkdir()
        spaced.symlink_to(libs[0].removesuffix(" (deleted)"))
        maps = tmp_path / "maps"
        maps.write_text(f"7f00-7f01 r-xp 00000000 08:01 123      {spaced}{suffix}\n")
        monkeypatch.setattr(dualrrm, "_MAPS", str(maps))
        assert dualrrm.blas_threads.__wrapped__() == dualrrm.blas_threads()

    def test_unloadable_mapping_reads_unknown(self, tmp_path, monkeypatch):
        # a mapped file that no longer loads gives one slot, not an error
        maps = tmp_path / "maps"
        maps.write_text(f"7f00-7f01 r-xp 00000000 08:01 123      {tmp_path}/libopenblas.so\n")
        monkeypatch.setattr(dualrrm, "_MAPS", str(maps))
        assert dualrrm.blas_threads.__wrapped__() is None

    @pytest.mark.parametrize("openblas", [None, "3"])
    def test_cli_sets_one_blas_thread_unless_the_user_did(self, openblas):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        if openblas is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas
        tests = Path(__file__).resolve().parent
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(dualrrm.__file__).resolve().parent.parent), str(tests)])
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seen, threads, chunks = json.loads(done.stdout.splitlines()[-1])
        cpus = len(os.sched_getaffinity(0))
        if openblas is None:
            # set before numpy loaded, so OpenBLAS took it, and training splits
            assert seen == dict.fromkeys(BLAS_THREAD_VARS, "1")
            assert threads in (1, None)
            assert chunks == min(cpus, 6)
        else:
            # the user's value wins, and BLAS threads rule out the split
            assert seen == {**dict.fromkeys(BLAS_THREAD_VARS, "1"), "OPENBLAS_NUM_THREADS": "3"}
            assert chunks == 1
