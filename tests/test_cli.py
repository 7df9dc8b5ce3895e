import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dualrrm.cli import EXIT_CONFIG, EXIT_OK, main
from dualrrm.policy import load_checkpoint

from conftest import params_equal


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
        assert policies == {
            "full_reuse", "itlinq", "state_augmented",
            "early_stop_0", "early_stop_4", "early_stop_20",
        }


class TestVerificationCommands:
    def test_gradcheck_passes(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert main(
            ["gradcheck", "--config", str(cfg_path), "--m", "4", "--steps", "5",
             "--coords", "20"]
        ) == EXIT_OK

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
            ["theorem-suite", "--config", str(cfg_path), "--checkpoint", str(ckpt),
             "--realizations", "2"]
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


CONFIG_MUTATIONS = {
    "seed_string": {"seed": "x"},
    "seed_bool": {"seed": True},
    "seed_float": {"seed": 5.0},
    "seed_null": {"seed": None},
    "batch_size_string": {"train": {"batch_size": "4"}},
    "horizon_float": {"execution": {"T": 20.0}},
    "p_max_nan": {"problem": {"p_max_dbm": float("nan")}},
    "p_max_int_beyond_float": {"problem": {"p_max_dbm": 10**400}},
    "use_bias_int": {"gnn": {"use_bias": 1}},
    "density_mode_number": {"topology": {"density_mode": 3}},
    "mu_init_entry_string": {"execution": {"mu_init": [0.1, "a", 0.2]}},
    "mu_dist_bound_string": {"train": {"mu_dist": ["uniform", "0", 1]}},
    "mu_dist_two_entries": {"train": {"mu_dist": ["uniform", 0.0]}},
    "section_null": {"train": None},
}


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(CONFIG_MUTATIONS))
    def test_exits_with_config_error(self, tmp_path, capsys, case):
        cfg_path = write_cfg(tmp_path, **CONFIG_MUTATIONS[case])
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


def _first_gain(value):
    def change(d):
        d["gains_linear"][0][0] = value

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
    "realization_truncated": _rewrite("realization_00001.json", lambda raw: raw[: len(raw) // 2]),
    "realization_not_an_object": _rewrite("realization_00001.json", lambda raw: b"null"),
    "fading_seed_missing": _realization(lambda d: d.pop("fading_seed")),
    "fading_seed_float": _realization(lambda d: d.update(fading_seed=1.5)),
    "rho_string": _realization(lambda d: d.update(rho="0.9")),
    "gains_not_numbers": _realization(lambda d: d.update(gains_linear=[["a"]])),
    "gains_ragged": _realization(lambda d: d["gains_linear"][0].pop()),
    "gains_disagree_with_m": _realization(lambda d: d["gains_linear"].pop()),
    "gain_negative": _first_gain(-1.0),
    "gain_nan": _first_gain(float("nan")),
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


class TestReproducibility:
    def test_pipeline_byte_identical_across_runs_and_workers(self, tmp_path):
        # two full generate + train + eval passes into the same output root,
        # once with 1 worker and once with 4, must leave identical bytes
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

        def run_pipeline(workers):
            assert main(["generate", "--config", str(cfg_path), "--split", "train"]) == EXIT_OK
            assert main(["generate", "--config", str(cfg_path), "--split", "test"]) == EXIT_OK
            assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
            assert main(
                ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--workers", str(workers)]
            ) == EXIT_OK
            return {str(f): f.read_bytes() for f in files}

        first = run_pipeline(workers=1)
        second = run_pipeline(workers=4)
        for name in first:
            assert first[name] == second[name], f"{name} differs across runs"
