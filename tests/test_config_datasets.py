import copy
import errno
import json
import operator
from dataclasses import fields, is_dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dualrrm import artifacts
from dualrrm.artifacts import atomic_open, write_csv
from dualrrm.baselines import itlinq_schedule
from dualrrm.channel import TopologyConfig, load_realization, realization_to_dict, save_realization
from dualrrm.config import (
    DatasetConfig,
    ExperimentConfig,
    canonical_json,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)
from dualrrm.datasets import generate_dataset, load_dataset, write_dataset
from dualrrm.core import RrmProblemConfig
from dualrrm.errors import ConfigError, RrmError
from dualrrm.graph import build_graph
from dualrrm.policy import (
    Checkpoint,
    GnnConfig,
    checkpoint_bytes,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from conftest import make_realizations


def small_experiment(tmp_path, seed=0, m=3, n_train=4, n_test=3):
    return ExperimentConfig(
        seed=seed,
        output_dir=str(tmp_path / "run"),
        topology=TopologyConfig(m=m, area_side_m=500.0),
        data=DatasetConfig(n_train=n_train, n_test=n_test),
    ).validate()


class TestConfig:
    def test_defaults_follow_reference_settings(self):
        cfg = ExperimentConfig().validate()
        assert cfg.problem.p_max_dbm == 10.0
        assert cfg.problem.noise_dbm == -104.0
        assert cfg.problem.f_min_bps_hz == 0.6
        assert cfg.execution.T == 100 and cfg.execution.T0 == 5
        assert cfg.execution.eta_mu == 20.0
        assert cfg.train.batch_size == 128 and cfg.train.epochs == 100
        assert cfg.train.mu_dist == ("uniform", 0.0, 1.0)
        assert cfg.data.n_train == 256 and cfg.data.n_test == 128
        assert cfg.gnn.f1 == 64 and cfg.gnn.f2 == 64
        assert cfg.train.resolved_eta_phi(cfg.topology.m) == pytest.approx(0.1 / 50)

    def test_roundtrip_through_dict(self):
        cfg = ExperimentConfig().validate()
        again = config_from_dict(config_to_dict(cfg)).validate()
        assert canonical_json(again) == canonical_json(cfg)

    def test_partial_file_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "topology": {"m": 7}}))
        cfg = load_config(path)
        assert cfg.seed == 9
        assert cfg.topology.m == 7
        assert cfg.problem.m == 7  # mirrored
        assert cfg.train.seed == 9  # inherited master seed
        assert cfg.train.batch_size == 128  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"topologyy": {}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unsupported_dual_distribution_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"mu_dist": ["normal", 0, 1]}}))
        with pytest.raises(ConfigError, match="unsupported dual distribution"):
            load_config(path)

    def test_hash_sensitive_to_any_field(self):
        base = ExperimentConfig().validate()
        assert config_hash(base) == config_hash(ExperimentConfig().validate())
        changed = ExperimentConfig(topology=TopologyConfig(m=51)).validate()
        assert config_hash(changed) != config_hash(base)
        changed2 = config_from_dict({"train": {"batch_size": 64}}).validate()
        assert config_hash(changed2) != config_hash(base)

    def test_save_load_stable(self, tmp_path):
        cfg = ExperimentConfig(seed=4).validate()
        path = tmp_path / "out.json"
        path.write_text(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n")
        assert config_hash(load_config(path)) == config_hash(cfg)

    def test_p_max_limit_keeps_the_gradient_finite(self):
        # 1500 dBm is 1e150 mW, the largest p_max whose (p_max |h|^2)^2 is
        # finite for every |h|^2 <= 1; above it dL/dp overflowed silently
        assert config_from_dict({"problem": {"p_max_dbm": 1500.0}}).validate()
        with pytest.raises(ConfigError, match="at most 1e150 mW"):
            config_from_dict({"problem": {"p_max_dbm": 1500.5}}).validate()

    def test_with_m_override(self):
        cfg = ExperimentConfig().validate().with_m(12)
        assert cfg.topology.m == 12 and cfg.problem.m == 12


def _leaves(default, path=()):
    """(path, annotation) of every non-dataclass field under ``default``."""
    for f in fields(default):
        value = getattr(default, f.name)
        if is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield path + (f.name,), f.type


_FLOATS = st.floats(0.0, 1.0) | st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = {
    "int": st.integers(0, 200) | st.integers(0, 2**64),
    "float": _FLOATS,
    "bool": st.booleans(),
    "str": st.sampled_from(["uniform", "fixed", "variable", "by-index"]) | st.text(max_size=8),
}


def _values(kind: str):
    """Values of the JSON type a field annotated ``kind`` takes."""
    if kind.endswith(" | None"):
        return st.none() | _values(kind.removesuffix(" | None"))
    if kind == "tuple[float, ...]":
        return st.lists(_FLOATS, max_size=6)
    if kind.startswith("tuple["):
        return st.tuples(*map(_values, kind[6:-1].split(", "))).map(list)
    return _SCALARS[kind]


@st.composite
def valid_configs(draw):
    """A validated config with a few fields drawn away from their defaults."""
    overrides = {}
    for path, kind in draw(st.lists(st.sampled_from(list(_leaves(ExperimentConfig()))),
                                    max_size=5, unique_by=lambda leaf: leaf[0])):
        node = overrides
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(_values(kind))
    try:
        return config_from_dict(overrides).validate()
    except ConfigError:
        assume(False)


class TestConfigRoundTrip:
    @settings(max_examples=100)
    @given(cfg=valid_configs())
    def test_canonical_json_round_trips(self, cfg):
        again = config_from_dict(json.loads(canonical_json(cfg)))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


class TestDatasets:
    def test_counts_and_split_independence(self, tmp_path):
        cfg = small_experiment(tmp_path)
        train_set = generate_dataset(cfg, "train")
        test_set = generate_dataset(cfg, "test")
        assert len(train_set) == 4 and len(test_set) == 3
        # different splits draw from disjoint streams
        assert not np.array_equal(
            train_set[0].large.gains_linear, test_set[0].large.gains_linear
        )

    def test_unknown_split_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_dataset(small_experiment(tmp_path), "validation")

    def test_write_and_load_roundtrip(self, tmp_path):
        cfg = small_experiment(tmp_path)
        originals = generate_dataset(cfg, "train")
        out = write_dataset(cfg, "train", originals)
        loaded, manifest = load_dataset(out)
        assert manifest["count"] == 4
        assert manifest["m"] == 3
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["nonstandard_area"] is True  # 500 m explicit override
        for a, b in zip(originals, loaded):
            assert np.array_equal(a.large.gains_linear, b.large.gains_linear)
            assert a.fading_seed == b.fading_seed

    def test_manifest_deterministic(self, tmp_path):
        cfg = small_experiment(tmp_path)
        out1 = write_dataset(cfg, "train", generate_dataset(cfg, "train"))
        first = (out1 / "manifest.json").read_bytes()
        out2 = write_dataset(cfg, "train", generate_dataset(cfg, "train"))
        assert (out2 / "manifest.json").read_bytes() == first

    def test_manifest_hash_tracks_config_changes(self, tmp_path):
        cfg_a = small_experiment(tmp_path, seed=0)
        cfg_b = small_experiment(tmp_path, seed=1)
        out_a = write_dataset(cfg_a, "train", generate_dataset(cfg_a, "train"))
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        out_b = write_dataset(cfg_b, "train", generate_dataset(cfg_b, "train"))
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        assert manifest_a["config_hash"] != manifest_b["config_hash"]
        assert manifest_a["seeds"] != manifest_b["seeds"]

    def test_default_split_sizes(self, tmp_path):
        cfg = ExperimentConfig(seed=3, output_dir=str(tmp_path / "run")).validate()
        assert len(generate_dataset(cfg, "train")) == 256
        assert len(generate_dataset(cfg, "test")) == 128

    def test_batch_size_does_not_perturb_draws(self, tmp_path):
        # realization seeds derive from (master, purpose, split, index) only
        cfg_a = small_experiment(tmp_path)
        from dataclasses import replace

        cfg_b = cfg_a.validate()
        cfg_b = replace(cfg_b, train=replace(cfg_b.train, batch_size=2)).validate()
        a = generate_dataset(cfg_a, "train")
        b = generate_dataset(cfg_b, "train")
        for x, y in zip(a, b):
            assert np.array_equal(x.large.gains_linear, y.large.gains_linear)
            assert x.fading_seed == y.fading_seed


class _DiskFullAfter:
    """A file that takes ``budget`` characters, then fails like a full disk."""

    def __init__(self, f, budget):
        self.f, self.budget = f, budget

    def write(self, data):
        room, self.budget = self.budget, self.budget - len(data)
        if len(data) > room:
            self.f.write(data[: max(room, 0)])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _checkpoint_writer(tmp_path, version):
    path = tmp_path / "checkpoint.json"
    params = init_params(GnnConfig(f1=4, f2=4), version)
    save_checkpoint(path, Checkpoint(params=params, seed=version, iteration=version))
    return path


def _realization_writer(tmp_path, version):
    path = tmp_path / "realization.json"
    save_realization(path, make_realizations(m=3, count=1, seed=version)[0])
    return path


def _manifest_writer(tmp_path, version):
    cfg = small_experiment(tmp_path, seed=version)
    return write_dataset(cfg, "train", generate_dataset(cfg, "train")) / "manifest.json"


def _csv_writer(tmp_path, version):
    path = tmp_path / "metrics.csv"
    rows = [[version, i, 0.5 * i] for i in range(50)]
    provenance = f"# tool_version=0 config_hash=hash master_seed={version}"
    write_csv(path, ["a", "b", "c"], rows, provenance)
    return path


class TestAtomicWrites:
    def test_helper_keeps_previous_file_on_error(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError):
            with atomic_open(path, "wb") as f:
                f.write(b"new and partial")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize(
        "writer", [_checkpoint_writer, _realization_writer, _manifest_writer, _csv_writer],
        ids=["checkpoint", "realization", "manifest", "csv"],
    )
    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch, writer):
        path = writer(tmp_path, 1)
        before = path.read_bytes()
        listing = sorted(p.name for p in path.parent.iterdir())
        # a full disk after 10 characters of the new target file
        real_open = open

        def failing_open(file, *args, **kwargs):
            f = real_open(file, *args, **kwargs)
            return _DiskFullAfter(f, 10) if Path(file).name.startswith(f".{path.name}.") else f

        monkeypatch.setattr(artifacts, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            writer(tmp_path, 2)
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == listing
        monkeypatch.undo()
        assert writer(tmp_path, 2).read_bytes() != before


def _config_writer(tmp_path, version):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(small_experiment(tmp_path, seed=version))))
    return path


# the four kinds of file the package reads: a writer of a valid one, its loader
ARTIFACTS = {
    "config": (_config_writer, load_config),
    "checkpoint": (_checkpoint_writer, load_checkpoint),
    "realization": (_realization_writer, load_realization),
    "manifest": (_manifest_writer, lambda path: load_dataset(path.parent)),
}


@pytest.fixture(scope="module")
def valid_artifacts(tmp_path_factory):
    """Path, valid bytes and loader of each artifact, in a directory of its own."""
    out = {}
    for name, (writer, load) in ARTIFACTS.items():
        path = writer(tmp_path_factory.mktemp(name), 1)
        out[name] = (path, path.read_bytes(), load)
    return out


@st.composite
def byte_mutations(draw, raw: bytes) -> bytes:
    """``raw`` truncated, with one byte replaced, or wrapped in nesting."""
    kind = draw(st.sampled_from(["truncate", "replace", "nest"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "replace":
        i = draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i + 1 :]
    opening, closing = draw(st.sampled_from([(b"[", b"]"), (b'{"a":', b"}")]))
    depth = draw(st.integers(1, 200_000))
    return opening * depth + raw + closing * depth


# The JSON object of a valid config, checkpoint and realization, and the first
# use of each once loaded: one ITLinQ schedule, one forward pass, one episode.
(FUZZ_REALIZATION,) = make_realizations(m=3, count=1, seed=1)
FUZZ_GAINS = FUZZ_REALIZATION.episode(2)
FUZZ_PROBLEM = RrmProblemConfig(m=3)
VALID_OBJECTS = {
    "config": config_to_dict(small_experiment(Path("fuzz"), seed=1)),
    "checkpoint": json.loads(checkpoint_bytes(
        Checkpoint(init_params(GnnConfig(f1=4, f2=4), 1), seed=1, iteration=1))),
    "realization": realization_to_dict(FUZZ_REALIZATION),
}


def _schedule_once(path):
    cfg = load_config(path)  # the gains keep m=3 whatever topology.m a mutation sets
    itlinq_schedule(FUZZ_GAINS, replace(cfg.problem, m=3), cfg.itlinq)


def _forward_once(path):
    graph = build_graph(FUZZ_GAINS, FUZZ_PROBLEM)
    forward(graph, np.full(3, 0.5), load_checkpoint(path).params, FUZZ_PROBLEM.p_max)


FIRST_USE = {
    "config": _schedule_once,
    "checkpoint": _forward_once,
    "realization": lambda path: load_realization(path).episode(3),
}
REMOVED = object()  # an edit that deletes the key or entry


def _field_paths(obj, path=()):
    """The path of every key and list entry of a JSON object, at any depth."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


FIELD_PATHS = {name: list(_field_paths(obj)) for name, obj in VALID_OBJECTS.items()}
_huge = st.floats(min_value=1e200, max_value=1e308)
FIELD_VALUES = st.one_of(
    st.integers(min_value=2**64, max_value=2**200),
    _huge, _huge.map(operator.neg), st.floats(min_value=-1e-200, max_value=1e-200),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.none(),
    st.just(REMOVED),
)


def _nested(a, b):
    """Whether one field path lies inside the other."""
    return a[: len(b)] == b[: len(a)]


@st.composite
def field_mutations(draw):
    """An artifact name and one or two edits of its valid object, each a
    field path and the value that replaces the field (or REMOVED); no path
    lies inside another, and entries of a list are edited from the back."""
    artifact = draw(st.sampled_from(sorted(VALID_OBJECTS)))
    paths = draw(st.lists(st.sampled_from(FIELD_PATHS[artifact]), min_size=1, max_size=2,
                          unique=True).filter(lambda ps: len(ps) == 1 or not _nested(*ps)))
    return artifact, [(path, draw(FIELD_VALUES)) for path in sorted(paths, reverse=True)]


class TestMutatedArtifacts:
    @pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
    @settings(max_examples=60)
    @given(data=st.data())
    def test_loads_or_raises_config_error(self, valid_artifacts, artifact, data):
        path, raw, load = valid_artifacts[artifact]
        path.write_bytes(data.draw(byte_mutations(raw)))
        try:
            load(path)
        except ConfigError:
            pass  # any other exception fails the test

    @settings(max_examples=150)
    @given(mutation=field_mutations())
    @example(mutation=("config", [(("itlinq", "m_margin_db"), 2**64)]))
    @example(mutation=("config", [(("itlinq", "m_margin_db"), 1e300)]))
    def test_field_mutations_load_and_run_or_raise_package_error(self, tmp_path_factory,
                                                                 mutation):
        artifact, edits = mutation
        obj = copy.deepcopy(VALID_OBJECTS[artifact])
        for field, value in edits:
            *parents, last = field
            node = reduce(operator.getitem, parents, obj)
            if value is REMOVED:
                del node[last]
            else:
                node[last] = value
        path = tmp_path_factory.getbasetemp() / f"fuzzed_{artifact}.json"
        path.write_text(json.dumps(obj))
        try:
            FIRST_USE[artifact](path)
        except RrmError:
            pass  # any other exception fails the test
