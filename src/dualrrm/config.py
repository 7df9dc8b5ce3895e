"""Experiment configuration: defaults, file I/O, canonical hashing.

A config file is JSON with nested sections mirroring the module configs.
Only the keys being overridden need to appear; everything else keeps its
default.  The canonical serialization (sorted keys, compact separators,
shortest-round-trip floats) defines the config hash embedded in every
artifact, so any field change is visible in the outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .artifacts import is_int, load_json
from .baselines import ItlinqConfig
from .channel import DEFAULT_FADING_RHO, TopologyConfig
from .core import RrmProblemConfig
from .errors import ConfigError
from .execution import ExecConfig
from .policy import GnnConfig
from .training import TrainConfig


@dataclass(frozen=True)
class FadingConfig:
    rho: float = DEFAULT_FADING_RHO

    def validate(self) -> None:
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError("fading rho must lie in [0, 1]")


@dataclass(frozen=True)
class DatasetConfig:
    n_train: int = 256
    n_test: int = 128

    def validate(self) -> None:
        if self.n_train < 0 or self.n_test < 0:
            raise ConfigError("dataset sizes must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs/default"
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    fading: FadingConfig = field(default_factory=FadingConfig)
    problem: RrmProblemConfig = field(default_factory=lambda: RrmProblemConfig(m=50))
    gnn: GnnConfig = field(default_factory=GnnConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    execution: ExecConfig = field(default_factory=ExecConfig)
    itlinq: ItlinqConfig = field(default_factory=ItlinqConfig)
    data: DatasetConfig = field(default_factory=DatasetConfig)

    def validate(self) -> "ExperimentConfig":
        cfg = self._synced()
        if min(cfg.seed, cfg.train.seed) < 0:
            raise ConfigError("seed and train.seed must be >= 0")
        try:  # 10 ** (dBm / 10) beyond the float range
            p_max, noise = cfg.problem.p_max, cfg.problem.noise
        except OverflowError:
            p_max = noise = math.inf
        # 1e150 mW keeps (p_max |h|^2)^2, a term of dL/dp, finite for |h|^2 <= 1
        if not (0.0 < noise < math.inf and 0.0 < p_max <= 1e150):
            raise ConfigError("problem noise must be finite and positive in mW, and p_max "
                              "positive and at most 1e150 mW (1500 dBm)")
        cfg.topology.validate()
        cfg.fading.validate()
        cfg.gnn.validate()
        cfg.train.validate()
        cfg.execution.validate()
        cfg.itlinq.validate()
        cfg.data.validate()
        return cfg

    def _synced(self) -> "ExperimentConfig":
        """problem.m follows topology.m, the user count; the training seed
        inherits the master seed unless set explicitly."""
        cfg = self
        if cfg.problem.m != cfg.topology.m:
            cfg = replace(cfg, problem=replace(cfg.problem, m=cfg.topology.m))
        if cfg.train.seed is None:
            cfg = replace(cfg, train=replace(cfg.train, seed=cfg.seed))
        return cfg

    def with_m(self, m: int) -> "ExperimentConfig":
        return replace(
            self,
            topology=replace(self.topology, m=m),
            problem=replace(self.problem, m=m),
        ).validate()


def _to_jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _to_jsonable(cfg)


def _is_number(value) -> bool:
    """An int or a float that converts to a finite float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_KINDS = {
    "int": ("an integer", is_int),
    "float": ("a finite number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def _type_error(kind: str, value) -> str | None:
    """Why ``value`` cannot fill a field annotated ``kind``, or None."""
    if not kind.startswith("tuple["):
        what, ok = _KINDS[kind]
        return None if ok(value) else f"must be {what}, not {value!r}"
    if not isinstance(value, (list, tuple)):
        return f"must be a list, not {value!r}"
    kinds = kind[6:-1].split(", ")  # tuple[float, ...] or tuple[str, float, float]
    kinds = kinds[:1] * len(value) if kinds[-1] == "..." else kinds
    if len(kinds) != len(value):
        return f"must have {len(kinds)} entries, not {len(value)}"
    return next(filter(None, map(_type_error, kinds, value)), None)


def _build_dataclass(default, data: dict, path: str):
    """A copy of the dataclass ``default`` with the values of a JSON object;
    every value is type-checked against the field's annotation, and null is
    accepted only where the default is None."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {path[:-1] or type(default).__name__} must be an object")
    known = {f.name: f.type for f in fields(default)}
    kwargs = {name: getattr(default, name) for name in known}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {path + key!r}")
        if is_dataclass(kwargs[key]):
            value = _build_dataclass(kwargs[key], value, f"{path}{key}.")
        elif value is None and kwargs[key] is not None:
            raise ConfigError(f"config key {path + key!r} must not be null")
        elif value is not None:
            error = _type_error(known[key].removesuffix(" | None"), value)
            if error:
                raise ConfigError(f"config key {path + key!r} {error}")
            value = tuple(value) if isinstance(value, list) else value
        kwargs[key] = value
    return type(default)(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = _build_dataclass(ExperimentConfig(), data, "")
    if "m" in data.get("problem", {}) and cfg.problem.m != cfg.topology.m:
        raise ConfigError(f"problem.m={cfg.problem.m} disagrees with topology.m={cfg.topology.m}")
    return cfg


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Config from a JSON file read by ``artifacts.load_json``, or pure
    defaults when no path is given; a malformed file raises ConfigError."""
    if path is None:
        return ExperimentConfig().validate()
    return load_json(path, "config file", config_from_dict).validate()


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()

