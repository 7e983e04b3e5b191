"""Pipeline configuration: INI-style sections parsed into dataclasses.

Grammar (see README for the full key list):

    [pipeline]            seed, window_len, cv_folds, classifiers
    [scenario.<name>]     runs + any scenario field (attack_kind, rates, ...)
    [mlp] [rbf] [som]     classifier hyperparameters

Every scenario inherits the pipeline window_len unless it sets its own.
A master seed is mandatory; nothing in the pipeline touches the wall
clock except training-time measurement.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .classifiers.mlp import MAX_HIDDEN, MlpTrainConfig
from .classifiers.som import SomTrainConfig
from .errors import ConfigError, InvalidConfig
from .simnet import INT_FIELDS, AttackKind, ScenarioConfig, make_scenario

# The bundled experiment, shipped as package data: a balanced three-class
# dataset at desk scale. The contested link is scaled down from the
# 10 Mbps default so a full run of thirty 640-second scenarios stays fast;
# the attack sources still offer 1.2x the bottleneck capacity. The start
# jitter range keeps every attack window majority-covered, so window
# labels stay clean. Outputs embed the digest of this text.
DEFAULT_CONFIG = Path(__file__).with_name("default.cfg").read_text(encoding="utf-8")


@dataclass(frozen=True)
class ScenarioBlock:
    name: str
    runs: int
    config: ScenarioConfig


@dataclass(frozen=True)
class MlpSettings:
    hidden: int = 7
    train: MlpTrainConfig = field(default_factory=MlpTrainConfig)


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    window_len: float = 20.0
    cv_folds: int = 10
    classifier_names: tuple[str, ...] = ("mlp", "rbf", "som")
    scenarios: tuple[ScenarioBlock, ...] = ()
    mlp: MlpSettings = field(default_factory=MlpSettings)
    rbf_centers: int = 10
    som: SomTrainConfig = field(default_factory=SomTrainConfig)


_SCENARIO_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_MLP_KEYS = {"hidden", "max_epochs", "target_mse", "lm_lambda_init", "lm_lambda_up",
             "lm_lambda_down", "lm_lambda_max", "weight_init_range"}
_SOM_KEYS = {"epochs", "ordering_lr", "ordering_steps", "tuning_lr",
             "tuning_neighbor_dist"}
_VALID_CLASSIFIERS = ("mlp", "rbf", "som")


def _convert(section_name: str, key: str, raw: str, convert):
    """`convert(raw)`, failing as a ConfigError that names the section and key."""
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"[{section_name}] {key}: bad value {raw!r}") from None


def _pair(raw: str) -> tuple[float, float]:
    lo, comma, hi = raw.partition(",")
    if not comma:
        raise ValueError("expected two comma-separated numbers")
    return float(lo), float(hi)


def _require(ok: bool, section_name: str, key: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"[{section_name}] {key} must be {rule}, got {value}")


def _parse_scenario(section_name: str, section, window_len: float) -> ScenarioBlock:
    runs = 1
    params: dict = {"window_len": window_len}
    for key, raw in section.items():
        if key == "runs":
            runs = _convert(section_name, key, raw, int)
            continue
        if key not in _SCENARIO_FIELD_TYPES:
            raise ConfigError(f"unknown scenario key {key!r} in [{section_name}]")
        if key == "attack_kind":
            params[key] = raw.strip()
        elif key in INT_FIELDS:
            params[key] = _convert(section_name, key, raw, int)
        else:
            jitter = key == "attack_start_jitter"
            value = _convert(section_name, key, raw, _pair if jitter else float)
            _require(all(map(math.isfinite, value if jitter else (value,))),
                     section_name, key, "finite", value)
            params[key] = value
    _require(runs >= 1, section_name, "runs", ">= 1", runs)
    try:
        config = make_scenario(**params)
    except InvalidConfig as exc:
        raise ConfigError(f"[{section_name}] {exc}") from None
    return ScenarioBlock(name=section_name.split(".", 1)[1], runs=runs, config=config)


def _parse_mlp(section) -> MlpSettings:
    values = {key: _convert("mlp", key, raw, int if key in ("hidden", "max_epochs") else float)
              for key, raw in section.items()}
    hidden = values.pop("hidden", MlpSettings.hidden)
    _require(1 <= hidden <= MAX_HIDDEN, "mlp", "hidden", f"in 1..{MAX_HIDDEN}", hidden)
    train = MlpTrainConfig(**values)
    _require(train.max_epochs >= 1, "mlp", "max_epochs", ">= 1", train.max_epochs)
    _require(train.target_mse > 0, "mlp", "target_mse", "> 0", train.target_mse)
    _require(train.lm_lambda_up > 1, "mlp", "lm_lambda_up", "> 1", train.lm_lambda_up)
    _require(0 < train.lm_lambda_down < 1, "mlp", "lm_lambda_down", "in (0, 1)",
             train.lm_lambda_down)
    for key in ("lm_lambda_init", "lm_lambda_max", "weight_init_range"):
        value = getattr(train, key)
        _require(math.isfinite(value) and value > 0, "mlp", key, "finite and > 0", value)
    return MlpSettings(hidden=hidden, train=train)


def _parse_som(section) -> SomTrainConfig:
    cfg = SomTrainConfig(**{
        key: _convert("som", key, raw, float if key in ("ordering_lr", "tuning_lr") else int)
        for key, raw in section.items()})
    for key in ("ordering_lr", "tuning_lr"):
        _require(0 < getattr(cfg, key) <= 1, "som", key, "in (0, 1]", getattr(cfg, key))
    _require(cfg.ordering_steps >= 1, "som", "ordering_steps", ">= 1", cfg.ordering_steps)
    _require(cfg.epochs >= 1, "som", "epochs", ">= 1", cfg.epochs)
    _require(cfg.tuning_neighbor_dist >= 0, "som", "tuning_neighbor_dist", ">= 0",
             cfg.tuning_neighbor_dist)
    return cfg


def parse_pipeline_config(text: str) -> PipelineConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    if "pipeline" not in parser:
        raise ConfigError("missing [pipeline] section")
    pipe = parser["pipeline"]
    known_pipe = {"seed", "window_len", "cv_folds", "classifiers"}
    unknown = set(pipe) - known_pipe
    if unknown:
        raise ConfigError(f"unknown pipeline key {sorted(unknown)[0]!r}")
    if "seed" not in pipe:
        raise ConfigError("[pipeline] must set a master seed")
    seed = _convert("pipeline", "seed", pipe["seed"], int)
    window_len = _convert("pipeline", "window_len", pipe.get("window_len", "20"), float)
    _require(math.isfinite(window_len) and window_len > 0, "pipeline", "window_len",
             "finite and > 0", window_len)
    cv_folds = _convert("pipeline", "cv_folds", pipe.get("cv_folds", "10"), int)
    _require(cv_folds >= 2, "pipeline", "cv_folds", ">= 2", cv_folds)
    names = tuple(n.strip() for n in pipe.get("classifiers", "mlp,rbf,som").split(","))
    for n in names:
        if n not in _VALID_CLASSIFIERS:
            raise ConfigError(f"unknown classifier {n!r}")

    scenarios = []
    mlp_settings = MlpSettings()
    rbf_centers = 10
    som_settings = SomTrainConfig()
    for section_name in parser.sections():
        if section_name == "pipeline":
            continue
        section = parser[section_name]
        if section_name.startswith("scenario."):
            scenarios.append(_parse_scenario(section_name, section, window_len))
        elif section_name == "mlp":
            unknown = set(section) - _MLP_KEYS
            if unknown:
                raise ConfigError(f"unknown mlp key {sorted(unknown)[0]!r}")
            mlp_settings = _parse_mlp(section)
        elif section_name == "rbf":
            unknown = set(section) - {"centers"}
            if unknown:
                raise ConfigError(f"unknown rbf key {sorted(unknown)[0]!r}")
            rbf_centers = _convert("rbf", "centers", section.get("centers", "10"), int)
            _require(rbf_centers >= 2, "rbf", "centers", ">= 2", rbf_centers)
        elif section_name == "som":
            unknown = set(section) - _SOM_KEYS
            if unknown:
                raise ConfigError(f"unknown som key {sorted(unknown)[0]!r}")
            som_settings = _parse_som(section)
        else:
            raise ConfigError(f"unknown section [{section_name}]")

    return PipelineConfig(
        seed=seed, window_len=window_len, cv_folds=cv_folds,
        classifier_names=names, scenarios=tuple(scenarios),
        mlp=mlp_settings, rbf_centers=rbf_centers, som=som_settings)


def validate_for_training(cfg: PipelineConfig) -> None:
    """Training needs at least one scenario per traffic class."""
    kinds = {block.config.attack_kind for block in cfg.scenarios}
    for kind in AttackKind:
        if kind not in kinds:
            raise ConfigError(
                f"training needs at least one scenario of class {kind.value!r}")
