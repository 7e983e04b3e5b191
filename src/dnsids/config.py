"""Pipeline configuration: INI-style sections parsed into dataclasses.

Grammar (see README for the full key list):

    [pipeline]            seed, window_len, cv_folds, classifiers
    [scenario.<name>]     runs + any scenario field (attack_kind, rates, ...)
    [mlp] [rbf] [som]     classifier hyperparameters, each section building
                          one dataclass: the classifier's recipe

Every scenario inherits the pipeline window_len unless it sets its own.
A master seed is mandatory; nothing in the pipeline touches the wall
clock except training-time measurement.

The keys of [scenario.*] are the fields of the scenario dataclasses; each
of [mlp], [rbf] and [som] sets the fields of one recipe, defined in its
classifier's module; [pipeline] sets PipelineConfig's own fields. Each
value parses by its field's annotation. Those dataclasses hold their own
rules and defaults, and apply them when built, so a hand-built object
meets the same ones as a config file: PipelineConfig checks cv_folds and
the classifier names, and ScenarioConfig derives an unset attack_rate
and attack_duration. A broken rule or a bad value is a ConfigError that
starts with `[section] key`. A [DEFAULT] section is an unknown section,
not one whose keys every other section inherits.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .classifiers.mlp import MlpRecipe
from .classifiers.rbf import RbfRecipe
from .classifiers.som import SomRecipe
from .errors import ConfigError, InvalidConfig, prefixed, require
from .simnet import MAX_LINE_CHARS, PARSERS, AttackKind, ScenarioConfig

# The bundled experiment, shipped as package data: a balanced three-class
# dataset at desk scale. The contested link is scaled down from the
# 10 Mbps default so a full run of thirty 640-second scenarios stays fast;
# the attack sources still offer 1.2x the bottleneck capacity. The start
# jitter range keeps every attack window majority-covered, so window
# labels stay clean. Outputs embed the digest of this text.
DEFAULT_CONFIG = Path(__file__).with_name("default.cfg").read_text(encoding="utf-8")


# The most simulation runs one config may ask for, over all its scenarios.
# The dataset's "# provenance=" line names each run's trace file, at most
# 255 bytes and a comma, so the line stays within simnet.MAX_LINE_CHARS.
MAX_RUNS = (MAX_LINE_CHARS - len("# provenance=")) // 256

# A scenario's name is the stem of its trace file names, "<name>-<run>.trace":
# portable file-name characters on one line, no leading "." (so no "." or
# ".." and no hidden file), and short enough that the longest such name,
# that of run MAX_RUNS - 1, fits in 255 bytes.
MAX_SCENARIO_NAME = 255 - len(f"-{MAX_RUNS - 1:03d}.trace")
SCENARIO_NAME = re.compile(rf"[A-Za-z0-9_-][A-Za-z0-9_.-]{{0,{MAX_SCENARIO_NAME - 1}}}")


@dataclass(frozen=True)
class ScenarioBlock:
    name: str
    runs: int
    config: ScenarioConfig

    def __post_init__(self):
        require(SCENARIO_NAME.fullmatch(self.name) is not None, "name",
                f"1-{MAX_SCENARIO_NAME} ASCII letters, digits, '_', '-' or '.', "
                "not starting with '.'",
                repr(self.name))
        require(self.runs >= 1, "runs", ">= 1", self.runs)


# Each classifier's config name: its section, and the PipelineConfig
# field holding its recipe, with the recipe class the section builds.
RECIPES = {"mlp": MlpRecipe, "rbf": RbfRecipe, "som": SomRecipe}
CLASSIFIERS = tuple(RECIPES)


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    cv_folds: int = 10
    classifier_names: tuple[str, ...] = CLASSIFIERS
    scenarios: tuple[ScenarioBlock, ...] = ()
    mlp: MlpRecipe = field(default_factory=MlpRecipe)
    rbf: RbfRecipe = field(default_factory=RbfRecipe)
    som: SomRecipe = field(default_factory=SomRecipe)

    def __post_init__(self):
        require(self.cv_folds >= 2, "cv_folds", ">= 2", self.cv_folds)
        for name in self.classifier_names:
            require(name in CLASSIFIERS, "classifiers", f"names from {', '.join(CLASSIFIERS)}",
                    repr(name))
        require(len(set(self.classifier_names)) == len(self.classifier_names), "classifiers",
                "distinct names", ",".join(self.classifier_names))


def _field_parsers(*classes) -> dict:
    """Parser of each key that sets a plain-valued field of `classes`."""
    return {f.name: PARSERS[f.type] for cls in classes for f in fields(cls)
            if f.type in PARSERS}


def _names(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(","))


# The keys each section accepts, with the parser of each one's value;
# "scenario.*" stands for every [scenario.<name>].
SECTION_PARSERS = {
    "pipeline": {"seed": int, "window_len": float, "cv_folds": int, "classifiers": _names},
    "scenario.*": _field_parsers(ScenarioBlock, ScenarioConfig),
    **{kind: _field_parsers(recipe) for kind, recipe in RECIPES.items()},
}


def _read(section, kind: str) -> dict:
    """Parse a section's values by the parsers `SECTION_PARSERS[kind]` lists."""
    parsers = SECTION_PARSERS[kind]
    values = {}
    for key, raw in section.items():
        if key not in parsers:
            raise InvalidConfig(f"unknown key {key!r}")
        try:
            values[key] = parsers[key](raw)
        except ValueError:
            raise InvalidConfig(f"{key}: bad value {raw!r}") from None
    return values


def parse_pipeline_config(text: str) -> PipelineConfig:
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    if "pipeline" not in parser:
        raise ConfigError("missing [pipeline] section")
    with prefixed("[pipeline]"):
        pipe = _read(parser["pipeline"], "pipeline")
        if "seed" not in pipe:
            raise InvalidConfig("seed must be set: it is the master seed")
        window_len = pipe.get("window_len", ScenarioConfig.window_len)
        # It is every scenario's default, so it obeys the scenario rules.
        ScenarioConfig(window_len=window_len)
        pipeline = PipelineConfig(
            seed=pipe["seed"], cv_folds=pipe.get("cv_folds", PipelineConfig.cv_folds),
            classifier_names=pipe.get("classifiers", CLASSIFIERS))

    scenarios = []
    recipes = {}
    for section_name in parser.sections():
        if section_name == "pipeline":
            continue
        kind = "scenario.*" if section_name.startswith("scenario.") else section_name
        if kind not in SECTION_PARSERS:
            raise ConfigError(f"unknown section [{section_name}]")
        with prefixed(f"[{section_name}]"):
            values = _read(parser[section_name], kind)
            if kind == "scenario.*":
                runs = values.pop("runs", 1)
                config = ScenarioConfig(**{"window_len": window_len} | values)
                scenarios.append(ScenarioBlock(section_name.split(".", 1)[1], runs, config))
                total = sum(block.runs for block in scenarios)
                require(total <= MAX_RUNS, "runs", f"at most {MAX_RUNS} over all scenarios", total)
            else:
                recipes[kind] = RECIPES[kind](**values)

    return replace(pipeline, scenarios=tuple(scenarios), **recipes)


def validate_for_training(cfg: PipelineConfig) -> None:
    """Training needs at least one scenario per traffic class."""
    kinds = {block.config.attack_kind for block in cfg.scenarios}
    for kind in AttackKind:
        if kind not in kinds:
            raise ConfigError(
                f"training needs at least one scenario of class {kind.value!r}")
