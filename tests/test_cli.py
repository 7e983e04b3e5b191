"""Config parsing, model files, CLI commands, composition, determinism."""

import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dnsids.classifiers.base import TrainReport
from dnsids.classifiers.mlp import MlpTrainConfig, mlp_init
from dnsids.classifiers.rbf import RbfModel
from dnsids.classifiers.recipes import MlpRecipe, RbfRecipe, SomRecipe
from dnsids.classifiers.som import SomModel, SomTrainConfig, som_init
from dnsids.classifiers.store import load_model, save_model
from dnsids import cli, errors, evaluation, simnet
from dnsids.cli import main
from dnsids.config import (DEFAULT_CONFIG, MAX_RUNS, SECTION_PARSERS, parse_pipeline_config,
                           validate_for_training)
from dnsids.errors import ConfigError, InvalidConfig, ParseError
from dnsids.evaluation import parse_report_csv
from dnsids.preproc import (CLASS_ORDER, ClassLabel, LabeledDataset, class_labels, label_codes,
                            read_dataset, write_dataset)
from dnsids.seeding import text_digest
from dnsids.simnet import AttackKind, read_trace, write_trace

TINY_CONFIG = """\
[pipeline]
seed = 7
window_len = 20
cv_folds = 4
classifiers = mlp,rbf,som

[scenario.normal]
runs = 2
duration = 200
bottleneck_rate = 100000
attack_kind = none

[scenario.direct_dos]
runs = 2
duration = 200
bottleneck_rate = 100000
attack_kind = direct_dos
attack_start_jitter = 0,9.5
attack_duration = 200

[scenario.amplification]
runs = 2
duration = 200
bottleneck_rate = 100000
attack_kind = amplification
attack_start_jitter = 0,9.5
attack_duration = 200

[mlp]
hidden = 5
max_epochs = 120

[rbf]
centers = 6

[som]
epochs = 6
"""


class TestConfigParsing:
    def test_default_config_parses(self):
        cfg = parse_pipeline_config(DEFAULT_CONFIG)
        assert cfg.seed == 42
        assert cfg.cv_folds == 10
        assert len(cfg.scenarios) == 3
        assert cfg.mlp.hidden == 7
        assert cfg.rbf.centers == 10
        assert cfg.som.train_config.epochs == 20
        validate_for_training(cfg)

    def test_scenarios_inherit_window_len(self):
        cfg = parse_pipeline_config(TINY_CONFIG)
        assert all(b.config.window_len == 20.0 for b in cfg.scenarios)

    def test_missing_seed_rejected(self):
        bad = TINY_CONFIG.replace("seed = 7\n", "")
        with pytest.raises(ConfigError):
            parse_pipeline_config(bad)

    # A trainer's seed derives from the master seed, so `seed` is no key.
    @pytest.mark.parametrize("old, new, message", [
        ("[mlp]\nhidden = 5", "[mlp]\nhiden = 5", "[mlp] unknown key 'hiden'"),
        ("[som]\nepochs = 6", "[som]\nepochs = 6\nseed = 3", "[som] unknown key 'seed'"),
    ])
    def test_unknown_key_rejected(self, old, new, message):
        bad = TINY_CONFIG.replace(old, new)
        with pytest.raises(ConfigError) as info:
            parse_pipeline_config(bad)
        assert str(info.value) == message

    def test_unknown_classifier_rejected(self):
        bad = TINY_CONFIG.replace("mlp,rbf,som", "mlp,svm")
        with pytest.raises(ConfigError):
            parse_pipeline_config(bad)

    def test_training_needs_every_class(self):
        solo = "\n".join(TINY_CONFIG.splitlines()[:13]) + "\n"
        cfg = parse_pipeline_config(solo)
        with pytest.raises(ConfigError):
            validate_for_training(cfg)

    def test_more_runs_than_the_provenance_line_holds_rejected(self):
        # The scenarios run 2 + 2 more after [scenario.normal].
        most = TINY_CONFIG.replace("runs = 2", f"runs = {MAX_RUNS - 4}", 1)
        assert sum(b.runs for b in parse_pipeline_config(most).scenarios) == MAX_RUNS
        bad = TINY_CONFIG.replace("runs = 2", f"runs = {MAX_RUNS - 3}", 1)
        with pytest.raises(ConfigError) as info:
            parse_pipeline_config(bad)
        assert str(info.value) == (f"[scenario.amplification] runs must be at most {MAX_RUNS} "
                                   f"over all scenarios, got {MAX_RUNS + 1}")

    @pytest.mark.parametrize("folds", ["0", "1", "-3"])
    def test_fewer_than_two_folds_rejected(self, folds):
        bad = TINY_CONFIG.replace("cv_folds = 4", f"cv_folds = {folds}")
        with pytest.raises(ConfigError, match="cv_folds"):
            parse_pipeline_config(bad)

    @pytest.mark.parametrize("old, new, where", [
        ("hidden = 5", "hidden = abc", "[mlp] hidden"),
        ("runs = 2", "runs = x", "[scenario.normal] runs"),
        ("attack_start_jitter = 0,9.5", "attack_start_jitter = 5",
         "[scenario.direct_dos] attack_start_jitter"),
        ("max_epochs = 120", "max_epochs = 0", "[mlp] max_epochs"),
        ("hidden = 5", "hidden = 0", "[mlp] hidden"),
        ("centers = 6", "centers = 1", "[rbf] centers"),
        ("epochs = 6", "epochs = six", "[som] epochs"),
        ("centers = 6", "centers = 6.5", "[rbf] centers"),
        ("window_len = 20", "window_len = twenty", "[pipeline] window_len"),
        ("max_epochs = 120", "lm_lambda_init = 0", "[mlp] lm_lambda_init"),
        ("max_epochs = 120", "lm_lambda_init = -1", "[mlp] lm_lambda_init"),
        ("max_epochs = 120", "lm_lambda_init = nan", "[mlp] lm_lambda_init"),
        ("max_epochs = 120", "lm_lambda_max = inf", "[mlp] lm_lambda_max"),
        ("max_epochs = 120", "lm_lambda_max = nan", "[mlp] lm_lambda_max"),
        ("max_epochs = 120", "lm_lambda_max = 0", "[mlp] lm_lambda_max"),
        ("max_epochs = 120", "weight_init_range = -1", "[mlp] weight_init_range"),
        ("max_epochs = 120", "weight_init_range = nan", "[mlp] weight_init_range"),
        ("max_epochs = 120", "weight_init_range = inf", "[mlp] weight_init_range"),
        ("attack_duration = 200\n\n[scenario.amp", "attack_rate = inf\n\n[scenario.amp",
         "[scenario.direct_dos] attack_rate"),
        ("runs = 2\nduration = 200", "runs = 2\nduration = inf", "[scenario.normal] duration"),
        ("runs = 2\nduration = 200", "runs = 2\nduration = nan", "[scenario.normal] duration"),
        ("attack_start_jitter = 0,9.5", "attack_start_jitter = 0,inf",
         "[scenario.direct_dos] attack_start_jitter"),
        ("attack_duration = 200", "attack_duration = -inf",
         "[scenario.direct_dos] attack_duration"),
        ("window_len = 20", "window_len = inf", "[pipeline] window_len"),
        ("window_len = 20", "window_len = nan", "[pipeline] window_len"),
        ("window_len = 20", "window_len = 0", "[pipeline] window_len"),
        ("window_len = 20", "window_len = -20", "[pipeline] window_len"),
        ("epochs = 6", "epochs = 0", "[som] epochs"),
        ("epochs = 6", "epochs = -1", "[som] epochs"),
        ("epochs = 6", "tuning_neighbor_dist = -1", "[som] tuning_neighbor_dist"),
        # Bounded emissions per run: each is refused before anything is built.
        ("attack_duration = 200\n\n[scenario.amp", "attack_rate = 1e300\n\n[scenario.amp",
         "[scenario.direct_dos] attack_rate"),
        ("attack_duration = 200\n\n[scenario.amp", "attack_rate = 1e9\n\n[scenario.amp",
         "[scenario.direct_dos] attack_rate"),
        ("runs = 2\nduration = 200", "runs = 2\nduration = 1e300", "[scenario.normal] duration"),
        ("runs = 2\nduration = 200", "runs = 2\nduration = 200\nlegit_interarrival = 1e-6",
         "[scenario.normal] duration"),
        ("runs = 2\nduration = 200", "runs = 2\nduration = 200\nretransmit_max = 1000000000"
         "\nretransmit_timeout = 1e-5", "[scenario.normal] retransmit_max"),
        ("runs = 2\nduration = 200", "runs = 2\nduration = 200\nretransmit_timeout = 1e-300"
         f"\nretransmit_max = {10 ** 400}", "[scenario.normal] retransmit_max"),
        # So are more than 10**6 windows per run; 200 / 1e-320 is inf.
        ("window_len = 20", "window_len = 1e-320", "[pipeline] window_len"),
        ("runs = 2\nduration = 200", "runs = 2\nduration = 200\nwindow_len = 1e-320",
         "[scenario.normal] window_len"),
        # A simulator rule outside the emission bound names its section too.
        ("runs = 2\nduration = 200", "runs = 2\nduration = 200\nlegit_interarrival = 0",
         "[scenario.normal] legit_interarrival"),
    ])
    def test_bad_value_is_config_error_naming_section_and_key(self, tmp_path, capsys,
                                                              old, new, where):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TINY_CONFIG.replace(old, new, 1))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith(where)

    def test_digest_stability(self):
        assert text_digest(TINY_CONFIG) == text_digest(TINY_CONFIG)
        assert text_digest(TINY_CONFIG) != text_digest(DEFAULT_CONFIG)

    def test_cli_import_leaves_openssl_unloaded(self, fresh_interpreter):
        # `hashlib` loads OpenSSL, about 3.6 MB of resident memory in every
        # process; the seeds and digests take SHA-256 from the interpreter.
        assert not fresh_interpreter().modules & {"_hashlib", "hashlib", "_ssl"}


def _section_lines(text: str) -> dict[str, list[str]]:
    """The lines of each INI section, by section name."""
    sections, lines = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            lines = sections.setdefault(line.split("]")[0][1:], [])
        elif lines is not None:
            lines.append(line)
    return sections


# Values a config line may be set to: numbers of every kind, the names a
# key may take, words, pairs and nothing at all.
config_values = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1e-320", "0", "0.0", "-1",
                     "", "none", "direct_dos", "amplification", "mlp", "mlp,som", "svm",
                     "0,9.5", "9.5,0", "1,2,3", ",", "10" * 30]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10),
    st.tuples(st.floats(), st.floats()).map(lambda p: f"{p[0]!r},{p[1]!r}"),
)


@st.composite
def mutated_configs(draw):
    """TINY_CONFIG with one key of one section set to a drawn value: an
    existing line replaced, or a line added for another key the section
    accepts. Returns (text, section name)."""
    names = list(_section_lines(TINY_CONFIG))
    name = draw(st.sampled_from(names))
    kind = "scenario.*" if name.startswith("scenario.") else name
    key = draw(st.sampled_from(sorted(SECTION_PARSERS[kind])))
    value = draw(config_values)
    lines = TINY_CONFIG.splitlines()
    start = lines.index(f"[{name}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
               len(lines))
    at = next((i for i in range(start + 1, end) if lines[i].split(" = ")[0] == key), None)
    if at is None:
        lines.insert(start + 1, f"{key} = {value}")
    else:
        lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n", name


class TestConfigContract:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_configs())
    def test_any_value_parses_or_is_config_error(self, case, tmp_path, capsys):
        text, name = case
        try:
            parse_pipeline_config(text)
        except ConfigError as exc:
            if name != "pipeline":
                kind = "scenario.*" if name.startswith("scenario.") else name
                prefix = f"[{name}] "
                assert str(exc).startswith(prefix), str(exc)
                key = re.match(r"\w+", str(exc)[len(prefix):])
                assert key and key.group() in SECTION_PARSERS[kind], str(exc)
        # Through the CLI: nothing is simulated, and whether the config or
        # the missing dataset stops it, the failure is one JSON line.
        cfg_path = tmp_path / "fuzz.cfg"
        cfg_path.write_text(text)
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(cfg_path), "--dataset",
                   str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert one_json_error(capsys)["error"] == "ConfigError"

    def test_readme_grammar_names_exactly_the_accepted_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration grammar", 1)[1].split("```ini\n", 1)[1]
        documented = {}
        for section, lines in _section_lines(block.split("```", 1)[0]).items():
            keys = documented.setdefault(section.replace("<name>", "*"), set())
            for line in lines:
                if re.match(r"\w+ =", line):
                    keys.add(line.split(" =")[0])
                elif line.startswith(";"):
                    listed = line[1:].split(":")[-1]
                    keys.update(k.strip() for k in listed.split(",") if k.strip())
        assert documented == {kind: set(keys) for kind, keys in SECTION_PARSERS.items()}

    # The attack rate derives from the packet size, so a zero size must be
    # refused as itself, not divided by.
    @pytest.mark.parametrize("kind, key", [("direct_dos", "attack_packet_size"),
                                           ("amplification", "amp_response_size")])
    def test_zero_attack_size_is_config_error(self, kind, key):
        bad = TINY_CONFIG.replace(f"attack_kind = {kind}\n", f"attack_kind = {kind}\n{key} = 0\n")
        with pytest.raises(ConfigError, match=rf"^\[scenario\.{kind}\] {key} must be"):
            parse_pipeline_config(bad)

    # A trace's `size` column is int32: a larger size was written wrapped
    # to a negative number, which `features` then refused to read back.
    @pytest.mark.parametrize("name, key", [("normal", "request_size"),
                                           ("normal", "normal_response_size"),
                                           ("amplification", "amp_response_size"),
                                           ("direct_dos", "attack_packet_size")])
    def test_size_beyond_the_trace_column_is_config_error(self, tmp_path, capsys, name, key):
        path = tmp_path / "big.cfg"
        path.write_text(TINY_CONFIG.replace(f"[scenario.{name}]\n",
                                            f"[scenario.{name}]\n{key} = {2**31}\n"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = one_json_error(capsys)
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith(f"[scenario.{name}] {key} must be")

    # Every rule holds for library callers too, when the object is built.
    @pytest.mark.parametrize("build, key", [
        (lambda: MlpTrainConfig(weight_init_range=float("inf")), "weight_init_range"),
        (lambda: MlpTrainConfig(lm_lambda_down=1.0), "lm_lambda_down"),
        (lambda: SomTrainConfig(tuning_lr=0.0), "tuning_lr"),
        (lambda: SomTrainConfig(ordering_steps=0), "ordering_steps"),
        (lambda: MlpRecipe(hidden=65), "hidden"),
        (lambda: RbfRecipe(centers=1), "centers"),
    ])
    def test_trainer_rules_checked_when_built(self, build, key):
        with pytest.raises(InvalidConfig, match=f"^{key} must be") as info:
            build()
        assert isinstance(info.value, ValueError)

    def test_model_file_with_a_broken_training_config_is_parse_error(self):
        model = mlp_init(3, 0)
        report = TrainReport(0.1, 1, 0.0, False, (0.2, 0.1))
        doc = json.loads(save_model(model, MlpTrainConfig(), report))
        doc["config"]["max_epochs"] = 0
        with pytest.raises(ParseError, match="max_epochs"):
            load_model(json.dumps(doc))


# Model files as `save_model` wrote them while `MlpTrainConfig` and
# `SomTrainConfig` still had a `seed` field, which no trainer read.
OLD_MLP_FILE = (
    '{"type": "mlp", "model": {"hidden_weights": [[0.5, -0.25, 0.125]], "hidden_bias": '
    '[0.75], "output_weights": [[1.0], [-1.0], [0.5]], "output_bias": [0.0, 0.25, -0.5]},'
    ' "config": {"max_epochs": 120, "target_mse": 1e-05, "lm_lambda_init": 0.001, '
    '"lm_lambda_up": 10.0, "lm_lambda_down": 0.1, "lm_lambda_max": 10000000000.0, '
    '"weight_init_range": 0.5, "seed": 0}, "report": {"final_mse": 0.0625, "epochs_run": '
    '12, "wall_time": 0.5, "converged": false, "mse_history": [0.5, 0.0625]}, '
    '"master_seed": 7, "config_digest": "abc"}')
OLD_SOM_FILE = (
    '{"type": "som", "model": {"codebook": [[0.0, 0.01, 0.02], [0.03, 0.04, 0.05], [0.06,'
    ' 0.07, 0.08], [0.09, 0.1, 0.11], [0.12, 0.13, 0.14], [0.15, 0.16, 0.17], [0.18, '
    '0.19, 0.2], [0.21, 0.22, 0.23], [0.24, 0.25, 0.26], [0.27, 0.28, 0.29], [0.3, 0.31, '
    '0.32], [0.33, 0.34, 0.35], [0.36, 0.37, 0.38], [0.39, 0.4, 0.41], [0.42, 0.43, '
    '0.44], [0.45, 0.46, 0.47], [0.48, 0.49, 0.5], [0.51, 0.52, 0.53], [0.54, 0.55, '
    '0.56], [0.57, 0.58, 0.59], [0.6, 0.61, 0.62], [0.63, 0.64, 0.65], [0.66, 0.67, '
    '0.68], [0.69, 0.7, 0.71], [0.72, 0.73, 0.74]], "grid": [[0.0, 0.0], [1.0, 0.0], '
    '[2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [0.5, 0.8660254037844386], [1.5, '
    '0.8660254037844386], [2.5, 0.8660254037844386], [3.5, 0.8660254037844386], [4.5, '
    '0.8660254037844386], [0.0, 1.7320508075688772], [1.0, 1.7320508075688772], [2.0, '
    '1.7320508075688772], [3.0, 1.7320508075688772], [4.0, 1.7320508075688772], [0.5, '
    '2.598076211353316], [1.5, 2.598076211353316], [2.5, 2.598076211353316], [3.5, '
    '2.598076211353316], [4.5, 2.598076211353316], [0.0, 3.4641016151377544], [1.0, '
    '3.4641016151377544], [2.0, 3.4641016151377544], [3.0, 3.4641016151377544], [4.0, '
    '3.4641016151377544]], "neuron_labels": ["normal", "direct_dos", "amplification", '
    '"normal", "direct_dos", "amplification", "normal", "direct_dos", "amplification", '
    '"normal", "direct_dos", "amplification", "normal", "direct_dos", "amplification", '
    '"normal", "direct_dos", "amplification", "normal", "direct_dos", "amplification", '
    '"normal", "direct_dos", "amplification", "normal"]}, "config": {"epochs": 6, '
    '"ordering_lr": 0.9, "ordering_steps": 1000, "tuning_lr": 0.02, '
    '"tuning_neighbor_dist": 1, "seed": 0}, "report": {"final_mse": 0.125, "epochs_run": '
    '6, "wall_time": 0.25, "converged": true, "mse_history": []}, "master_seed": 7, '
    '"config_digest": "abc"}')


def assert_same_model(loaded, model):
    """Every field equal to the last bit, arrays with their dtype."""
    assert type(loaded) is type(model)
    for f in fields(model):
        want, got = getattr(model, f.name), getattr(loaded, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


class TestModelStore:
    def test_mlp_round_trip_exact(self):
        model = mlp_init(7, 3)
        report = TrainReport(1.25e-6, 17, 0.125, True, (0.5, 1.25e-6))
        text = save_model(model, MlpTrainConfig(), report)
        loaded, cfg, rep = load_model(text)
        assert_same_model(loaded, model)
        assert cfg == MlpTrainConfig()
        assert rep == report

    def test_rbf_round_trip_exact(self):
        recipe = RbfRecipe(centers=3)
        rng = np.random.default_rng(0)
        rows = [(round(float(v[0]), 6), round(float(v[1]), 6), int(v[2]))
                for v in np.abs(rng.normal(size=(8, 3)) * 10)]
        ((model, report),) = recipe.train_folds(
            [LabeledDataset(rows, label_codes([ClassLabel.NORMAL] * 8))], [1])
        loaded, cfg, rep = load_model(save_model(model, None, report))
        assert_same_model(loaded, model)
        assert cfg is None
        assert rep == report

    def test_som_round_trip_with_labels(self):
        labeled = SomModel(som_init(2), label_codes(CLASS_ORDER[i % 3] for i in range(25)))
        text = save_model(labeled, SomTrainConfig(), TrainReport(0.1, 5, 0.01, True))
        assert json.loads(text)["model"]["neuron_labels"][:3] == [
            "normal", "direct_dos", "amplification"]
        loaded, cfg, _ = load_model(text)
        assert_same_model(loaded, labeled)
        assert loaded.neuron_labels.dtype == np.int8
        assert cfg == SomTrainConfig()

    def test_som_file_without_labels_rejected(self):
        # A map is a labelled codebook; a file whose labels are null is not one.
        labeled = SomModel(som_init(2), label_codes([CLASS_ORDER[0]] * 25))
        doc = json.loads(save_model(labeled, None, TrainReport(0.1, 5, 0.01, True)))
        doc["model"]["neuron_labels"] = None
        with pytest.raises(ParseError, match="malformed model file"):
            load_model(json.dumps(doc))

    def test_model_files_with_a_seed_key_still_load(self):
        model, cfg, report = load_model(OLD_MLP_FILE)
        assert model.hidden_weights.tolist() == [[0.5, -0.25, 0.125]]
        assert model.output_bias.tolist() == [0.0, 0.25, -0.5]
        assert cfg == MlpTrainConfig(max_epochs=120)
        assert report == TrainReport(0.0625, 12, 0.5, False, (0.5, 0.0625))

        model, cfg, report = load_model(OLD_SOM_FILE)
        assert np.array_equal(model.codebook, np.arange(75).reshape(25, 3) / 100)
        assert not hasattr(model, "grid")
        assert class_labels(model.neuron_labels) == [CLASS_ORDER[i % 3] for i in range(25)]
        assert cfg == SomTrainConfig(epochs=6)
        assert report == TrainReport(0.125, 6, 0.25, True, ())

        # What is written now has no seed key.
        assert "seed" not in json.loads(save_model(model, cfg, report))["config"]

    def test_malformed_model_rejected(self):
        with pytest.raises(ParseError):
            load_model("{not json")
        with pytest.raises(ParseError):
            load_model(json.dumps({"type": "svm", "model": {}, "config": None,
                                   "report": {}}))
        report = TrainReport(0.1, 1, 0.0, False)
        doc = json.loads(save_model(mlp_init(3, 0), MlpTrainConfig(), report))
        del doc["model"]["hidden_bias"]
        with pytest.raises(ParseError, match="hidden_bias"):
            load_model(json.dumps(doc))
        labeled = SomModel(som_init(0), label_codes([CLASS_ORDER[0]] * 25))
        doc = json.loads(save_model(labeled, SomTrainConfig(), report))
        doc["config"]["radius"] = 2
        with pytest.raises(ParseError, match="radius"):
            load_model(json.dumps(doc))
        # An rbf file's training has no settings to keep.
        rbf = RbfModel(np.eye(3)[:2], 1.0, np.zeros((3, 2)), np.zeros(3))
        doc = json.loads(save_model(rbf, None, report))
        doc["config"] = {"centers": 2}
        with pytest.raises(ParseError, match="config"):
            load_model(json.dumps(doc))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out = root / "out"
    rc = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return cfg_path, out


class TestResidentCode:
    """What a command maps into its process beyond what its work uses."""

    @pytest.mark.parametrize("command", ["pipeline", "evaluate", "train"])
    def test_cross_validation_and_training_load_no_openssl_or_masked_arrays(
            self, tiny_run, fresh_interpreter, tmp_path, command):
        # The first seeded generator imports `numpy.random`, whose `secrets`
        # would load OpenSSL (libcrypto, 3.3 MB resident), and the RBF's
        # distinct-row search could import `numpy.ma` (1.2 MB).
        cfg_path, out = tiny_run
        dataset = ["--dataset", str(out / "dataset.csv")]
        args = {"pipeline": [], "evaluate": dataset,
                "train": [*dataset, "--classifier", "rbf"]}[command]
        loaded = fresh_interpreter(command, *args, "--config", str(cfg_path),
                                   "--out", str(tmp_path))
        assert "numpy.random" in loaded.modules
        assert "_hashlib" not in loaded.modules
        assert "numpy.ma" not in loaded.modules
        if loaded.mappings is None:
            pytest.skip("no /proc/self/maps to list the mapped files")
        assert not [path for path in loaded.mappings if "libcrypto" in path]


class TestPipelineCommand:
    def test_outputs_exist(self, tiny_run):
        _, out = tiny_run
        traces = list((out / "traces").glob("*.trace"))
        assert len(traces) == 6
        assert (out / "dataset.csv").exists()
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()

    def test_outputs_embed_seed_and_digest(self, tiny_run):
        cfg_path, out = tiny_run
        digest = text_digest(cfg_path.read_text())
        dataset_head = (out / "dataset.csv").read_text().splitlines()[:2]
        assert dataset_head[0] == "# master_seed=7"
        assert dataset_head[1] == f"# config_digest={digest}"
        report_head = (out / "report.csv").read_text().splitlines()[0]
        assert "master_seed=7" in report_head
        assert digest in report_head
        trace_head = next(iter((out / "traces").glob("*.trace"))).read_text()
        assert "#master_seed=7" in trace_head

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_config_line_ends_do_not_move_its_digest(self, tiny_run, tmp_path, newline):
        cfg_path, out = tiny_run
        other = tmp_path / "tiny.cfg"
        other.write_bytes(TINY_CONFIG.replace("\n", newline).encode())
        dest = tmp_path / "o"
        assert main(["features", "--config", str(other), "--traces", str(out / "traces"),
                     "--out", str(dest)]) == 0
        assert main(["evaluate", "--config", str(other), "--dataset", str(dest / "dataset.csv"),
                     "--classifier", "rbf", "--out", str(dest)]) == 0
        digest = f"config_digest={text_digest(TINY_CONFIG)}"
        assert (dest / "dataset.csv").read_text().splitlines()[1] == f"# {digest}"
        assert digest in (dest / "report.csv").read_text().splitlines()[0]
        assert (dest / "dataset.csv").read_bytes() == (out / "dataset.csv").read_bytes()

    def test_report_lists_all_classifiers(self, tiny_run):
        _, out = tiny_run
        body = (out / "report.csv").read_text()
        for name in ("bp", "rbf", "som"):
            assert f"\n{name}," in body

    def test_composition_equals_stages(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        staged = tmp_path / "staged"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(staged)]) == 0
        assert main(["features", "--config", str(cfg_path), "--out", str(staged),
                     "--traces", str(staged / "traces")]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(staged),
                     "--dataset", str(staged / "dataset.csv")]) == 0
        assert (staged / "dataset.csv").read_bytes() == (out / "dataset.csv").read_bytes()
        assert (staged / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

    def test_pipeline_windows_traces_without_reading_them_back(self, tiny_run, tmp_path,
                                                               monkeypatch):
        """`pipeline` parses no file it wrote, and renders its dataset once."""
        cfg_path, out = tiny_run

        def refuse(what):
            def parse(text):
                raise AssertionError(f"pipeline parsed a {what} file")
            return parse

        rendered = []

        def write_dataset(*args, **kwargs):
            rendered.append(args)
            return real_write_dataset(*args, **kwargs)

        real_write_dataset = cli.write_dataset
        monkeypatch.setattr(cli, "read_trace", refuse("trace"))
        monkeypatch.setattr(cli, "read_dataset", refuse("dataset"))
        monkeypatch.setattr(cli, "write_dataset", write_dataset)
        dest = tmp_path / "in_memory"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(dest)]) == 0
        assert len(rendered) == 1
        assert (dest / "dataset.csv").read_bytes() == (out / "dataset.csv").read_bytes()
        assert (dest / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
        assert sorted(p.name for p in (dest / "traces").glob("*.trace")) == sorted(
            p.name for p in (out / "traces").glob("*.trace"))

    def test_rerun_is_byte_identical(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        again = tmp_path / "again"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(again)]) == 0
        assert (again / "dataset.csv").read_bytes() == (out / "dataset.csv").read_bytes()
        assert (again / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

    def test_seed_override_changes_dataset(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        other = tmp_path / "other"
        assert main(["pipeline", "--config", str(cfg_path), "--seed", "99",
                     "--out", str(other)]) == 0
        assert (other / "dataset.csv").read_bytes() != (out / "dataset.csv").read_bytes()


class TestCommandsAndExitCodes:
    def test_train_writes_model(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        dest = tmp_path / "model"
        rc = main(["train", "--config", str(cfg_path), "--dataset",
                   str(out / "dataset.csv"), "--classifier", "rbf", "--out", str(dest)])
        assert rc == 0
        text = (dest / "model_rbf.json").read_text()
        model, _, report = load_model(text)
        assert model.centers.shape[0] == 6
        assert report.final_mse >= 0
        doc = json.loads(text)
        assert doc["master_seed"] == 7
        assert doc["config_digest"] == text_digest(cfg_path.read_text())

    def test_damping_underflowed_to_zero_ends_evaluate(self, tmp_path, monkeypatch):
        # With lm_lambda_down = 1e-200 the LM damping is 0 after two
        # accepted steps, and growing it by lm_lambda_up leaves it 0. On
        # these overlapping classes a later step is rejected, which must end
        # the fit: a damping above 0 passes the cap within 335 solves an epoch.
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 3, 60)
        X = np.abs(rng.normal(size=(60, 3)) + codes[:, None] * [1.0, -0.5, 0.3])
        X = np.trunc(X * [1e5, 1e4, 3]) / [100, 100, 1]
        data = tmp_path / "overlap.csv"
        data.write_text(write_dataset(LabeledDataset(X, codes.astype(np.int8))))
        cfg = tmp_path / "underflow.cfg"
        cfg.write_text(TINY_CONFIG.replace("hidden = 5\nmax_epochs = 120\n",
                                           "hidden = 2\nmax_epochs = 50\ntarget_mse = 1e-12\n"
                                           "lm_lambda_down = 1e-200\n"))
        solve, calls, bound = np.linalg.solve, [0], 3 * 50 * 335

        def bounded_solve(a, b):
            calls[0] += 1
            if calls[0] > bound:
                raise RuntimeError(f"more than {bound} solves: a fit runs on")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", bounded_solve)
        rc = main(["evaluate", "--config", str(cfg), "--dataset", str(data),
                   "--classifier", "mlp", "--k", "3", "--out", str(tmp_path / "o")])
        assert rc in (0, 4)

    def test_trained_model_carries_its_training_config(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        rc = main(["train", "--config", str(cfg_path), "--dataset",
                   str(out / "dataset.csv"), "--classifier", "som", "--out", str(tmp_path)])
        assert rc == 0
        _, config, _ = load_model((tmp_path / "model_som.json").read_text())
        assert config == parse_pipeline_config(TINY_CONFIG).som.train_config

    def test_sweep_writes_csv(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        dest = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg_path), "--dataset",
                   str(out / "dataset.csv"), "--widths", "3,5", "--out", str(dest)])
        assert rc == 0
        lines = (dest / "sweep.csv").read_text().splitlines()
        assert lines[1] == "width,dr_direct,dr_amp,accuracy,far,train_mse,test_mse"
        assert len(lines) == 4

    def test_sweep_worker_error_reaches_the_cli(self, tiny_run, tmp_path, capsys,
                                                 monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        # The sweep's workers are forked, so they inherit the patch.
        monkeypatch.setattr(np.linalg, "solve", singular)
        cfg_path, out = tiny_run
        rc = main(["sweep", "--config", str(cfg_path), "--dataset",
                   str(out / "dataset.csv"), "--widths", "3,5",
                   "--out", str(tmp_path / "sweep")])
        assert rc == 4
        err = one_json_error(capsys)
        assert err["error"] == "SingularUpdate"
        assert err["detail"].startswith("fold 0: ")

    def test_lost_sweep_worker_is_training_error(self, tiny_run, tmp_path, capsys,
                                                 monkeypatch):
        # The sweep's workers are forked, so they inherit the patch.
        monkeypatch.setattr(evaluation, "_sweep_row", _lost_worker)
        cfg_path, out = tiny_run
        rc = main(["sweep", "--config", str(cfg_path), "--dataset",
                   str(out / "dataset.csv"), "--widths", "3,5",
                   "--out", str(tmp_path / "sweep")])
        assert rc == 4
        assert one_json_error(capsys) == {
            "error": "WorkerLost",
            "detail": "a sweep worker process ended; no result for widths 3,5"}

    # `benchmarks/traced.py` times the parsers by swapping these names.
    @pytest.mark.parametrize("command, parser", [("features", "read_trace"),
                                                 ("train", "read_dataset"),
                                                 ("evaluate", "read_dataset"),
                                                 ("sweep", "read_dataset")])
    def test_parsers_are_looked_up_by_name_when_called(self, tiny_run, tmp_path, monkeypatch,
                                                       command, parser):
        real = getattr(cli, parser)
        calls = []

        def counted(pieces):
            calls.append(parser)
            return real(pieces)

        monkeypatch.setattr(cli, parser, counted)
        cfg_path, out = tiny_run
        args = {"features": ["--traces", str(out / "traces")],
                "train": ["--dataset", str(out / "dataset.csv"), "--classifier", "rbf"],
                "evaluate": ["--dataset", str(out / "dataset.csv"), "--classifier", "rbf"],
                "sweep": ["--dataset", str(out / "dataset.csv"), "--widths", "3"]}[command]
        assert main([command, "--config", str(cfg_path), *args,
                     "--out", str(tmp_path / "o")]) == 0
        traces = len(list((out / "traces").glob("*.trace")))
        assert calls == [parser] * (traces if command == "features" else 1)

    # One dataset is trained outside cross-validation, so no fold is named.
    @pytest.mark.parametrize("classifier, error", [("mlp", "SingularUpdate"),
                                                   ("rbf", "DegenerateDesign")])
    def test_train_error_names_no_fold(self, tiny_run, tmp_path, capsys, monkeypatch,
                                       classifier, error):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        cfg_path, out = tiny_run
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(out / "dataset.csv"),
                   "--classifier", classifier, "--out", str(tmp_path / "o")])
        assert rc == 4
        err = one_json_error(capsys)
        assert err["error"] == error
        assert "fold" not in err["detail"]

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_empty_dataset_train_fails_with_empty(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_text(write_dataset(LabeledDataset((), ())))
        rc = main([command, "--dataset", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 4
        err = one_json_error(capsys)
        assert err == {"error": "Empty", "detail": f"dataset {empty} has no samples"}

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_bad_dataset_is_parse_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                       "1.0,2.0,0,weird\n")
        rc = main([command, "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert err["detail"] == (f"dataset {bad}: unknown label 'weird' "
                                 "(line 2, field 'label')")

    def test_out_of_order_trace_is_parse_error_naming_line(self, tiny_run, tmp_path,
                                                            capsys):
        cfg_path, out = tiny_run
        lines = sorted((out / "traces").glob("*.trace"))[0].read_text().splitlines()
        second = [i for i, line in enumerate(lines) if not line.startswith("#")][1]
        fields = lines[second].split(",")
        lines[second] = ",".join([fields[0], "0.000000", *fields[2:]])
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "bad.trace").write_text("\n".join(lines) + "\n")
        rc = main(["features", "--config", str(cfg_path), "--traces", str(traces),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert f"line {second + 1}" in err["detail"]
        assert str(traces / "bad.trace") in err["detail"]

    def test_trace_without_header_is_parse_error_naming_file(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "headless.trace").write_text("0.000000,req,60,delivered,0\n")
        rc = main(["features", "--traces", str(traces), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert str(traces / "headless.trace") in err["detail"]
        assert "duration" in err["detail"]

    @pytest.mark.parametrize("value", ["0.0", "nan", "1e-320"])
    def test_trace_header_breaking_a_scenario_rule_is_parse_error(self, tiny_run, tmp_path,
                                                                 capsys, value):
        _, out = tiny_run
        text = sorted((out / "traces").glob("*.trace"))[0].read_text()
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "bad.trace").write_text(text.replace("#window_len=20.0\n",
                                                       f"#window_len={value}\n", 1))
        rc = main(["features", "--traces", str(traces), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert str(traces / "bad.trace") in err["detail"]
        assert "window_len must be" in err["detail"]

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_evaluate_fewer_than_two_folds_is_config_error(self, tiny_run, tmp_path,
                                                           capsys, k):
        cfg_path, out = tiny_run
        rc = main(["evaluate", "--config", str(cfg_path), "--dataset",
                   str(out / "dataset.csv"), "--k", k, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "--k" in err["detail"]

    def test_evaluate_single_classifier(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        dest = tmp_path / "single"
        rc = main(["evaluate", "--config", str(cfg_path), "--dataset",
                   str(out / "dataset.csv"), "--classifier", "rbf",
                   "--k", "3", "--out", str(dest)])
        assert rc == 0
        body = (dest / "report.csv").read_text()
        assert "\nrbf," in body and "\nbp," not in body


def _lost_worker(*args):
    """A sweep width whose worker process dies before it returns; at module
    level, so the pool can hand it to a worker by name."""
    os._exit(9)


def one_json_error(capsys) -> dict:
    """The single stderr line of a failed command, parsed."""
    (line,) = capsys.readouterr().err.strip().splitlines()
    return json.loads(line)


def input_command(kind, path, tmp_path) -> list[str]:
    """A command that reads `path` as its config, dataset or trace file."""
    out = str(tmp_path / "o")
    if kind == "config":
        return ["simulate", "--config", str(path), "--out", out]
    if kind == "dataset":
        return ["evaluate", "--dataset", str(path), "--out", out]
    return ["features", "--traces", str(path.parent), "--out", out]


class TestInputFiles:
    @pytest.mark.parametrize("kind", ["config", "dataset"])
    @pytest.mark.parametrize("make_dir", [True, False], ids=["directory", "missing"])
    def test_unreadable_path_is_config_error(self, tmp_path, capsys, kind, make_dir):
        path = tmp_path / "input"
        if make_dir:
            path.mkdir()
        assert main(input_command(kind, path, tmp_path)) == 2
        err = one_json_error(capsys)
        assert err["error"] == "ConfigError"
        assert str(path) in err["detail"]

    @pytest.mark.parametrize("kind", ["config", "dataset", "trace"])
    def test_non_utf8_file_is_parse_error_naming_it(self, tmp_path, capsys, kind):
        valid = {"config": TINY_CONFIG, "dataset": write_dataset(LabeledDataset((), ())),
                 "trace": ""}[kind]
        (tmp_path / "in").mkdir()
        path = tmp_path / "in" / f"latin1.{kind}"
        path.write_bytes(valid.encode() + b"# caf\xe9\n")
        assert main(input_command(kind, path, tmp_path)) == 3
        err = one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert str(path) in err["detail"]

    def test_loss_too_large_for_a_float_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                        f"1.0,2.0,{'9' * 400},normal\n")
        rc = main(["train", "--dataset", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert "line 2" in err["detail"]

    @pytest.mark.parametrize("widths", ["3,x", "3,,5"])
    def test_bad_sweep_widths_are_config_error(self, tmp_path, capsys, widths):
        path = tmp_path / "empty.csv"
        path.write_text(write_dataset(LabeledDataset((), ())))
        rc = main(["sweep", "--dataset", str(path), "--widths", widths,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = one_json_error(capsys)
        assert err["error"] == "ConfigError"
        assert "--widths" in err["detail"]


class TestLineBound:
    """No input file is held past the bound on one line: a config file in
    all, a dataset or trace file per line."""

    @pytest.mark.parametrize("kind", ["config", "dataset", "trace"])
    @pytest.mark.parametrize("char", ["0", "\0"], ids=["digits", "nul"])
    def test_endless_line_is_parse_error_naming_file_and_line(
            self, tmp_path, capsys, monkeypatch, endless_line, kind, char):
        (tmp_path / "in").mkdir()
        path = tmp_path / "in" / f"endless.{kind}"
        path.write_text("")
        monkeypatch.setattr(cli, "_decoded_pieces", lambda file: endless_line(char))
        assert main(input_command(kind, path, tmp_path)) == 3
        err = one_json_error(capsys)
        assert err["error"] == "ParseError"
        assert err["detail"].startswith(f"{_FILE_NAMES[kind]} {path}: ")
        assert err["detail"].endswith(f"longer than {simnet.MAX_LINE_CHARS} characters (line 1)")

    def test_config_at_the_bound_reads_and_one_character_more_fails(self, tmp_path, capsys):
        bound = simnet.MAX_LINE_CHARS
        text = TINY_CONFIG + "; " + "x" * (bound - len(TINY_CONFIG) - 3) + "\n"
        assert len(text) == bound
        path = tmp_path / "padded.cfg"
        path.write_text(text)
        assert cli._load_config(str(path), None)[0] == parse_pipeline_config(TINY_CONFIG)
        path.write_text("x" + text)
        assert main(input_command("config", path, tmp_path)) == 3
        line = len(TINY_CONFIG.splitlines()) + 1
        assert one_json_error(capsys) == {
            "error": "ParseError",
            "detail": f"config file {path}: longer than {bound} characters (line {line})"}

    def test_features_refuses_more_traces_than_the_provenance_line_holds(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_RUNS", 1)
        for name in ("a.trace", "b.trace"):
            (tmp_path / name).write_text(_SHORT_TRACE)
        assert main(["features", "--traces", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert one_json_error(capsys) == {"error": "ConfigError",
                                          "detail": "at most 1 trace files, got 2"}


class TestStratification:
    def test_unstratified_folds_are_named_on_stderr(self, tmp_path):
        # 8, 8 and 3 rows: stratified 10 folds need at least 4 of each class.
        data = read_dataset(_TINY_DATASET)
        amplification = np.flatnonzero(data.codes == 2)
        keep = sorted(np.flatnonzero(data.codes != 2).tolist() + amplification[:3].tolist())
        path = tmp_path / "small.csv"
        path.write_text(write_dataset(data.subset(keep)))
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CONFIG)
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dnsids.cli", "evaluate", "--config", str(cfg_path),
             "--dataset", str(path), "--classifier", "mlp", "--k", "10",
             "--out", str(tmp_path / "o")],
            env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stderr.splitlines() if not line.startswith("INFO ")] == [
            "WARNING cross-validation is not stratified: the smallest class has 3 rows, "
            "too few for 10 folds; the folds are a plain shuffle"]
        assert (tmp_path / "o" / "report.csv").exists()

    def test_stratified_folds_warn_nothing(self, tmp_path, caplog):
        path = tmp_path / "tiny.csv"
        path.write_text(_TINY_DATASET)
        with caplog.at_level(logging.INFO, logger="dnsids"):
            assert main(["evaluate", "--dataset", str(path), "--classifier", "rbf", "--k", "10",
                         "--out", str(tmp_path / "o")]) == 0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


# What the CLI calls each kind of input file in its messages.
_FILE_NAMES = {"config": "config file", "dataset": "dataset", "trace": "trace file"}


class TestFileReading:
    """Every input file is read and decoded READ_CHUNK bytes at a time."""

    @staticmethod
    def text(kind) -> str:
        return {"config": TINY_CONFIG, "dataset": _TINY_DATASET, "trace": _SHORT_TRACE}[kind]

    @staticmethod
    def parse(kind, text):
        """What the CLI makes of `text` as a whole input of `kind`."""
        if kind == "config":
            return parse_pipeline_config(text), text_digest(text)
        return {"dataset": read_dataset, "trace": read_trace}[kind](text)

    @staticmethod
    def read(kind, path):
        """What the CLI makes of the file at `path` as an input of `kind`."""
        if kind == "config":
            return cli._load_config(str(path), None)
        if kind == "dataset":
            return cli._read_dataset_file(path)
        return cli._read_file(path, "trace file", read_trace)

    @pytest.mark.parametrize("kind", ["trace", "dataset", "config"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 20])
    def test_any_read_length_reads_the_whole_file(self, tmp_path, monkeypatch, chunk, kind):
        # "\r\n" line ends, and a note of two-, three- and four-byte
        # characters, so read boundaries fall inside both.
        lines = ["#note=\u00e9\u20ac\U0001f600", *self.text(kind).splitlines()]
        (tmp_path / "in").mkdir()
        path = tmp_path / "in" / f"crlf.{kind}"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        monkeypatch.setattr(cli, "READ_CHUNK", chunk)
        assert self.read(kind, path) == self.parse(kind, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["trace", "dataset", "config"])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 20])
    @pytest.mark.parametrize("bad, at", [(b"\xff", 0.5), (b"\xe2\x28\xa1", 0.5),
                                         (b"\xf0\x9f\x98", 1.0)],
                             ids=["invalid", "bad-continuation", "truncated-at-end"])
    def test_bytes_not_utf8_are_named_by_their_offset_in_the_file(
            self, tmp_path, capsys, monkeypatch, chunk, bad, at, kind):
        good = self.text(kind).encode()
        cut = int(len(good) * at)
        data = good[:cut] + bad + good[cut:]
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        (tmp_path / "in").mkdir()
        path = tmp_path / "in" / f"bad.{kind}"
        path.write_bytes(data)
        monkeypatch.setattr(cli, "READ_CHUNK", chunk)
        rc = main(input_command(kind, path, tmp_path))
        assert rc == 3
        err = one_json_error(capsys)
        assert err == {"error": "ParseError",
                       "detail": f"{_FILE_NAMES[kind]} {path} is not UTF-8 text "
                                 f"(byte {info.value.start})"}

    def test_peak_memory_is_a_small_multiple_of_its_columns(self, tmp_path, monkeypatch):
        # Reading the 1.9 MB file whole held its bytes and its text at
        # once, 6.4 times the columns.
        trace = simnet.run(simnet.make_scenario(attack_kind="direct_dos", duration=120,
                                                bottleneck_rate=1_000_000,
                                                attack_start_jitter=(0.0, 9.5)), seed=42)
        path = tmp_path / "flood.trace"
        path.write_text(write_trace(trace), encoding="utf-8")
        monkeypatch.setattr(simnet, "RENDER_BLOCK", 256)
        monkeypatch.setattr(cli, "READ_CHUNK", 1 << 16)
        tracemalloc.start()
        try:
            read = self.read("trace", path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == trace
        columns = ("t", "kind", "size", "disposition", "flow")
        assert peak < 2.5 * sum(getattr(trace, name).nbytes for name in columns)


# Tokens a mutated line may put in place of a value: numbers of every
# kind, the names a field may take, separators and short free text.
input_tokens = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "1e-320", "9" * 400, "",
                     "1e300", "-1e300", "1.7976931348623157e308", "1e200", "1e155",
                     "normal", "direct_dos", "atk", "q0", "q-1", "legit_request",
                     "attack_packet", "dropped_at_queue", "#", ",", "=", "provenance="]),
    st.text(st.characters(codec="utf-8"), max_size=6),
)


@st.composite
def mutated_text(draw, text: str) -> str:
    """`text` after one to three line mutations: drop a line, duplicate it,
    truncate it, swap two of its fields, or put a drawn token in place of
    one field (of a `#key=value` header line, its value)."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["drop", "duplicate", "truncate", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, line)
        elif op == "truncate":
            lines[i] = line[:draw(st.integers(0, len(line)))]
        elif line.startswith("#") and "=" in line:
            if op == "token":
                lines[i] = line.split("=", 1)[0] + "=" + draw(input_tokens)
        else:
            fields = line.split(",")
            j = draw(st.integers(0, len(fields) - 1))
            if op == "swap":
                k = draw(st.integers(0, len(fields) - 1))
                fields[j], fields[k] = fields[k], fields[j]
            else:
                fields[j] = draw(input_tokens)
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _short_trace_text() -> str:
    """A 5-second direct flood: a header and about 150 rows."""
    cfg = simnet.make_scenario(attack_kind="direct_dos", duration=5, bottleneck_rate=100_000,
                               attack_start_jitter=(0.0, 1.0), attack_duration=5)
    return write_trace(simnet.run(cfg, seed=3))


def _tiny_dataset_text() -> str:
    """24 windows, 8 of each class, in three separated clusters."""
    rng = np.random.default_rng(5)
    centers = np.array([[800.0, 300.0, 0.0], [9000.0, 500.0, 40.0], [9500.0, 1400.0, 30.0]])
    rows = [(round(float(a), 6), round(float(b), 6), int(c))
            for a, b, c in np.repeat(centers, 8, axis=0) * rng.uniform(0.9, 1.1, (24, 3))]
    return write_dataset(LabeledDataset(rows, np.repeat([0, 1, 2], 8), ("fuzz.trace",)))


def assert_contract(rc: int, capsys) -> None:
    """Exit 0, or a contract exit code with exactly one JSON stderr line."""
    assert rc in (0, 2, 3, 4)
    if rc:
        err = one_json_error(capsys)
        assert set(err) == {"error", "detail"}
    capsys.readouterr()


class TestInputTextContract:
    """Mutated trace and dataset text fails by contract, never with a traceback."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_mutated_trace_is_windowed_or_refused(self, data, tmp_path, capsys):
        text = data.draw(mutated_text(_SHORT_TRACE), "trace")
        traces = tmp_path / "traces"
        traces.mkdir(exist_ok=True)
        (traces / "fuzz.trace").write_text(text, encoding="utf-8")
        capsys.readouterr()
        rc = main(["features", "--traces", str(traces), "--out", str(tmp_path / "o")])
        assert_contract(rc, capsys)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_mutated_dataset_is_evaluated_or_refused(self, data, tmp_path, capsys):
        text = data.draw(mutated_text(_TINY_DATASET), "dataset")
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CONFIG)
        path = tmp_path / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(cfg_path), "--dataset", str(path),
                   "--classifier", "rbf", "--out", str(tmp_path / "o")])
        assert_contract(rc, capsys)


_SHORT_TRACE = _short_trace_text()
_TINY_DATASET = _tiny_dataset_text()


class TestNumericFaults:
    """A feature too large for a classifier's arithmetic fails by contract.

    One `throughput_bps` of 1e300 among 24 windows overflows the MLP's
    standardisation and the RBF's distances: each fails as a NumericFault
    (exit 4) naming the classifier, and under `evaluate` the fold. The map
    scales each row exactly before it normalises it, so it takes the
    value without a fault.
    """

    @staticmethod
    def run(tmp_path, capsys, command, classifier):
        lines = _TINY_DATASET.splitlines()
        row = next(i for i, line in enumerate(lines) if line[:1].isdigit()) + 3
        lines[row] = ",".join(["1e300", *lines[row].split(",")[1:]])
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CONFIG)
        capsys.readouterr()
        return main([command, "--config", str(cfg_path), "--dataset", str(path),
                     "--classifier", classifier, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("classifier, name", [("mlp", "bp"), ("rbf", "rbf")])
    def test_overflow_in_evaluate_names_classifier_and_fold(self, tmp_path, capsys,
                                                            classifier, name):
        assert self.run(tmp_path, capsys, "evaluate", classifier) == 4
        err = one_json_error(capsys)
        assert err["error"] == "NumericFault"
        assert re.fullmatch(rf"fold \d+: {name}: floating-point fault: overflow .*",
                            err["detail"])

    @pytest.mark.parametrize("classifier, name", [("mlp", "bp"), ("rbf", "rbf")])
    def test_overflow_in_train_names_classifier(self, tmp_path, capsys, classifier, name):
        assert self.run(tmp_path, capsys, "train", classifier) == 4
        err = one_json_error(capsys)
        assert err["error"] == "NumericFault"
        assert err["detail"].startswith(f"{name}: floating-point fault: overflow")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_map_takes_the_value(self, tmp_path, capsys, command):
        assert self.run(tmp_path, capsys, command, "som") == 0
        if command == "evaluate":
            (row,) = parse_report_csv((tmp_path / "o" / "report.csv").read_text())
            assert 0.0 <= row["accuracy_3class"] <= 100.0


class TestOutputFiles:
    """An output directory that cannot be created fails as ConfigError naming it."""

    @staticmethod
    def command(name, cfg_path, out, dest):
        cfg = ["--config", str(cfg_path), "--out", str(dest)]
        dataset = ["--dataset", str(out / "dataset.csv")]
        return {
            "simulate": ["simulate", *cfg],
            "features": ["features", *cfg, "--traces", str(out / "traces")],
            "train": ["train", *cfg, *dataset, "--classifier", "rbf"],
            "evaluate": ["evaluate", *cfg, *dataset, "--classifier", "rbf"],
            "sweep": ["sweep", *cfg, *dataset, "--widths", "3"],
            "pipeline": ["pipeline", *cfg],
        }[name]

    @pytest.mark.parametrize("name", ["simulate", "features", "train", "evaluate",
                                      "sweep", "pipeline"])
    def test_out_under_a_file_is_config_error(self, tiny_run, tmp_path, capsys, name):
        cfg_path, out = tiny_run
        blocker = tmp_path / "F"
        blocker.write_text("not a directory\n")
        dest = blocker / "x"
        assert main(self.command(name, cfg_path, out, dest)) == 2
        err = one_json_error(capsys)
        assert err["error"] == "ConfigError"
        assert str(dest) in err["detail"]

    def test_out_that_is_a_file_is_config_error(self, tiny_run, tmp_path, capsys):
        cfg_path, out = tiny_run
        dest = tmp_path / "F"
        dest.write_text("not a directory\n")
        assert main(self.command("sweep", cfg_path, out, dest)) == 2
        err = one_json_error(capsys)
        assert err["error"] == "ConfigError"
        assert str(dest) in err["detail"]


class TestSimulateStage:
    # A 1 Mbit/s link at 1.2x overload with a fixed attack start, so every
    # run of the block simulates the same ~17k-event trace.
    OVERLOADED = """\
[pipeline]
seed = 3

[scenario.flood]
runs = {runs}
duration = 60
bottleneck_rate = 1000000
attack_kind = direct_dos
attack_start_jitter = 0,0
"""

    def simulate_peak(self, tmp_path, runs: int) -> int:
        cfg = parse_pipeline_config(self.OVERLOADED.format(runs=runs))
        tracemalloc.start()
        try:
            cli.do_simulate(cfg, tmp_path / f"runs{runs}", "digest")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_trace_in_memory_at_a_time(self, tmp_path):
        cli.do_simulate(parse_pipeline_config(self.OVERLOADED.format(runs=1)),
                        tmp_path / "warm", "digest")
        one, two = self.simulate_peak(tmp_path, 1), self.simulate_peak(tmp_path, 2)
        first, second = (read_trace(path.read_text())
                         for path in sorted((tmp_path / "runs2" / "traces").glob("*.trace")))
        columns = ("t", "kind", "size", "disposition", "flow")
        # The same rows; only the seeds differ.
        assert all(np.array_equal(getattr(first, c), getattr(second, c)) for c in columns)
        assert len(first) > 15_000
        # Holding the first trace while the second run executes would raise
        # the peak by at least its column memory; holding its text, which is
        # about three times as large, by more.
        assert two - one < sum(getattr(first, c).nbytes for c in columns)

    def test_log_reports_each_trace_and_its_queue(self, tmp_path, caplog):
        cfg = parse_pipeline_config(TINY_CONFIG)
        with caplog.at_level(logging.INFO, logger="dnsids"):
            paths = cli.do_simulate(cfg, tmp_path, "digest")
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("simulated")]
        assert len(lines) == len(paths) == 6
        for path, line in zip(paths, lines):
            header = dict(row[1:].split("=", 1) for row in path.read_text().splitlines()
                          if row.startswith("#"))
            assert line.startswith(f"simulated {path.name}: ")
            assert line.endswith(f"max queue occupancy {header['max_queue_occupancy']}")

    def test_output_pieces_are_written_in_order_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "WRITE_CHUNK", 3)
        pieces = ("#a=1\n", "", "0,1.5,x\n1,2.25,\u00e9\n", "z")
        path = cli._write_output(tmp_path / "sub" / "f.txt", pieces)
        assert path.read_bytes() == "".join(pieces).encode("utf-8")
        path = cli._write_output(tmp_path / "g.txt", (piece for piece in pieces))
        assert path.read_bytes() == "".join(pieces).encode("utf-8")

    def test_no_whole_trace_text_reaches_the_file(self, tmp_path, monkeypatch):
        cfg = parse_pipeline_config(TINY_CONFIG)
        cli.do_simulate(cfg, tmp_path / "default", "digest")
        rows = []

        def counted(*args):
            text = write_trace(*args)
            rows.append(sum(not line.startswith("#") for line in text.splitlines()))
            return text

        monkeypatch.setattr(simnet, "RENDER_BLOCK", 64)
        monkeypatch.setattr(cli, "write_trace", counted)
        paths = cli.do_simulate(cfg, tmp_path / "small", "digest")
        assert max(rows) <= 64
        assert len(rows) > 5 * len(paths)
        for path in paths:
            assert path.read_bytes() == (tmp_path / "default" / "traces" / path.name).read_bytes()


def test_every_error_descends_from_exactly_one_root():
    roots = (errors.ConfigError, errors.ParseError, errors.TrainingError)

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = set(subclasses(errors.DnsIdsError))
    assert set(roots) < found
    assert found == {obj for obj in vars(errors).values() if isinstance(obj, type)
                     and issubclass(obj, errors.DnsIdsError)} - {errors.DnsIdsError}
    for cls in found:
        assert sum(issubclass(cls, root) for root in roots) == 1, cls.__name__
