"""JSON persistence for trained models, exact to the last bit.

Files carry a `type` tag (mlp | rbf | som), the model's fields at full
float precision, the training configuration, and the training report.
Array fields are nested lists; a map's `neuron_labels` are class names.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from ..errors import ParseError
from ..preproc import ClassLabel, class_labels, label_codes
from .base import TrainReport
from .mlp import MlpModel, MlpTrainConfig
from .rbf import RbfModel
from .som import SomModel, SomTrainConfig

# Each type tag's model class, and its training config class (None: the
# trainer has no settings the file keeps).
_TYPES = {"mlp": (MlpModel, MlpTrainConfig), "rbf": (RbfModel, None),
          "som": (SomModel, SomTrainConfig)}
_TAGS = {model_cls: tag for tag, (model_cls, _) in _TYPES.items()}


def _encode(name: str, value):
    if name == "neuron_labels":
        return None if value is None else [lbl.value for lbl in class_labels(value)]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _decode(name: str, raw):
    if name == "neuron_labels":
        return None if raw is None else label_codes(ClassLabel(v) for v in raw)
    return np.array(raw) if isinstance(raw, list) else raw


def save_model(model, config, report: TrainReport, extra: dict | None = None) -> str:
    """Serialize; `extra` adds provenance keys (seed, config digest) to the doc."""
    if type(model) not in _TAGS:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    doc = {
        "type": _TAGS[type(model)],
        "model": {f.name: _encode(f.name, getattr(model, f.name)) for f in fields(model)},
        "config": None if config is None else asdict(config),
        "report": asdict(report),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def load_model(text: str):
    """Parse a model file; returns (model, config, report).

    Model keys the class has no field for, such as an old map's `grid`,
    are ignored, and so is a `seed` in the config.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file is not valid JSON: {exc}") from None
    try:
        kind = doc["type"]
        if kind not in _TYPES:
            raise ParseError(f"unknown model type {kind!r}", field="type")
        model_cls, config_cls = _TYPES[kind]
        payload = doc["model"]
        model = model_cls(**{f.name: _decode(f.name, payload[f.name])
                             for f in fields(model_cls)})
        settings = doc["config"]
        if isinstance(settings, dict):
            settings.pop("seed", None)   # no trainer reads it; older files carry it
        if settings is None:
            config = None
        elif config_cls is None:
            raise ParseError(f"{kind} model files carry no config", field="config")
        else:
            config = config_cls(**settings)
        rep = doc["report"]
        report = TrainReport(rep["final_mse"], rep["epochs_run"], rep["wall_time"],
                             rep["converged"], tuple(rep.get("mse_history", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model file: {exc}") from None
    return model, config, report
