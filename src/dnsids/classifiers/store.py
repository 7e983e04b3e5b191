"""JSON persistence for trained models, exact to the last bit.

Files carry a `type` tag (mlp | rbf | som), the weights at full float
precision, the training configuration, and the training report.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from ..errors import ParseError
from ..preproc import ClassLabel, class_labels, label_codes
from .base import TrainReport
from .mlp import MlpModel, MlpTrainConfig
from .rbf import RbfModel
from .som import SomModel, SomTrainConfig


def _model_payload(model) -> tuple[str, dict]:
    if isinstance(model, MlpModel):
        return "mlp", {
            "hidden_weights": model.hidden_weights.tolist(),
            "hidden_bias": model.hidden_bias.tolist(),
            "output_weights": model.output_weights.tolist(),
            "output_bias": model.output_bias.tolist(),
        }
    if isinstance(model, RbfModel):
        return "rbf", {
            "centers": model.centers.tolist(),
            "width": model.width,
            "output_weights": model.output_weights.tolist(),
            "output_bias": model.output_bias.tolist(),
        }
    if isinstance(model, SomModel):
        labels = (None if model.neuron_labels is None
                  else [lbl.value for lbl in class_labels(model.neuron_labels)])
        return "som", {
            "codebook": model.codebook.tolist(),
            "grid": model.grid.tolist(),
            "neuron_labels": labels,
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")


def save_model(model, config, report: TrainReport, extra: dict | None = None) -> str:
    """Serialize; `extra` adds provenance keys (seed, config digest) to the doc."""
    kind, payload = _model_payload(model)
    doc = {
        "type": kind,
        "model": payload,
        "config": None if config is None else asdict(config),
        "report": asdict(report),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def load_model(text: str):
    """Parse a model file; returns (model, config, report)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file is not valid JSON: {exc}") from None
    try:
        kind = doc["type"]
        payload = doc["model"]
        settings = doc["config"]
        if isinstance(settings, dict):
            settings.pop("seed", None)   # no trainer reads it; older files carry it
        if kind == "mlp":
            model = MlpModel(
                hidden_weights=np.array(payload["hidden_weights"]),
                hidden_bias=np.array(payload["hidden_bias"]),
                output_weights=np.array(payload["output_weights"]),
                output_bias=np.array(payload["output_bias"]),
            )
            config = None if settings is None else MlpTrainConfig(**settings)
        elif kind == "rbf":
            model = RbfModel(
                centers=np.array(payload["centers"]),
                width=payload["width"],
                output_weights=np.array(payload["output_weights"]),
                output_bias=np.array(payload["output_bias"]),
            )
            config = settings
        elif kind == "som":
            labels = payload["neuron_labels"]
            model = SomModel(
                codebook=np.array(payload["codebook"]),
                grid=np.array(payload["grid"]),
                neuron_labels=(None if labels is None
                               else label_codes(ClassLabel(v) for v in labels)),
            )
            config = None if settings is None else SomTrainConfig(**settings)
        else:
            raise ParseError(f"unknown model type {kind!r}", field="type")
        rep = doc["report"]
        report = TrainReport(rep["final_mse"], rep["epochs_run"], rep["wall_time"],
                             rep["converged"], tuple(rep.get("mse_history", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model file: {exc}") from None
    return model, config, report
