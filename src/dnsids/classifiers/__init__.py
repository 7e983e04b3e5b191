"""Three neural classifiers over the 3-feature traffic vectors."""

from .base import TrainReport, nearest_code_labels
from .mlp import MlpModel, MlpTrainConfig, mlp_forward, mlp_init, mlp_jacobian
from .rbf import RbfModel, kmeans, rbf_forward, rbf_train, rbf_width
from .som import (SomModel, SomTrainConfig, quantization_error, som_classify, som_init,
                  som_label, som_train, som_train_folds)
from .store import load_model, save_model

__all__ = [
    "TrainReport", "nearest_code_labels",
    "MlpModel", "MlpTrainConfig", "mlp_init", "mlp_forward", "mlp_jacobian",
    "RbfModel", "kmeans", "rbf_width", "rbf_train", "rbf_forward",
    "SomModel", "SomTrainConfig", "som_init", "som_train", "som_train_folds",
    "som_label", "som_classify", "quantization_error",
    "save_model", "load_model",
]
