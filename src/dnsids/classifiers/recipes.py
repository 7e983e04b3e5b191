"""Uniform train/predict adapters so evaluation stays classifier-agnostic.

A recipe bundles hyperparameters and knows how to train a fresh model on
a dataset with a given seed (`train`) and how to label a batch of raw
feature rows (`predict`, which returns an int8 array of label codes).
The feed-forward and radial-basis recipes also return their raw output
codes for a batch (`predict_codes`), and their labels are the classes
whose target codes are nearest those outputs. The map-based
classifier normalizes its inputs instead, and trains every
cross-validation fold in one call (`train_folds`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import Empty
from ..preproc import LabeledDataset, l2_normalize_rows
from .base import TrainReport, nearest_code_labels
from .mlp import MlpModel, MlpTrainConfig, mlp_forward, mlp_init, train_lm_arrays
from .rbf import RbfModel, rbf_forward, rbf_train
from .som import (SomModel, SomTrainConfig, quantization_error, som_classify,
                  som_init, som_label, som_train_folds)


@dataclass(frozen=True)
class MlpRecipe:
    hidden: int = 7
    train_config: MlpTrainConfig = field(default_factory=MlpTrainConfig)
    name: str = "bp"

    def train(self, data: LabeledDataset, seed: int) -> tuple[MlpModel, TrainReport]:
        if len(data) == 0:
            raise Empty("cannot train on an empty dataset")
        cfg = replace(self.train_config, seed=seed)
        model = mlp_init(self.hidden, seed, cfg.weight_init_range)
        # Damped Gauss-Newton is brittle when the feature columns span
        # five orders of magnitude, so train in per-fold standardized
        # coordinates and fold the affine map back into the first layer;
        # the returned model consumes raw features.
        X = data.X
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        trained, report = train_lm_arrays(model, (X - mu) / sd, data.targets(), cfg)
        w1 = trained.hidden_weights / sd
        b1 = trained.hidden_bias - trained.hidden_weights @ (mu / sd)
        raw_model = MlpModel(w1, b1, trained.output_weights.copy(),
                             trained.output_bias.copy())
        return raw_model, report

    def predict_codes(self, model: MlpModel, X) -> np.ndarray:
        return mlp_forward(model, X)

    def predict(self, model: MlpModel, X) -> np.ndarray:
        return nearest_code_labels(self.predict_codes(model, X))


@dataclass(frozen=True)
class RbfRecipe:
    centers: int = 10
    name: str = "rbf"

    def train(self, data: LabeledDataset, seed: int) -> tuple[RbfModel, TrainReport]:
        return rbf_train(data, self.centers, seed)

    def predict_codes(self, model: RbfModel, X) -> np.ndarray:
        return rbf_forward(model, X)

    def predict(self, model: RbfModel, X) -> np.ndarray:
        return nearest_code_labels(self.predict_codes(model, X))


@dataclass(frozen=True)
class SomRecipe:
    train_config: SomTrainConfig = field(default_factory=SomTrainConfig)
    name: str = "som"

    def train(self, data: LabeledDataset, seed: int) -> tuple[SomModel, TrainReport]:
        return self.train_folds([data], [seed])[0]

    def train_folds(self, train_sets, seeds) -> list[tuple[SomModel, TrainReport]]:
        """Train one map per (dataset, seed) pair in a single lockstep run.

        Each report's wall time is an even share of the whole run, so the
        shares add up to its total.
        """
        start = time.perf_counter()
        Xs = [l2_normalize_rows(data.X) for data in train_sets]
        maps = som_train_folds([som_init(seed) for seed in seeds], Xs,
                               self.train_config, seeds)
        models = [som_label(m, X, data.codes)
                  for m, X, data in zip(maps, Xs, train_sets)]
        qerrs = [quantization_error(m, X) for m, X in zip(models, Xs)]
        wall = (time.perf_counter() - start) / len(models)
        # No MSE target exists for the map; completing the schedule counts.
        return [(m, TrainReport(qe, self.train_config.epochs, wall, True, ()))
                for m, qe in zip(models, qerrs)]

    def predict(self, model: SomModel, X) -> np.ndarray:
        return som_classify(model, X)

