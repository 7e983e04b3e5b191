"""One train/score protocol, so evaluation treats every classifier alike.

Every recipe bundles hyperparameters behind three members: `name`, a
class constant that names the classifier in reports and keys its fold
seeds; `train_folds(train_sets, seeds)`, which trains one fresh model per
(dataset, seed) pair and returns a `(model, TrainReport)` pair for each;
and `score(model, X)`, which scores a batch of raw feature rows as
`(labels, outputs)`: int8 label codes, and the raw output codes. The two
networks train pair by pair (`train_each`) and label each row with the
class whose target code is nearest its output. The map trains all pairs
in one lockstep run, normalizes its inputs instead, and has no outputs:
its `score` returns None in their place. An error that training one pair
raises carries that pair's index as `fold`. A recipe checks its settings
when built, as the training configs do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..errors import DnsIdsError, Empty, require
from ..preproc import LabeledDataset, l2_normalize_rows
from .base import TrainReport, nearest_code_labels
from .mlp import MAX_HIDDEN, MlpModel, MlpTrainConfig, mlp_forward, mlp_init, train_lm_arrays
from .rbf import RbfModel, rbf_forward, rbf_train
from .som import (SomModel, SomTrainConfig, quantization_error, som_classify,
                  som_init, som_label, som_train_folds)


def train_each(train, train_sets, seeds) -> list:
    """`train(data, seed)` on each pair in turn; pair i's error, or the
    floating-point fault numpy raises where its traps are set, leaves
    with `fold` i."""
    results = []
    for fold, (data, seed) in enumerate(zip(train_sets, seeds)):
        try:
            results.append(train(data, seed))
        except (DnsIdsError, FloatingPointError) as exc:
            exc.fold = fold
            raise
    return results


@dataclass(frozen=True)
class MlpRecipe:
    name: ClassVar[str] = "bp"
    hidden: int = 7
    train_config: MlpTrainConfig = field(default_factory=MlpTrainConfig)

    def __post_init__(self):
        require(1 <= self.hidden <= MAX_HIDDEN, "hidden", f"in 1..{MAX_HIDDEN}", self.hidden)

    def train_folds(self, train_sets, seeds) -> list[tuple[MlpModel, TrainReport]]:
        return train_each(self._train, train_sets, seeds)

    def _train(self, data: LabeledDataset, seed: int) -> tuple[MlpModel, TrainReport]:
        if len(data) == 0:
            raise Empty("cannot train on an empty dataset")
        model = mlp_init(self.hidden, seed, self.train_config.weight_init_range)
        # Damped Gauss-Newton is brittle when the feature columns span
        # five orders of magnitude, so train in per-fold standardized
        # coordinates and fold the affine map back into the first layer;
        # the returned model consumes raw features.
        X = data.X
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        trained, report = train_lm_arrays(model, (X - mu) / sd, data.targets(),
                                          self.train_config)
        w1 = trained.hidden_weights / sd
        b1 = trained.hidden_bias - trained.hidden_weights @ (mu / sd)
        raw_model = MlpModel(w1, b1, trained.output_weights.copy(),
                             trained.output_bias.copy())
        return raw_model, report

    def score(self, model: MlpModel, X) -> tuple[np.ndarray, np.ndarray]:
        outputs = mlp_forward(model, X)
        return nearest_code_labels(outputs), outputs


@dataclass(frozen=True)
class RbfRecipe:
    name: ClassVar[str] = "rbf"
    centers: int = 10

    def __post_init__(self):
        require(self.centers >= 2, "centers", ">= 2", self.centers)

    def train_folds(self, train_sets, seeds) -> list[tuple[RbfModel, TrainReport]]:
        return train_each(lambda data, seed: rbf_train(data, self.centers, seed),
                          train_sets, seeds)

    def score(self, model: RbfModel, X) -> tuple[np.ndarray, np.ndarray]:
        outputs = rbf_forward(model, X)
        return nearest_code_labels(outputs), outputs


@dataclass(frozen=True)
class SomRecipe:
    name: ClassVar[str] = "som"
    train_config: SomTrainConfig = field(default_factory=SomTrainConfig)

    def train_folds(self, train_sets, seeds) -> list[tuple[SomModel, TrainReport]]:
        """Train one map per (dataset, seed) pair in a single lockstep run.

        Each report's wall time is an even share of the whole run, so the
        shares add up to its total.
        """
        start = time.perf_counter()
        Xs = [l2_normalize_rows(data.X) for data in train_sets]
        codebooks = som_train_folds([som_init(seed) for seed in seeds], Xs,
                                    self.train_config, seeds)
        models = [som_label(cb, X, data.codes)
                  for cb, X, data in zip(codebooks, Xs, train_sets)]
        qerrs = [quantization_error(cb, X) for cb, X in zip(codebooks, Xs)]
        wall = (time.perf_counter() - start) / len(models)
        # No MSE target exists for the map; completing the schedule counts.
        return [(m, TrainReport(qe, self.train_config.epochs, wall, True, ()))
                for m, qe in zip(models, qerrs)]

    def score(self, model: SomModel, X) -> tuple[np.ndarray, None]:
        return som_classify(model, X), None
