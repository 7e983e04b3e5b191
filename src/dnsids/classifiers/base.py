"""Shared classifier pieces: the train/score protocol, training reports,
the nearest-point kernel and the output decision rule.

Each classifier module defines its recipe: one frozen dataclass whose
fields are all of that classifier's settings, checked when it is built.
Evaluation uses three of its members and no others: `name`, a class
constant naming the classifier in reports and keying its fold seeds;
`train_folds(train_sets, seeds)`, one fresh `(model, TrainReport)` per
(dataset, seed) pair, where an error from pair i carries `fold` i; and
`score(model, X)`, the `(labels, outputs)` of a batch of raw feature
rows: int8 label codes and the raw outputs. The two networks train pair
by pair (`train_each`) and label each row with the class whose target
code is nearest its output; the map trains all pairs in one lockstep
run and scores with no outputs (None in their place).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DnsIdsError
from ..preproc import CLASS_INDEX, TARGET_CODES, ClassLabel

# Class preference on ties: an output equidistant from several codes, or
# a map neuron with tied votes.
_DECISION_ORDER = (ClassLabel.NORMAL, ClassLabel.AMPLIFICATION, ClassLabel.DIRECT_DOS)
_CODES = np.array([TARGET_CODES[label] for label in _DECISION_ORDER])
# Label code of each class in `_DECISION_ORDER`.
_DECISION_LABEL_CODES = np.array([CLASS_INDEX[label] for label in _DECISION_ORDER],
                                 dtype=np.int8)


@dataclass(frozen=True)
class TrainReport:
    final_mse: float
    epochs_run: int
    wall_time: float
    converged: bool
    mse_history: tuple[float, ...] = ()


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


def sq_distances(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from the rows of the (n, 3) `X` to the
    (m, 3) `points`, summed in component order.

    Built one component at a time from (n, m) differences, which adds the
    same squares in the same order as summing an (n, m, 3) difference
    over its last axis, at a fraction of the memory traffic.
    """
    d0, d1, d2 = (x[:, None] - p for x, p in zip(X.T, points.T))
    s = d0 * d0
    s += d1 * d1
    s += d2 * d2
    return s


def nearest(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the point nearest each row of `X`; ties go to the lowest index."""
    return sq_distances(X, points).argmin(axis=1)


def nearest_code_labels(outputs) -> np.ndarray:
    """Label code of the class whose target code is nearest each output row.

    Ties break Normal, then Amplification, then DirectDoS.
    """
    out = np.asarray(outputs, dtype=float).reshape(-1, 3)
    return _DECISION_LABEL_CODES[nearest(out, _CODES)]
