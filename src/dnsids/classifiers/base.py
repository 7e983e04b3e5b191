"""Shared classifier pieces: training reports, the nearest-point kernel and
the output decision rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def sq_distances(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from the rows of the (n, 3) `X` to the
    (m, 3) `points`, summed in component order."""
    diff = X[:, None, :] - points[None, :, :]
    return (diff * diff).sum(axis=2)


def nearest(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the point nearest each row of `X`; ties go to the lowest index."""
    return sq_distances(X, points).argmin(axis=1)


def nearest_code_labels(outputs) -> np.ndarray:
    """Label code of the class whose target code is nearest each output row.

    Ties break Normal, then Amplification, then DirectDoS.
    """
    out = np.asarray(outputs, dtype=float).reshape(-1, 3)
    return _DECISION_LABEL_CODES[nearest(out, _CODES)]
