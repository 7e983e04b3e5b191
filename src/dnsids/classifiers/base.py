"""Shared classifier pieces: training reports and the output decision rule."""

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


def nearest_code_labels(outputs) -> np.ndarray:
    """Label code of the class whose target code is nearest each output row.

    Squared distances are summed in component order; ties break Normal,
    then Amplification, then DirectDoS.
    """
    out = np.asarray(outputs, dtype=float).reshape(-1, 3)
    diff = out[:, None, :] - _CODES[None, :, :]
    sq = diff * diff
    d2 = sq[..., 0] + sq[..., 1] + sq[..., 2]
    return _DECISION_LABEL_CODES[d2.argmin(axis=1)]
