"""Feed-forward 3-h-3 network trained by Levenberg-Marquardt.

Hidden layer uses tan-sigmoid activation, the output layer is linear, and
the decision rule picks the class code nearest the raw output. Training
minimizes the mean squared error between outputs and target codes,
averaged over samples and output components, with the classic damped
Gauss-Newton step: solve (J'J + lambda*I) d = J'e, accept the step only
if the error drops, and scale lambda down on success / up on rejection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import Empty, InvalidWidth, SingularUpdate
from ..preproc import LabeledDataset
from .base import TrainReport

MAX_HIDDEN = 64


@dataclass
class MlpModel:
    hidden_weights: np.ndarray   # (h, 3)
    hidden_bias: np.ndarray      # (h,)
    output_weights: np.ndarray   # (3, h)
    output_bias: np.ndarray      # (3,)

    @property
    def hidden_size(self) -> int:
        return self.hidden_weights.shape[0]

    def copy(self) -> "MlpModel":
        return MlpModel(self.hidden_weights.copy(), self.hidden_bias.copy(),
                        self.output_weights.copy(), self.output_bias.copy())


@dataclass(frozen=True)
class MlpTrainConfig:
    max_epochs: int = 500
    target_mse: float = 1e-5
    lm_lambda_init: float = 1e-3
    lm_lambda_up: float = 10.0
    lm_lambda_down: float = 0.1
    lm_lambda_max: float = 1e10
    weight_init_range: float = 0.5
    seed: int = 0


def mlp_init(hidden: int, seed: int, init_range: float = 0.5) -> MlpModel:
    """Create a network with weights drawn uniformly from +/- init_range."""
    if not 1 <= hidden <= MAX_HIDDEN:
        raise InvalidWidth(f"hidden width must be in 1..{MAX_HIDDEN}, got {hidden}")
    rng = np.random.default_rng(seed)
    return MlpModel(
        hidden_weights=rng.uniform(-init_range, init_range, (hidden, 3)),
        hidden_bias=rng.uniform(-init_range, init_range, hidden),
        output_weights=rng.uniform(-init_range, init_range, (3, hidden)),
        output_bias=rng.uniform(-init_range, init_range, 3),
    )


def mlp_forward(model: MlpModel, X) -> np.ndarray:
    """Raw outputs, (n, 3), for the rows of the (n, 3) input `X`."""
    X = np.asarray(X, dtype=float)
    hidden = np.tanh(X @ model.hidden_weights.T + model.hidden_bias)
    return hidden @ model.output_weights.T + model.output_bias


def get_params(model: MlpModel) -> np.ndarray:
    """Flatten parameters in the order [W_hidden, b_hidden, W_out, b_out]."""
    return np.concatenate([model.hidden_weights.ravel(), model.hidden_bias,
                           model.output_weights.ravel(), model.output_bias])


def set_params(model: MlpModel, params: np.ndarray) -> MlpModel:
    h = model.hidden_size
    w1 = params[:h * 3].reshape(h, 3)
    b1 = params[h * 3:h * 4]
    w2 = params[h * 4:h * 4 + 3 * h].reshape(3, h)
    b2 = params[h * 4 + 3 * h:]
    return MlpModel(w1.copy(), b1.copy(), w2.copy(), b2.copy())


def mlp_jacobian(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """d(outputs)/d(params), shape (n_samples * 3, n_params).

    Row layout matches `(targets - outputs).ravel()`: sample-major, then
    output component. Column layout matches `get_params`.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    n = X.shape[0]
    h = model.hidden_size
    z = X @ model.hidden_weights.T + model.hidden_bias        # (n, h)
    a = np.tanh(z)
    d = 1.0 - a * a                                           # tanh'

    # dy_k/dW1[j,m] = W2[k,j] * d[i,j] * x[i,m]
    g = model.output_weights[None, :, :] * d[:, None, :]      # (n, 3, h)
    j_w1 = (g[:, :, :, None] * X[:, None, None, :]).reshape(n * 3, h * 3)
    j_b1 = g.reshape(n * 3, h)
    eye = np.eye(3)
    j_w2 = (eye[None, :, :, None] * a[:, None, None, :]).reshape(n * 3, 3 * h)
    j_b2 = np.tile(eye, (n, 1))
    return np.concatenate([j_w1, j_b1, j_w2, j_b2], axis=1)


def _mse(outputs: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((outputs - targets) ** 2))


def mlp_train_lm(model: MlpModel, data: LabeledDataset,
                 cfg: MlpTrainConfig = MlpTrainConfig()) -> tuple[MlpModel, TrainReport]:
    """Train a copy of `model` on the dataset's target codes.

    One epoch is one accepted damped Gauss-Newton step (rejected trial
    steps only raise lambda). Stops when the MSE target is met, the epoch
    budget runs out, or no step improves even at maximum damping. The
    accepted-step MSE sequence is non-increasing by construction.
    """
    if len(data) == 0:
        raise Empty("cannot train on an empty dataset")
    return train_lm_arrays(model, data.features(), data.targets(), cfg)


def train_lm_arrays(model: MlpModel, X: np.ndarray, T: np.ndarray,
                    cfg: MlpTrainConfig = MlpTrainConfig()) -> tuple[MlpModel, TrainReport]:
    """Array-level core of `mlp_train_lm`; X is (n, 3), T is (n, 3)."""
    if cfg.max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    if cfg.target_mse <= 0:
        raise ValueError("target_mse must be > 0")
    if cfg.lm_lambda_up <= 1 or not 0 < cfg.lm_lambda_down < 1:
        raise ValueError("damping factors must satisfy up > 1 and 0 < down < 1")

    start = time.perf_counter()
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    T = np.asarray(T, dtype=float).reshape(-1, 3)
    current = model.copy()
    params = get_params(current)
    mse = _mse(mlp_forward(current, X), T)
    history = [mse]
    lam = cfg.lm_lambda_init
    epochs_run = 0

    if mse <= cfg.target_mse:
        return current, TrainReport(mse, 0, time.perf_counter() - start, True,
                                    tuple(history))

    n_params = params.size
    identity = np.eye(n_params)
    stalled = False
    for _ in range(cfg.max_epochs):
        J = mlp_jacobian(current, X)
        residual = (T - mlp_forward(current, X)).ravel()
        jt_j = J.T @ J
        jt_e = J.T @ residual
        while True:
            try:
                delta = np.linalg.solve(jt_j + lam * identity, jt_e)
            except np.linalg.LinAlgError:
                lam *= cfg.lm_lambda_up
                if lam > cfg.lm_lambda_max:
                    raise SingularUpdate(
                        "normal equations unsolvable at maximum damping") from None
                continue
            trial = set_params(current, params + delta)
            trial_mse = _mse(mlp_forward(trial, X), T)
            if np.isfinite(trial_mse) and trial_mse < mse:
                current = trial
                params = params + delta
                mse = trial_mse
                lam *= cfg.lm_lambda_down
                break
            lam *= cfg.lm_lambda_up
            if lam > cfg.lm_lambda_max:
                stalled = True
                break
        if stalled:
            break
        epochs_run += 1
        history.append(mse)
        if mse <= cfg.target_mse:
            break

    wall = time.perf_counter() - start
    return current, TrainReport(mse, epochs_run, wall, mse <= cfg.target_mse,
                                tuple(history))
