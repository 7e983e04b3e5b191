"""Feed-forward 3-h-3 network trained by Levenberg-Marquardt.

Hidden layer uses tan-sigmoid activation, the output layer is linear, and
the decision rule picks the class code nearest the raw output. Training
minimizes the mean squared error between outputs and target codes,
averaged over samples and output components, with the classic damped
Gauss-Newton step: solve (J'J + lambda*I) d = J'e, accept the step only
if the error drops, and scale lambda down on success / up on rejection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidWidth, SingularUpdate, require
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


@dataclass(frozen=True)
class MlpTrainConfig:
    max_epochs: int = 500
    target_mse: float = 1e-5
    lm_lambda_init: float = 1e-3
    lm_lambda_up: float = 10.0
    lm_lambda_down: float = 0.1
    lm_lambda_max: float = 1e10
    weight_init_range: float = 0.5

    def __post_init__(self):
        require(self.max_epochs >= 1, "max_epochs", ">= 1", self.max_epochs)
        require(self.target_mse > 0, "target_mse", "> 0", self.target_mse)
        require(self.lm_lambda_up > 1, "lm_lambda_up", "> 1", self.lm_lambda_up)
        require(0 < self.lm_lambda_down < 1, "lm_lambda_down", "in (0, 1)",
                self.lm_lambda_down)
        # A fit ends once a rejected step would take the damping out of
        # (0, lm_lambda_max]: from a zero start, or under a nan cap, at the
        # first rejection, and under an infinite cap never. An infinite
        # weight range cannot be drawn from.
        for key in ("lm_lambda_init", "lm_lambda_max", "weight_init_range"):
            value = getattr(self, key)
            require(math.isfinite(value) and value > 0, key, "finite and > 0", value)


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


def _hidden(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Hidden activations, (n, h), for the rows of the float (n, 3) input `X`."""
    return np.tanh(X @ model.hidden_weights.T + model.hidden_bias)


def _output(model: MlpModel, hidden: np.ndarray) -> np.ndarray:
    """Raw outputs, (n, 3), from the hidden activations."""
    return hidden @ model.output_weights.T + model.output_bias


def mlp_forward(model: MlpModel, X) -> np.ndarray:
    """Raw outputs, (n, 3), for the rows of the (n, 3) input `X`."""
    X = np.asarray(X, dtype=float)
    return _output(model, _hidden(model, X))


def get_params(model: MlpModel) -> np.ndarray:
    """Flatten parameters in the order [W_hidden, b_hidden, W_out, b_out]."""
    return np.concatenate([model.hidden_weights.ravel(), model.hidden_bias,
                           model.output_weights.ravel(), model.output_bias])


def _blocks(params: np.ndarray, h: int) -> MlpModel:
    """The width-h model whose arrays are views of the flat `params`."""
    return MlpModel(params[:3 * h].reshape(h, 3), params[3 * h:4 * h],
                    params[4 * h:7 * h].reshape(3, h), params[7 * h:])


def _jacobian_buffer(n: int, h: int) -> np.ndarray:
    """Zeroed (n, 3, 7h+3) Jacobian with its constant `b2` ones set.

    Axis 1 is the output component; the last axis follows `get_params`:
    W1 (j-major, 3h), b1 (h), W2 (k-major, 3h), b2 (3), so reshaped to
    (3n, 7h+3) its rows follow `(targets - outputs).ravel()`. The blocks
    that `_fill_jacobian` leaves alone (W2 off its diagonal, b2) never change.
    """
    J = np.zeros((n, 3, 7 * h + 3))
    for k in range(3):
        J[:, k, 7 * h + k] = 1.0
    return J


def _fill_jacobian(J: np.ndarray, model: MlpModel, X: np.ndarray,
                   hidden: np.ndarray) -> None:
    """Write the weight-dependent blocks of `J` in place.

    With a = `hidden`, d = 1 - a^2 (tanh') and g = W2 * d, for output k,
    hidden unit j and input m: dy_k/dW1[j,m] = g[k,j] * x[m],
    dy_k/db1[j] = g[k,j] and dy_k/dW2[k,j] = a[j]. The W1 entries are
    rounded as (W2*d)*x, in that order.
    """
    h = model.hidden_size
    g = model.output_weights[None, :, :] * (1.0 - hidden * hidden)[:, None, :]
    J[:, :, 3 * h:4 * h] = g
    for m in range(3):
        np.multiply(g, X[:, m, None, None], out=J[:, :, m:3 * h:3])
    for k in range(3):
        J[:, k, (4 + k) * h:(5 + k) * h] = hidden


def _mse(outputs: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((outputs - targets) ** 2))


def train_lm_arrays(model: MlpModel, X: np.ndarray, T: np.ndarray,
                    cfg: MlpTrainConfig = MlpTrainConfig()) -> tuple[MlpModel, TrainReport]:
    """Train a copy of `model` on features X (n, 3) and targets T (n, 3).

    One epoch is one accepted damped Gauss-Newton step (rejected trial
    steps only raise lambda). Stops when the MSE target is met, the epoch
    budget runs out, or no step improves before lambda leaves
    (0, lm_lambda_max]. The accepted-step MSE sequence is decreasing by
    construction.
    """
    start = time.perf_counter()
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    T = np.asarray(T, dtype=float).reshape(-1, 3)
    trained, history = _lm_fit(get_params(model), model.hidden_size, X, T, cfg)
    mse = history[-1]
    return trained, TrainReport(mse, len(history) - 1, time.perf_counter() - start,
                                mse <= cfg.target_mse, tuple(history))


def _lm_fit(params: np.ndarray, h: int, X: np.ndarray, T: np.ndarray,
            cfg: MlpTrainConfig) -> tuple[MlpModel, list[float]]:
    """Run the LM loop from the flat `params`. Returns the model over the
    last accepted parameters, as views of them, and the MSE at the start
    and after each accepted step."""
    current = _blocks(params, h)
    hidden = _hidden(current, X)
    outputs = _output(current, hidden)
    history = [_mse(outputs, T)]
    lam = cfg.lm_lambda_init
    identity = np.eye(params.size)
    J3 = _jacobian_buffer(X.shape[0], h)
    J = J3.reshape(-1, params.size)
    while history[-1] > cfg.target_mse and len(history) <= cfg.max_epochs:
        # `current`, `hidden` and `outputs` belong to `params`.
        _fill_jacobian(J3, current, X, hidden)
        jt_j = J.T @ J
        jt_e = J.T @ (T - outputs).ravel()
        while True:
            try:
                trial = params + np.linalg.solve(jt_j + lam * identity, jt_e)
            except np.linalg.LinAlgError:
                trial = None
            else:
                # A step may overshoot far enough to overflow; its nan or
                # inf MSE fails the test below, so its arithmetic must not raise.
                with np.errstate(over="ignore", invalid="ignore"):
                    trial_model = _blocks(trial, h)
                    trial_hidden = _hidden(trial_model, X)
                    trial_outputs = _output(trial_model, trial_hidden)
                    trial_mse = _mse(trial_outputs, T)
                if trial_mse < history[-1]:
                    break
            # A damping that has underflowed to 0 cannot grow, so it ends
            # the fit as one past the cap does.
            lam *= cfg.lm_lambda_up
            if not 0 < lam <= cfg.lm_lambda_max:
                if trial is None:
                    raise SingularUpdate("normal equations unsolvable at every damping tried")
                return current, history
        params, current, hidden, outputs = trial, trial_model, trial_hidden, trial_outputs
        history.append(trial_mse)
        lam *= cfg.lm_lambda_down
    return current, history
