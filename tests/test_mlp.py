"""Feed-forward network: forward pass, damped Gauss-Newton training, decision rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsids.classifiers import mlp
from dnsids.classifiers.mlp import (MlpModel, MlpRecipe, get_params, mlp_forward,
                                    mlp_init, train_lm_arrays)
from dnsids.errors import Empty, InvalidConfig, SingularUpdate
from dnsids.preproc import TARGET_CODES, ClassLabel, LabeledDataset
from labels import class_labels, label_codes


def dataset_from_arrays(X, labels):
    X = np.array(X, dtype=float).reshape(-1, 3)
    X[:, 2] = np.trunc(X[:, 2])   # packet loss is a whole count
    return LabeledDataset(X, label_codes(labels))


def mlp_train_lm(model: MlpModel, data: LabeledDataset,
                 cfg: MlpRecipe = MlpRecipe()):
    """`train_lm_arrays` on a dataset's features and target codes."""
    if len(data) == 0:
        raise Empty("cannot train on an empty dataset")
    return train_lm_arrays(model, data.X, data.targets(), cfg)


def zero_model(hidden=7):
    return MlpModel(np.zeros((hidden, 3)), np.zeros(hidden),
                    np.zeros((3, hidden)), np.zeros(3))


class TestInit:
    def test_deterministic_per_seed(self):
        a = mlp_init(MlpRecipe(hidden=7), 42)
        b = mlp_init(MlpRecipe(hidden=7), 42)
        assert np.array_equal(a.hidden_weights, b.hidden_weights)
        assert np.array_equal(a.output_bias, b.output_bias)

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidConfig, match="^hidden must be"):
            MlpRecipe(hidden=0)

    def test_width_only_changes_shapes(self):
        small = mlp_init(MlpRecipe(hidden=3), 5)
        big = mlp_init(MlpRecipe(hidden=21), 5)
        assert small.hidden_weights.shape == (3, 3)
        assert big.hidden_weights.shape == (21, 3)
        assert small.output_weights.shape == (3, 3)
        assert big.output_weights.shape == (3, 21)

    def test_init_range_respected(self):
        m = mlp_init(MlpRecipe(hidden=7, weight_init_range=0.25), 3)
        assert np.abs(get_params(m)).max() <= 0.25


class TestForward:
    def test_all_zero_weights_give_zero_output(self):
        X = [[5.0, -3.0, 2.0], [1.0, 0.0, 7.0]]
        assert np.array_equal(mlp_forward(zero_model(), X), np.zeros((2, 3)))

    def test_single_active_path_is_tanh(self):
        m = zero_model()
        m.hidden_weights[0, 0] = 1.0
        m.output_weights[0, 0] = 1.0
        (out,) = mlp_forward(m, [[1.0, 0.0, 0.0]])
        # independent scalar evaluation of the activation
        assert out[0] == pytest.approx(math.tanh(1.0), abs=1e-12)
        assert out[0] == pytest.approx(0.761594, abs=1e-6)

    def test_input_scaling_absorbed_by_first_layer(self):
        m = mlp_init(MlpRecipe(hidden=7), 9)
        X = np.array([[0.3, -1.2, 2.0], [5.0, 0.0, -0.7]])
        halved = MlpModel(m.hidden_weights / 2.0, m.hidden_bias.copy(),
                          m.output_weights.copy(), m.output_bias.copy())
        assert np.allclose(mlp_forward(m, X), mlp_forward(halved, 2.0 * X))


def filled_jacobian(model, X):
    """d(outputs)/d(params), (3n, 7h+3), as the LM loop fills it: rows
    sample-major, then output component; columns as `get_params`."""
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    J = mlp._jacobian_buffer(len(X), model.hidden_size)
    mlp._fill_jacobian(J, model, X, mlp._hidden(model, X))
    return J.reshape(len(X) * 3, -1)


class TestJacobian:
    def finite_difference(self, model, X, eps=1e-6):
        base = get_params(model)
        rows = []
        for i in range(base.size):
            plus = base.copy()
            plus[i] += eps
            minus = base.copy()
            minus[i] -= eps
            out_p = mlp_forward(mlp._blocks(plus, model.hidden_size), X)
            out_m = mlp_forward(mlp._blocks(minus, model.hidden_size), X)
            rows.append(((out_p - out_m) / (2 * eps)).ravel())
        return np.stack(rows, axis=1)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            model = mlp_init(MlpRecipe(hidden=4), trial + 1)
            X = rng.normal(size=(5, 3))
            J = filled_jacobian(model, X)
            J_fd = self.finite_difference(model, X)
            denom = np.maximum(np.abs(J_fd), 1.0)
            assert np.max(np.abs(J - J_fd) / denom) < 1e-5


def reference_jacobian(model, X):
    """The Jacobian built from broadcasts and one concatenate, as it once was."""
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    n = X.shape[0]
    h = model.hidden_size
    z = X @ model.hidden_weights.T + model.hidden_bias
    a = np.tanh(z)
    d = 1.0 - a * a
    g = model.output_weights[None, :, :] * d[:, None, :]
    j_w1 = (g[:, :, :, None] * X[:, None, None, :]).reshape(n * 3, h * 3)
    j_b1 = g.reshape(n * 3, h)
    eye = np.eye(3)
    j_w2 = (eye[None, :, :, None] * a[:, None, None, :]).reshape(n * 3, 3 * h)
    j_b2 = np.tile(eye, (n, 1))
    return np.concatenate([j_w1, j_b1, j_w2, j_b2], axis=1)


def reference_train_lm(model, X, T, cfg):
    """The LM loop that rebuilt the Jacobian and reran the forward pass each epoch.

    Returns (params, mse_history, epochs_run, converged).
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    T = np.asarray(T, dtype=float).reshape(-1, 3)
    params = get_params(model)
    current = mlp._blocks(params, model.hidden_size)
    mse = float(np.mean((mlp_forward(current, X) - T) ** 2))
    history = [mse]
    lam = cfg.lm_lambda_init
    epochs_run = 0
    if mse <= cfg.target_mse:
        return params, tuple(history), 0, True
    identity = np.eye(params.size)
    stalled = False
    for _ in range(cfg.max_epochs):
        J = reference_jacobian(current, X)
        residual = (T - mlp_forward(current, X)).ravel()
        jt_j = J.T @ J
        jt_e = J.T @ residual
        while True:
            try:
                delta = np.linalg.solve(jt_j + lam * identity, jt_e)
            except np.linalg.LinAlgError:
                lam *= cfg.lm_lambda_up
                if lam > cfg.lm_lambda_max:
                    raise SingularUpdate("reference: unsolvable") from None
                continue
            trial = mlp._blocks(params + delta, model.hidden_size)
            trial_mse = float(np.mean((mlp_forward(trial, X) - T) ** 2))
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
    return params, tuple(history), epochs_run, mse <= cfg.target_mse


def standardized_problem(seed, n):
    """Three noisy, overlapping classes, standardized as `MlpRecipe` does."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, n)
    X = rng.normal(size=(n, 3)) + labels[:, None] * np.array([1.0, -0.5, 0.3])
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    codes = [TARGET_CODES[c] for c in (ClassLabel.NORMAL, ClassLabel.DIRECT_DOS,
                                       ClassLabel.AMPLIFICATION)]
    return X, np.array([codes[c] for c in labels], dtype=float)


class CountingSolve:
    """Stand-in for `np.linalg.solve` that counts calls and can fail the first few."""

    def __init__(self, fail_first=0):
        self.solve = np.linalg.solve
        self.calls = 0
        self.fail_first = fail_first

    def __call__(self, a, b):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise np.linalg.LinAlgError("singular")
        return self.solve(a, b)


class TestAgainstReference:
    """The in-place Jacobian and trainer reproduce the broadcast build bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(hidden=st.integers(1, 64), n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
           init_range=st.sampled_from([0.5, 3.0]))
    def test_jacobian_equals_broadcast_build(self, hidden, n, seed, init_range):
        rng = np.random.default_rng(seed)
        magnitude = 10.0 ** rng.uniform(-3, 6, size=(n, 3))
        X = magnitude * rng.choice([-1.0, 1.0], size=(n, 3))
        model = mlp_init(MlpRecipe(hidden=hidden, weight_init_range=init_range), seed)
        J = filled_jacobian(model, X)
        assert J.shape == (3 * n, 7 * hidden + 3)
        assert np.array_equal(J, reference_jacobian(model, X))

    def test_jacobian_equals_broadcast_build_on_unsaturated_units(self):
        rng = np.random.default_rng(3)
        for hidden in (1, 2, 7, 21, 64):
            model = mlp_init(MlpRecipe(hidden=hidden), hidden)
            X = rng.normal(scale=0.5, size=(40, 3))
            assert np.array_equal(filled_jacobian(model, X), reference_jacobian(model, X))

    def assert_same_fit(self, model, X, T, cfg):
        params, history, epochs, converged = reference_train_lm(model, X, T, cfg)
        trained, report = train_lm_arrays(model, X, T, cfg)
        assert np.array_equal(get_params(trained), params)
        assert report.mse_history == history
        assert report.epochs_run == epochs
        assert report.converged == converged
        assert report.final_mse == history[-1]
        return report

    @pytest.mark.parametrize("hidden,seed", [(1, 0), (3, 1), (7, 2), (21, 3)])
    def test_trainer_equals_reference_with_rejected_steps(self, monkeypatch, hidden, seed):
        X, T = standardized_problem(seed, 90)
        cfg = MlpRecipe(max_epochs=40, target_mse=1e-12)
        counter = CountingSolve()
        monkeypatch.setattr(np.linalg, "solve", counter)
        report = self.assert_same_fit(mlp_init(MlpRecipe(hidden=hidden), seed), X, T, cfg)
        calls_per_fit = counter.calls / 2
        assert calls_per_fit > report.epochs_run        # some trial steps were rejected

    def test_trainer_equals_reference_when_damping_stalls(self):
        X, T = standardized_problem(5, 60)
        cfg = MlpRecipe(max_epochs=500, target_mse=1e-12, lm_lambda_max=1.0)
        report = self.assert_same_fit(mlp_init(MlpRecipe(hidden=5), 4), X, T, cfg)
        assert not report.converged
        assert report.epochs_run < cfg.max_epochs       # stopped by lambda_max

    def test_trainer_equals_reference_when_target_met(self):
        X, T = standardized_problem(6, 30)
        cfg = MlpRecipe(max_epochs=200, target_mse=5e-2)
        report = self.assert_same_fit(mlp_init(MlpRecipe(hidden=9), 6), X, T, cfg)
        assert report.converged

    def test_trainer_equals_reference_after_failed_solves(self, monkeypatch):
        X, T = standardized_problem(7, 50)
        cfg = MlpRecipe(max_epochs=15, target_mse=1e-12)
        model = mlp_init(MlpRecipe(hidden=4), 7)
        monkeypatch.setattr(np.linalg, "solve", CountingSolve(fail_first=2))
        expected = reference_train_lm(model, X, T, cfg)
        monkeypatch.setattr(np.linalg, "solve", CountingSolve(fail_first=2))
        trained, report = train_lm_arrays(model, X, T, cfg)
        assert np.array_equal(get_params(trained), expected[0])
        assert report.mse_history == expected[1]

    def test_unsolvable_at_maximum_damping_raises(self, monkeypatch):
        X, T = standardized_problem(8, 20)
        monkeypatch.setattr(np.linalg, "solve", CountingSolve(fail_first=10**6))
        with pytest.raises(SingularUpdate):
            train_lm_arrays(mlp_init(MlpRecipe(hidden=3), 8), X, T, MlpRecipe(target_mse=1e-12))


class OverflowingFirstStep(CountingSolve):
    """`np.linalg.solve` whose first step is far too long: the trial's
    squared residuals overflow."""

    def __call__(self, a, b):
        step = super().__call__(a, b)
        return np.full_like(step, 1e200) if self.calls == 1 else step


class TestTraining:
    def test_overflowing_trial_step_is_rejected_under_raising_traps(self, monkeypatch):
        # Training runs with numpy's traps raising, and a step whose MSE
        # overflows must still only raise the damping.
        X, T = standardized_problem(3, 40)
        cfg = MlpRecipe(max_epochs=5)
        want_model, want = train_lm_arrays(mlp_init(MlpRecipe(hidden=4), 1), X, T, cfg)
        solve = OverflowingFirstStep()
        monkeypatch.setattr(np.linalg, "solve", solve)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            model, report = train_lm_arrays(mlp_init(MlpRecipe(hidden=4), 1), X, T, cfg)
        assert solve.calls > want.epochs_run
        assert np.isfinite(report.final_mse) and report.epochs_run == want.epochs_run
        assert list(report.mse_history) == sorted(report.mse_history, reverse=True)
        assert report.final_mse <= report.mse_history[0]

    def test_fixed_point_converges_at_epoch_zero(self):
        X = np.array([[1.0, 2.0, 3.0], [0.5, 0.1, 0.0]])
        data = dataset_from_arrays(X, [ClassLabel.NORMAL, ClassLabel.NORMAL])
        model, report = mlp_train_lm(zero_model(), data)
        assert report.converged
        assert report.epochs_run == 0
        assert report.final_mse == 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(Empty):
            mlp_train_lm(zero_model(), LabeledDataset((), ()))

    @pytest.mark.parametrize("key", ["lm_lambda_init", "lm_lambda_max"])
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_bad_initial_damping_rejected(self, key, lam):
        # With lm_lambda_init = 0 a rejected step never raises the damping,
        # and with lm_lambda_max = inf or nan it never exceeds the cap, so
        # the trainer would loop forever instead of stalling.
        X, T = self.xor_data()
        with pytest.raises(ValueError, match=key):
            train_lm_arrays(mlp_init(MlpRecipe(hidden=2), 0), X, T, MlpRecipe(**{key: lam}))

    @pytest.mark.parametrize("knob", [{"lm_lambda_down": 1e-200},
                                      {"lm_lambda_init": 5e-324}])
    def test_damping_underflowed_to_zero_ends_the_fit(self, monkeypatch, knob):
        # On this problem an accepted step takes the damping below the
        # smallest float: after two steps at down = 1e-200, after one from
        # init = 5e-324. Growing 0 by lm_lambda_up leaves 0, so the next
        # rejected step must end the fit instead of retrying forever. A
        # damping above 0 passes the cap within 334 growths of 10 from
        # 5e-324, so a fit that ends makes at most 335 solves per epoch.
        X, T = standardized_problem(0, 60)
        cfg = MlpRecipe(max_epochs=20, target_mse=1e-12, **knob)
        bound = cfg.max_epochs * 335

        class BoundedSolve(CountingSolve):
            def __call__(self, a, b):
                if self.calls >= bound:
                    raise RuntimeError(f"more than {bound} solves: the fit runs on")
                return super().__call__(a, b)

        solve = BoundedSolve()
        monkeypatch.setattr(np.linalg, "solve", solve)
        try:
            _, report = train_lm_arrays(mlp_init(MlpRecipe(hidden=2), 0), X, T, cfg)
        except SingularUpdate:
            return
        assert not report.converged
        assert report.epochs_run < cfg.max_epochs       # stopped by the damping
        history = report.mse_history
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_accepted_mse_history_non_increasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        labels = [ClassLabel.DIRECT_DOS if x[0] > 0 else ClassLabel.NORMAL for x in X]
        data = dataset_from_arrays(np.abs(X), labels)
        _, report = mlp_train_lm(mlp_init(MlpRecipe(hidden=5), 2), data,
                                 MlpRecipe(max_epochs=60, target_mse=1e-12))
        history = report.mse_history
        assert all(a >= b for a, b in zip(history, history[1:]))

    def xor_data(self):
        X = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]], dtype=float)
        T = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        return X, T

    def test_xor_baseline_learnable_by_finite_difference_descent(self):
        # Slow but independent check that the task itself is solvable:
        # plain gradient descent with finite-difference gradients.
        X, T = self.xor_data()
        model = mlp_init(MlpRecipe(hidden=7), 1)
        params = get_params(model)

        def mse_at(p):
            m = mlp._blocks(p, model.hidden_size)
            return float(np.mean((mlp_forward(m, X) - T) ** 2))

        eps = 1e-5
        for _ in range(400):
            grad = np.zeros_like(params)
            for i in range(params.size):
                up = params.copy()
                up[i] += eps
                down = params.copy()
                down[i] -= eps
                grad[i] = (mse_at(up) - mse_at(down)) / (2 * eps)
            params -= 0.5 * grad
        assert mse_at(params) < 0.05

    def test_xor_conquered_quickly(self):
        X, T = self.xor_data()
        model = mlp_init(MlpRecipe(hidden=7), 1)
        trained, report = train_lm_arrays(model, X, T,
                                          MlpRecipe(max_epochs=200, target_mse=1e-3))
        assert report.final_mse <= 1e-3
        assert report.epochs_run <= 200

    def test_separable_blobs_classified_perfectly(self):
        rng = np.random.default_rng(7)
        centers = {ClassLabel.NORMAL: (5, 5, 0), ClassLabel.DIRECT_DOS: (40, 5, 5),
                   ClassLabel.AMPLIFICATION: (5, 40, 5)}
        X, labels = [], []
        for lbl, c in centers.items():
            pts = rng.normal(scale=0.5, size=(34, 3)) + np.array(c, dtype=float)
            X.extend(np.abs(pts))
            labels.extend([lbl] * 34)
        # brute-force margin check: blob spread is far below separation
        X = np.array(X)
        spreads = [np.linalg.norm(X[i * 34:(i + 1) * 34] - np.array(c), axis=1).max()
                   for i, c in enumerate(centers.values())]
        gaps = [np.linalg.norm(np.array(a) - np.array(b))
                for a in centers.values() for b in centers.values() if a != b]
        assert max(spreads) * 2 < min(gaps)

        data = dataset_from_arrays(X, labels)
        recipe = MlpRecipe(hidden=7)
        ((model, report),) = recipe.train_folds([data], [3])
        preds = recipe.score(model, data.X)[0]
        assert class_labels(preds) == labels


class TestClassify:
    def predict_one(self, model, x):
        (label,) = class_labels(MlpRecipe().score(model, [x])[0])
        return label

    def test_nearest_code_examples(self):
        m = zero_model()
        m.output_bias = np.array([0.1, 0.2, 0.9])
        assert self.predict_one(m, [0, 0, 0]) is ClassLabel.DIRECT_DOS
        m.output_bias = np.array([0.0, 0.0, 0.0])
        assert self.predict_one(m, [0, 0, 0]) is ClassLabel.NORMAL
        m.output_bias = np.array([0.5, 0.5, 0.5])
        assert self.predict_one(m, [0, 0, 0]) is ClassLabel.NORMAL  # tie rule

    def test_amplification_code_nearest(self):
        m = zero_model()
        m.output_bias = np.array([0.1, 0.8, 0.2])
        assert self.predict_one(m, [1, 1, 1]) is ClassLabel.AMPLIFICATION

    def test_any_finite_input_gets_a_label(self):
        m = mlp_init(MlpRecipe(hidden=7), 2)
        rng = np.random.default_rng(0)
        X = np.array([rng.normal(scale=10.0 ** rng.integers(-3, 7), size=3)
                      for _ in range(50)])
        labels = class_labels(MlpRecipe().score(m, X)[0])
        assert len(labels) == 50
        assert set(labels) <= set(ClassLabel)


class TestRecipeStandardization:
    def test_returned_model_consumes_raw_features(self):
        # Wildly different column scales, as produced by the pipeline.
        rng = np.random.default_rng(11)
        X, labels = [], []
        for lbl, c in ((ClassLabel.NORMAL, (48, 60, 0)),
                       (ClassLabel.DIRECT_DOS, (100000, 510, 90)),
                       (ClassLabel.AMPLIFICATION, (99000, 3900, 10))):
            pts = np.array(c, dtype=float) + rng.normal(scale=(1.0, 1.0, 0.5),
                                                        size=(30, 3))
            X.extend(np.abs(pts))
            labels.extend([lbl] * 30)
        data = dataset_from_arrays(np.array(X), labels)
        recipe = MlpRecipe()
        ((model, report),) = recipe.train_folds([data], [1])
        assert report.converged
        preds = recipe.score(model, data.X)[0]
        assert class_labels(preds) == labels
