"""Batch prediction against the per-sample decision rules it replaced.

The references below are the single-sample forward passes, nearest-code
rule and map classification that once ran inside cross-validation, one
held-out window at a time. The batch paths must give the same label for
every row, ties included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dnsids.classifiers.base import nearest_code_labels, sq_distances
from dnsids.classifiers.mlp import MlpModel, mlp_init
from dnsids.classifiers.rbf import RbfModel
from dnsids.classifiers.recipes import MlpRecipe, RbfRecipe, SomRecipe
from dnsids.classifiers.som import N_NEURONS, SomModel, som_classify
from dnsids.preproc import CLASS_ORDER, TARGET_CODES, ClassLabel, class_labels, label_codes

N, D, A = ClassLabel.NORMAL, ClassLabel.DIRECT_DOS, ClassLabel.AMPLIFICATION


def reference_nearest_code_label(output):
    """Strict-< scan over Normal, Amplification, DirectDoS: the first code wins ties."""
    out = np.asarray(output, dtype=float)
    best_label = N
    best_d2 = float("inf")
    for label in (N, A, D):
        d2 = float(np.sum((out - np.array(TARGET_CODES[label])) ** 2))
        if d2 < best_d2:
            best_d2 = d2
            best_label = label
    return best_label


def reference_mlp_forward(model, x):
    hidden = np.tanh(model.hidden_weights @ x + model.hidden_bias)
    return model.output_weights @ hidden + model.output_bias


def reference_rbf_forward(model, x):
    d2 = ((x - model.centers) ** 2).sum(axis=1)
    phi = np.exp(-d2 / (2.0 * model.width * model.width))
    return model.output_weights @ phi + model.output_bias


def reference_som_classify(model, x):
    """Unit-normalize one row (an all-zero row as-is), then scan for the nearest neuron."""
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(float((x * x).sum()))
    if norm != 0.0:
        x = x / norm
    best, best_d2 = 0, float("inf")
    for i, code in enumerate(model.codebook):
        diff = x - code
        d2 = diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]
        if d2 < best_d2:
            best, best_d2 = i, d2
    return CLASS_ORDER[model.neuron_labels[best]]


def wide_inputs(rng, n):
    """Rows of signed components with magnitudes spread over 1e-3..1e7."""
    return rng.choice([-1.0, 1.0], size=(n, 3)) * 10.0 ** rng.uniform(-3, 7, size=(n, 3))


# Output components at and around the code coordinates 0 and 1, where
# distances to two or three codes can be exactly equal.
_SPECIAL = (0.0, 0.25, 0.5, 0.75, 1.0, -0.5, 1.5)
_component = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e3, 1e3))
_output_rows = st.one_of(
    st.tuples(_component, _component, _component),
    # equal last components: equidistant from the two attack codes
    st.tuples(_component, _component).map(lambda t: (t[0], t[1], t[1])),
)


def test_squared_distances_sum_in_component_order():
    # Near-ties between neurons or codes resolve by the rounding of this sum.
    rng = np.random.default_rng(12)
    for _ in range(50):
        X, points = wide_inputs(rng, 20), wide_inputs(rng, 7)
        diff = X[:, None, :] - points[None, :, :]
        sq = diff * diff
        assert np.array_equal(sq_distances(X, points), sq[..., 0] + sq[..., 1] + sq[..., 2])


def reference_sq_distances(X, points):
    """The (n, m, 3) broadcast build that the component-major kernel replaced."""
    diff = X[:, None, :] - points[None, :, :]
    return (diff * diff).sum(axis=2)


# Components whose squares cannot overflow, ties and signed zeros included.
_coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                         st.floats(-1e150, 1e150, allow_subnormal=True))


@settings(max_examples=200, deadline=None)
@given(X=st.integers(0, 30).flatmap(
           lambda n: hnp.arrays(np.float64, (n, 3), elements=_coordinates)),
       points=st.integers(1, 12).flatmap(
           lambda m: hnp.arrays(np.float64, (m, 3), elements=_coordinates)))
def test_component_major_distances_equal_the_broadcast_build(X, points):
    assert np.array_equal(sq_distances(X, points), reference_sq_distances(X, points))


class TestNearestCodeLabels:
    @pytest.mark.parametrize("output, label", [
        ([0.5, 0.5, 0.5], N),     # equidistant from all three codes
        ([0.0, 0.5, 0.5], N),     # likewise
        ([9.0, 0.5, 0.5], N),     # the first component never decides
        ([0.0, 0.5, 0.0], N),     # Normal vs Amplification
        ([0.0, 0.0, 0.5], N),     # Normal vs DirectDoS
        ([0.0, 0.75, 0.75], A),   # Amplification vs DirectDoS
        ([0.1, 0.2, 0.9], D),
        ([0.1, 0.8, 0.2], A),
    ])
    def test_ties_follow_the_decision_order(self, output, label):
        assert reference_nearest_code_label(output) is label
        assert class_labels(nearest_code_labels([output])) == [label]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_output_rows, min_size=1, max_size=30))
    def test_matches_per_sample_rule(self, rows):
        assert class_labels(nearest_code_labels(np.array(rows))) == [
            reference_nearest_code_label(row) for row in rows]

    def test_empty_batch(self):
        assert class_labels(nearest_code_labels(np.zeros((0, 3)))) == []


class TestRecipePredict:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 21),
           init_range=st.floats(0.05, 3.0), n=st.integers(1, 40))
    def test_mlp_matches_per_sample_classify(self, seed, hidden, init_range, n):
        model = mlp_init(hidden, seed, init_range)
        X = wide_inputs(np.random.default_rng(seed), n)
        expected = [reference_nearest_code_label(reference_mlp_forward(model, x))
                    for x in X]
        assert class_labels(MlpRecipe().score(model, X)[0]) == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 12),
           log_width=st.floats(-2.0, 6.0), n=st.integers(1, 40))
    def test_rbf_matches_per_sample_classify(self, seed, k, log_width, n):
        rng = np.random.default_rng(seed)
        model = RbfModel(centers=wide_inputs(rng, k), width=10.0 ** log_width,
                         output_weights=rng.normal(size=(3, k)),
                         output_bias=rng.uniform(-0.5, 1.5, size=3))
        X = np.concatenate([wide_inputs(rng, n), model.centers])
        expected = [reference_nearest_code_label(reference_rbf_forward(model, x))
                    for x in X]
        assert class_labels(RbfRecipe().score(model, X)[0]) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_output_rows, min_size=1, max_size=10))
    def test_tied_outputs_through_both_recipes(self, rows):
        # Zero weights make the output the bias exactly; far inputs make
        # the Gaussian units vanish.
        for row in rows:
            bias = np.array(row)
            mlp = MlpModel(np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)), bias)
            rbf = RbfModel(centers=np.zeros((2, 3)), width=1.0,
                           output_weights=np.zeros((3, 2)), output_bias=bias)
            label = reference_nearest_code_label(row)
            X = [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]
            assert class_labels(MlpRecipe().score(mlp, X)[0]) == [label] * 2
            assert class_labels(RbfRecipe().score(rbf, [[100.0, 100.0, 100.0]])[0]) == [label]


# Unit vectors whose rows, and inputs built from them, give exact
# best-matching-unit ties: duplicates in the codebook, and inputs with
# equal components that sit midway between two axis-aligned neurons.
_S = 1.0 / math.sqrt(2.0)
_T = 1.0 / math.sqrt(3.0)
_POOL = np.array([
    [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
    [_S, _S, 0.0], [_S, 0.0, _S], [0.0, _S, _S], [_T, _T, _T],
])
_ROW_SHAPES = np.array([
    [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0],
    [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
])


class TestSomPredict:
    @settings(max_examples=100, deadline=None)
    @given(codes=st.lists(st.integers(0, len(_POOL) - 1), min_size=N_NEURONS,
                          max_size=N_NEURONS),
           labels=st.lists(st.sampled_from([N, D, A]), min_size=N_NEURONS,
                           max_size=N_NEURONS),
           shapes=st.lists(st.integers(0, len(_ROW_SHAPES) - 1), min_size=1, max_size=20),
           scales=st.lists(st.floats(1e-3, 1e7), min_size=1, max_size=20),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_sample_classify(self, codes, labels, shapes, scales, seed):
        model = SomModel(codebook=_POOL[codes], neuron_labels=label_codes(labels))
        rng = np.random.default_rng(seed)
        X = np.concatenate([
            _ROW_SHAPES[shapes] * np.resize(scales, (len(shapes), 1)),
            _POOL[codes[:5]] * scales[0],
            np.zeros((1, 3)),
            wide_inputs(rng, 10),
        ])
        expected = [reference_som_classify(model, x) for x in X]
        assert class_labels(som_classify(model, X)) == expected
        labels, outputs = SomRecipe().score(model, X)
        assert class_labels(labels) == expected
        assert outputs is None

    def test_duplicate_neurons_go_to_the_lowest_index(self):
        codebook = np.tile(_POOL[:1], (N_NEURONS, 1))
        labels = label_codes((D,) + (A,) * (N_NEURONS - 1))
        model = SomModel(codebook=codebook, neuron_labels=labels)
        assert class_labels(som_classify(model, [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])) == [D, D]

    def test_midway_input_goes_to_the_lower_neuron(self):
        codebook = np.tile(_POOL[[1, 0]], (13, 1))[:N_NEURONS]
        labels = label_codes((A, D) * 12 + (A,))
        model = SomModel(codebook=codebook, neuron_labels=labels)
        # (1, 1, 0) is equidistant from both axes; neuron 0 holds the y axis.
        assert reference_som_classify(model, [3.0, 3.0, 0.0]) is A
        assert class_labels(som_classify(model, [[3.0, 3.0, 0.0]])) == [A]
