"""Metrics against a brute-force oracle, fold laws, reporting round trips."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsids.classifiers.base import TrainReport
from dnsids.classifiers.mlp import MlpTrainConfig
from dnsids.classifiers.recipes import MlpRecipe, RbfRecipe, SomRecipe, train_each
from dnsids.classifiers.som import SomTrainConfig
from dnsids.errors import (Empty, InvalidWidth, LengthMismatch, NumericFault, TooFewSamples,
                           TrainingError)
from dnsids.evaluation import (ABSENT, EvalEntry, MetricSet, cross_validate, kfold_split,
                               parse_report_csv, pooled_metrics, render_report,
                               render_sweep_csv, stratifies, sweep_hidden_neurons,
                               sweep_workers)
from dnsids.preproc import (CLASS_INDEX, CLASS_ORDER, ClassLabel, LabeledDataset, class_labels,
                            label_codes)

N, D, A = ClassLabel.NORMAL, ClassLabel.DIRECT_DOS, ClassLabel.AMPLIFICATION


def brute_force_counts(preds, truth):
    """Second, naively-written counting pass used as the oracle."""
    tp = tn = fp = fn = 0
    matrix = {(t, p): 0 for t in CLASS_ORDER for p in CLASS_ORDER}
    for t, p in zip(truth, preds):
        matrix[(t, p)] += 1
        if t == N and p == N:
            tn += 1
        if t == N and p != N:
            fp += 1
        if t != N and p == N:
            fn += 1
        if t != N and p != N:
            tp += 1
    return matrix, tp, tn, fp, fn


def oracle_metrics(matrix, tp, tn, fp, fn):
    """The paper's rates, written out from binarized counts and a
    [true class][predicted class] matrix: (TP + TN) / all, FP / (FP + TN),
    each class's recall, and the matrix's trace over all."""
    def percent(num, den):
        return num / den * 100.0 if den else None
    total = tp + tn + fp + fn
    return MetricSet(
        accuracy=percent(tp + tn, total),
        dr_direct=percent(matrix[1][1], sum(matrix[1])),
        dr_amplification=percent(matrix[2][2], sum(matrix[2])),
        far=percent(fp, fp + tn),
        accuracy_3class=percent(matrix[0][0] + matrix[1][1] + matrix[2][2], total),
    )


def labeled_metrics(preds, truth):
    """`pooled_metrics` of two label sequences."""
    return pooled_metrics(label_codes(preds), label_codes(truth))


class TestConfusion:
    def test_perfect_split(self):
        preds = [N] * 10 + [D] * 10
        truth = [N] * 10 + [D] * 10
        assert labeled_metrics(preds, truth) == MetricSet(100.0, 100.0, None, 0.0, 100.0)

    def test_wrong_attack_type_is_binarized_hit_but_class_miss(self):
        ms = labeled_metrics([A], [D])
        assert ms.accuracy == 100.0          # an attack flagged as an attack
        assert ms.accuracy_3class == 0.0     # true direct predicted amplification
        assert ms.dr_amplification is None   # no true amplification rows
        assert ms.dr_direct == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            labeled_metrics([N], [N, D])

    def test_empty(self):
        assert labeled_metrics([], []) == MetricSet(None, None, None, None, None)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(CLASS_ORDER), st.sampled_from(CLASS_ORDER)),
                    min_size=1, max_size=300))
    def test_matches_brute_force_recount(self, pairs):
        truth = [t for t, _ in pairs]
        preds = [p for _, p in pairs]
        counts, tp, tn, fp, fn = brute_force_counts(preds, truth)
        matrix = [[counts[(t, p)] for p in CLASS_ORDER] for t in CLASS_ORDER]
        assert labeled_metrics(preds, truth) == oracle_metrics(matrix, tp, tn, fp, fn)


class TestMetricFormulas:
    def counts(self, tp, tn, fp, fn):
        """`pooled_metrics` of label sequences with these binarized counts,
        every attack a direct one."""
        truth = [D] * tp + [N] * tn + [N] * fp + [D] * fn
        preds = [D] * tp + [N] * tn + [D] * fp + [N] * fn
        return labeled_metrics(preds, truth)

    def test_accuracy_direct_formula(self):
        assert self.counts(50, 45, 3, 2).accuracy == pytest.approx(95.0)

    def test_detection_rate_formula(self):
        assert self.counts(90, 0, 0, 10).dr_direct == pytest.approx(90.0)

    def test_far_formula(self):
        assert self.counts(0, 95, 5, 0).far == pytest.approx(5.0)

    def test_undefined_metrics_absent_not_zero(self):
        ms = labeled_metrics([D, D], [D, D])  # no normals at all
        assert ms.far is None
        assert ms.dr_direct == pytest.approx(100.0)
        assert ms.dr_amplification is None

    def test_no_samples_leaves_every_rate_absent(self):
        ms = self.counts(0, 0, 0, 0)
        assert ms == MetricSet(None, None, None, None, None)

    def test_three_class_accuracy(self):
        ms = labeled_metrics([N, D, A, D], [N, D, A, A])
        assert ms.accuracy_3class == pytest.approx(75.0)
        assert ms.accuracy == pytest.approx(100.0)  # wrong attack still flagged


def dataset_of(rows, labels) -> LabeledDataset:
    return LabeledDataset(rows, label_codes(labels))


def tiny_dataset(n_per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for lbl, center in ((N, (5, 5, 0)), (D, (50, 5, 5)), (A, (5, 50, 5))):
        for _ in range(n_per_class):
            x = np.abs(rng.normal(scale=0.5, size=3) + center)
            rows.append((round(x[0], 6), round(x[1], 6), int(x[2])))
            labels.append(lbl)
    return dataset_of(rows, labels)


class TestKfold:
    def test_hundred_samples_ten_folds(self):
        data = tiny_dataset(n_per_class=40)
        folds = kfold_split(data, 10, seed=1)
        sizes = [len(f) for f in folds]
        assert sizes == [12] * 10
        seen = [i for fold in folds for i in fold]
        assert sorted(seen) == list(range(120))

    def test_exact_stratification(self):
        # 50/30/20 mix in ten folds: every fold gets 5/3/2
        labels = [N] * 50 + [D] * 30 + [A] * 20
        data = dataset_of([(1.0, 1.0, 0)] * 100, labels)
        assert stratifies(data, 10)
        for fold in kfold_split(data, 10, seed=3):
            from collections import Counter
            mix = Counter(labels[i] for i in fold)
            assert (mix[N], mix[D], mix[A]) == (5, 3, 2)

    def test_deterministic(self):
        data = tiny_dataset()
        a, b = kfold_split(data, 6, seed=9), kfold_split(data, 6, seed=9)
        assert [f.tolist() for f in a] == [f.tolist() for f in b]

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            kfold_split(tiny_dataset(n_per_class=1), 10)

    def test_tiny_class_falls_back_unstratified(self):
        data = dataset_of([(1.0, 1.0, 0)] * 30 + [(2.0, 2.0, 0)] * 2, [N] * 30 + [D] * 2)
        assert not stratifies(data, 10)
        assert sorted(i for f in kfold_split(data, 10, seed=0) for i in f) == list(range(32))


def reference_kfold_split(labels, k, seed):
    """The per-sample stratified split the columnar one replaced."""
    n = len(labels)
    if n < k:
        raise TooFewSamples(f"need at least {k} samples, have {n}")
    rng = np.random.default_rng(seed)
    by_class = {lbl: [i for i, l in enumerate(labels) if l is lbl]
                for lbl in CLASS_ORDER if lbl in labels}
    stratified = all(len(idx) * len(CLASS_ORDER) >= k for idx in by_class.values())
    folds = [[] for _ in range(k)]
    cursor = 0
    if stratified:
        for lbl in CLASS_ORDER:
            if lbl not in by_class:
                continue
            indices = np.array(by_class[lbl])
            rng.shuffle(indices)
            for i in indices:
                folds[cursor % k].append(int(i))
                cursor += 1
    else:
        indices = np.arange(n)
        rng.shuffle(indices)
        for i in indices:
            folds[cursor % k].append(int(i))
            cursor += 1
    return [sorted(f) for f in folds], stratified


def reference_confusion(predictions, truth):
    """The per-sample counting loop the bincount replaced."""
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(truth)} truths")
    matrix = [[0, 0, 0] for _ in range(3)]
    tp = tn = fp = fn = 0
    for t, p in zip(truth, predictions):
        matrix[CLASS_INDEX[t]][CLASS_INDEX[p]] += 1
        t_attack = t is not N
        p_attack = p is not N
        if t_attack and p_attack:
            tp += 1
        elif t_attack:
            fn += 1
        elif p_attack:
            fp += 1
        else:
            tn += 1
    return matrix, tp, tn, fp, fn


# Label mixes from one class to all three, with classes as small as one
# sample, so that both the stratified deal and its fallback run.
label_mixes = st.lists(st.sampled_from(CLASS_ORDER), min_size=1, max_size=4).flatmap(
    lambda classes: st.lists(st.sampled_from(classes), min_size=2, max_size=150))


class TestAgainstPerSampleReference:
    @settings(max_examples=300, deadline=None)
    @given(labels=label_mixes, k=st.integers(2, 12), seed=st.integers(0, 2**64 - 1))
    def test_kfold_split_matches(self, labels, k, seed):
        data = dataset_of([(1.0, 2.0, 3)] * len(labels), labels)
        if len(labels) < k:
            with pytest.raises(TooFewSamples):
                kfold_split(data, k, seed)
            return
        folds = kfold_split(data, k, seed)
        expected_folds, expected_stratified = reference_kfold_split(labels, k, seed)
        assert [f.tolist() for f in folds] == expected_folds
        assert stratifies(data, k) == expected_stratified
        assert all(f.dtype == np.intp for f in folds)

    def test_kfold_split_covers_both_branches(self):
        assert stratifies(tiny_dataset(), 10)
        assert not stratifies(dataset_of([(1.0, 1.0, 0)] * 40, [N] * 39 + [A]), 10)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from(CLASS_ORDER),
                                    st.sampled_from(CLASS_ORDER)), max_size=300))
    def test_confusion_matches(self, pairs):
        truth = [t for t, _ in pairs]
        preds = [p for _, p in pairs]
        assert labeled_metrics(preds, truth) == oracle_metrics(*reference_confusion(preds, truth))

    @given(preds=st.lists(st.sampled_from(CLASS_ORDER), max_size=20),
           truth=st.lists(st.sampled_from(CLASS_ORDER), max_size=20))
    def test_confusion_length_mismatch_raised(self, preds, truth):
        if len(preds) == len(truth):
            return
        with pytest.raises(LengthMismatch):
            labeled_metrics(preds, truth)
        with pytest.raises(LengthMismatch):
            reference_confusion(preds, truth)


class ConstantNormal:
    """Degenerate recipe predicting Normal for everything."""
    name = "constant"

    def train_folds(self, train_sets, seeds):
        return [(None, TrainReport(0.0, 0, 0.0, True)) for _ in train_sets]

    def score(self, model, X):
        return label_codes([N] * len(X)), None


class EmptyThirdFold:
    """A recipe whose third training set reaches the wrapped recipe empty."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def train_folds(self, train_sets, seeds):
        sets = list(train_sets)
        sets[2] = sets[2].subset(np.zeros(len(sets[2]), dtype=bool))
        return self.inner.train_folds(sets, seeds)

    def score(self, model, X):
        return self.inner.score(model, X)


class TestCrossValidate:
    def test_constant_normal_predictor(self):
        entry = cross_validate(ConstantNormal(), tiny_dataset(), k=6, seed=0)
        assert entry.metrics.dr_direct == 0.0
        assert entry.metrics.dr_amplification == 0.0
        assert entry.metrics.far == 0.0
        assert entry.metrics.accuracy == pytest.approx(100.0 / 3.0)

    def test_separable_data_perfect(self):
        entry = cross_validate(MlpRecipe(hidden=5), tiny_dataset(), k=6, seed=1)
        assert entry.metrics.accuracy == 100.0
        assert entry.metrics.far == 0.0

    def test_folds_never_leak_into_training(self):
        scored = []

        class Spy(ConstantNormal):
            name = "spy"

            def train_folds(self, train_sets, seeds):
                # Each model is the set of rows it was trained on.
                return [({tuple(x) for x in data.X.tolist()}, TrainReport(0.0, 0, 0.0, True))
                        for data in train_sets]

            def score(self, model, X):
                for x in X.tolist():
                    assert tuple(x) not in model
                scored.append(len(X))
                return label_codes([N] * len(X)), None

        data = tiny_dataset()
        cross_validate(Spy(), data, k=4, seed=5)
        assert len(scored) == 4 and sum(scored) == len(data)

    def test_deterministic_repeat(self):
        a = cross_validate(MlpRecipe(hidden=4), tiny_dataset(), k=4, seed=8)
        b = cross_validate(MlpRecipe(hidden=4), tiny_dataset(), k=4, seed=8)
        assert a.metrics == b.metrics
        assert a.train_mse == b.train_mse
        assert a.test_mse == b.test_mse

    def test_training_failures_name_the_fold(self):
        class Exploding(ConstantNormal):
            name = "boom"

            def train_folds(self, train_sets, seeds):
                folds = iter(range(len(seeds)))

                def train(data, seed):
                    if next(folds) == 2:
                        raise Empty("nothing to see")
                    return None, TrainReport(0.0, 0, 0.0, True)

                return train_each(train, train_sets, seeds)

        with pytest.raises(Empty) as info:
            cross_validate(Exploding(), tiny_dataset(), k=4, seed=0)
        assert str(info.value) == "fold 2: nothing to see"

    # Fold 2 of each real recipe trains on nothing; its error names that
    # fold, and no other, exactly once.
    @pytest.mark.parametrize("recipe", [MlpRecipe(hidden=3), RbfRecipe(centers=2),
                                        SomRecipe(SomTrainConfig(epochs=1))],
                             ids=["per_fold_mlp", "per_fold_rbf", "lockstep_som"])
    def test_a_failing_fold_is_named_once(self, recipe):
        with pytest.raises(TrainingError) as info:
            cross_validate(EmptyThirdFold(recipe), tiny_dataset(), k=4, seed=0)
        message = str(info.value)
        assert message.startswith("fold 2: ")
        assert message.count("fold") == 1

    def test_batched_training_failures_name_the_fold(self):
        # one fold leaves nothing to train on
        with pytest.raises(Empty, match="^fold 0: "):
            cross_validate(SomRecipe(SomTrainConfig(epochs=1)), tiny_dataset(), k=1)

    @staticmethod
    def overflow():
        return np.array([1e300]) * 1e300

    def test_floating_point_faults_in_training_name_classifier_and_fold(self):
        overflow = self.overflow

        class Overflowing(ConstantNormal):
            name = "huge"

            def train_folds(self, train_sets, seeds):
                folds = iter(range(len(seeds)))

                def train(data, seed):
                    if next(folds) == 1:
                        overflow()
                    return None, TrainReport(0.0, 0, 0.0, True)

                return train_each(train, train_sets, seeds)

        with pytest.raises(NumericFault) as info:
            cross_validate(Overflowing(), tiny_dataset(), k=4, seed=0)
        assert str(info.value) == ("fold 1: huge: floating-point fault: "
                                   "overflow encountered in multiply")

    def test_floating_point_faults_in_scoring_name_classifier_and_fold(self):
        overflow = self.overflow
        scored = []

        class Overflowing(ConstantNormal):
            name = "huge"

            def score(self, model, X):
                scored.append(len(X))
                if len(scored) == 3:
                    overflow()
                return super().score(model, X)

        with pytest.raises(NumericFault, match="^fold 2: huge: floating-point fault: "):
            cross_validate(Overflowing(), tiny_dataset(), k=4, seed=0)

    def test_floating_point_faults_outside_a_fold_name_the_classifier(self):
        overflow = self.overflow

        class Lockstep(ConstantNormal):
            name = "huge"

            def train_folds(self, train_sets, seeds):
                overflow()

        with pytest.raises(NumericFault, match="^huge: floating-point fault: overflow"):
            cross_validate(Lockstep(), tiny_dataset(), k=4, seed=0)

    def test_errors_not_tied_to_a_fold_pass_unchanged(self):
        class Misconfigured(ConstantNormal):
            def train_folds(self, train_sets, seeds):
                raise InvalidWidth("hidden width must be in 1..64, got 0")

        with pytest.raises(InvalidWidth, match="^hidden width"):
            cross_validate(Misconfigured(), tiny_dataset(), k=4, seed=0)

    def test_fold_batched_training_matches_per_fold_training(self):
        # k maps trained in lockstep must equal k maps trained one set each.
        recipe = SomRecipe(SomTrainConfig(epochs=3, ordering_steps=40))
        predictions = {}

        class Batched:
            name = recipe.name

            def __init__(self, key):
                self.key = key
                predictions[key] = []

            def train_folds(self, train_sets, seeds):
                return recipe.train_folds(train_sets, seeds)

            def score(self, model, X):
                labels, outputs = recipe.score(model, X)
                predictions[self.key].append((model.codebook.tobytes(),
                                              class_labels(model.neuron_labels),
                                              class_labels(labels)))
                return labels, outputs

        class PerFold(Batched):
            def train_folds(self, train_sets, seeds):
                return [recipe.train_folds([data], [seed])[0]
                        for data, seed in zip(train_sets, seeds)]

        a = cross_validate(PerFold("per_fold"), tiny_dataset(), k=5, seed=3)
        b = cross_validate(Batched("batched"), tiny_dataset(), k=5, seed=3)
        assert len(predictions["per_fold"]) == 5
        assert predictions["per_fold"] == predictions["batched"]
        assert a.metrics == b.metrics


class TestSweep:
    def test_single_width_matches_standalone_cross_validate(self):
        """Each entry, in the caller's order, is that width's serial cross-validation."""
        data = tiny_dataset()
        cfg = MlpTrainConfig(max_epochs=100)
        widths = [9, 3, 9]
        rows = sweep_hidden_neurons(data, MlpRecipe(train_config=cfg), widths, seed=2, k=4)
        assert len(rows) == len(widths)
        for width, row in zip(widths, rows):
            entry = cross_validate(MlpRecipe(hidden=width, train_config=cfg), data,
                                   k=4, seed=2)
            assert row.metrics == entry.metrics
            assert row.train_mse == entry.train_mse
            assert row.test_mse == entry.test_mse

    def test_out_of_range_width_rejected(self):
        with pytest.raises(InvalidWidth):
            sweep_hidden_neurons(tiny_dataset(), MlpRecipe(), [2], seed=0)
        with pytest.raises(InvalidWidth):
            sweep_hidden_neurons(tiny_dataset(), MlpRecipe(), [22], seed=0)

    # (environment, usable CPUs, widths) -> workers
    @pytest.mark.parametrize("env, cpus, widths, workers", [
        ({}, 8, range(3, 22, 2), 8),                        # nothing set: one thread each
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, [3, 5, 5, 3], 2),  # one per distinct width
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, range(3, 22, 2), 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, range(3, 22, 2), 4),
        ({"OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"}, 8, range(3, 22, 2), 2),
        ({"OPENBLAS_NUM_THREADS": "16"}, 8, range(3, 22, 2), 1),  # never below one
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "0",
          "MKL_NUM_THREADS": "-4"}, 8, range(3, 22, 2), 8),  # none parses as positive
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "4"}, 8, range(3, 22, 2), 2),
        ({}, 8, [], 0),
    ])
    def test_workers_share_the_cpus_among_blas_threads(self, monkeypatch, env, cpus,
                                                       widths, workers):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert sweep_workers(widths) == workers

    def test_sweep_csv_shape(self):
        data = tiny_dataset()
        recipe = MlpRecipe(train_config=MlpTrainConfig(max_epochs=50))
        rows = sweep_hidden_neurons(data, recipe, [3, 5], seed=2, k=4)
        text = render_sweep_csv([3, 5], rows)
        lines = text.strip().splitlines()
        assert lines[0] == "width,dr_direct,dr_amp,accuracy,far,train_mse,test_mse"
        assert len(lines) == 3


def entry(name, time_s, drd, dra, acc, far_v, acc3=None):
    return EvalEntry(classifier=name, metrics=MetricSet(acc, drd, dra, far_v, acc3),
                     train_time=time_s)


class TestRendering:
    def test_published_comparison_rows(self):
        text, csv = render_report([
            entry("BP", 11.03, 99.55, 97.82, 99.0, 0.28),
            entry("RBF", 2.89, 99.62, 89.48, 95.9, 0.23),
            entry("SOM", 3011.87, 54.24, 65.28, 74.40, 6.83),
        ], folds=10)
        assert "BP" in text and "11.03" in text and "99.55" in text
        assert "97.82" in text and "99.00" in text and "0.28" in text
        assert "3011.87" in text and "54.24" in text and "65.28" in text
        assert "74.40" in text and "6.83" in text
        header = csv.splitlines()[0]
        assert header == ("classifier,training_time_sec,dr_direct,dr_amplification,"
                          "accuracy,far,accuracy_3class,folds")

    def test_absent_metrics_render_as_dash(self):
        text, csv = render_report([entry("bp", 1.0, None, 50.0, 75.0, None)], folds=10)
        assert ABSENT in text
        rows = parse_report_csv(csv)
        assert rows[0]["dr_direct"] is None
        assert rows[0]["far"] is None
        assert rows[0]["dr_amplification"] == pytest.approx(50.0)

    def test_csv_round_trip_to_printed_precision(self):
        _, csv = render_report([entry("bp", 11.03, 99.549999, 97.82, 99.0, 0.28, 98.75)],
                               folds=10)
        (row,) = parse_report_csv(csv)
        assert row["classifier"] == "bp"
        assert row["dr_direct"] == pytest.approx(99.549999, abs=1e-6)
        assert row["accuracy_3class"] == pytest.approx(98.75, abs=1e-6)
        assert row["folds"] == 10

    def test_stable_times_blank_the_time_column(self):
        text, csv = render_report([entry("bp", 123.456, 1.0, 2.0, 3.0, 4.0)], folds=10)
        assert "123.46" in text
        assert "123.46" not in csv
        (row,) = parse_report_csv(csv)
        assert row["training_time_sec"] is None
        assert row["dr_direct"] == pytest.approx(1.0)

    def test_rendering_is_pure(self):
        entries = [entry("bp", 1.5, 10.0, 20.0, 30.0, 40.0)]
        assert render_report(entries, folds=10) == render_report(entries, folds=10)
