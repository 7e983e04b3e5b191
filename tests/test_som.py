"""Hexagonal-grid map: layout, link distance, training, labeling, decisions."""

import hashlib
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsids.classifiers import som
from dnsids.classifiers.base import nearest
from dnsids.classifiers.som import (GRID_COLS, GRID_DIAMETER, GRID_ROWS, N_NEURONS, SomModel,
                                    SomTrainConfig, quantization_error, som_classify, som_init,
                                    som_label, som_train, som_train_folds)
from dnsids.errors import Empty, Unlabeled
from dnsids.preproc import ClassLabel, class_labels, l2_normalize_rows, label_codes


def linkdist(a: int, b: int) -> int:
    """Hop count between two neurons on the map's hexagonal neighbor graph."""
    return int(som._LINKS[a, b])


def grid_positions() -> np.ndarray:
    """Planar coordinates of the hexagonal offset layout, neuron-major.

    Neuron index r * GRID_COLS + c sits at (c + 0.5 * (r % 2), r * sqrt(3)/2).
    """
    pos = np.zeros((N_NEURONS, 2))
    for r in range(GRID_ROWS):
        for c in range(GRID_COLS):
            pos[r * GRID_COLS + c] = (c + 0.5 * (r % 2), r * math.sqrt(3) / 2)
    return pos


def bfs_hops(adjacency, src):
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for nbr in range(N_NEURONS):
            if adjacency[node][nbr] and nbr not in dist:
                dist[nbr] = dist[node] + 1
                frontier.append(nbr)
    return dist


class TestGrid:
    def test_init_deterministic(self):
        assert np.array_equal(som_init(4).codebook, som_init(4).codebook)

    def test_neuron_count(self):
        assert som_init(0).codebook.shape == (25, 3)

    def test_offset_row_position(self):
        pos = grid_positions()
        # row 1, col 0 sits half a cell right, sqrt(3)/2 up
        assert pos[5][0] == pytest.approx(0.5, abs=1e-12)
        assert pos[5][1] == pytest.approx(0.866025, abs=1e-6)

    def test_codebook_in_unit_cube(self):
        cb = som_init(9).codebook
        assert np.all(cb >= 0) and np.all(cb <= 1)


class TestLinkDistance:
    def independent_matrix(self):
        pos = grid_positions()
        adjacency = [[0 <= i != j and
                      math.dist(pos[i], pos[j]) <= 1.001
                      for j in range(N_NEURONS)] for i in range(N_NEURONS)]
        return [bfs_hops(adjacency, src) for src in range(N_NEURONS)]

    def test_identity_is_zero(self):
        assert linkdist(7, 7) == 0

    def test_horizontal_neighbors_are_one(self):
        assert linkdist(0, 1) == 1
        assert linkdist(11, 12) == 1

    def test_matches_breadth_first_search_everywhere(self):
        oracle = self.independent_matrix()
        for a in range(N_NEURONS):
            for b in range(N_NEURONS):
                assert linkdist(a, b) == oracle[a][b]

    def test_opposite_corners(self):
        oracle = self.independent_matrix()
        assert linkdist(0, N_NEURONS - 1) == oracle[0][N_NEURONS - 1]

    def test_diameter_consistent(self):
        oracle = self.independent_matrix()
        assert GRID_DIAMETER == max(max(row.values()) for row in oracle)


class TestTraining:
    def test_single_vector_attracts_bmu(self):
        target = np.array([[0.6, 0.8, 0.0]])
        model = som_train(som_init(1), target,
                          SomTrainConfig(epochs=2000, ordering_steps=1000), seed=1)
        best = np.min(np.linalg.norm(model.codebook - target[0], axis=1))
        assert best < 1e-3

    def test_two_far_clusters_get_disjoint_neurons(self):
        rng = np.random.default_rng(3)
        a = l2_normalize_rows(np.abs(rng.normal(size=(30, 3)) * 0.02 + [1, 0, 0]))
        b = l2_normalize_rows(np.abs(rng.normal(size=(30, 3)) * 0.02 + [0, 0, 1]))
        data = np.concatenate([a, b])
        model = som_train(som_init(2), data, SomTrainConfig(epochs=40), seed=2)
        # exhaustive best-matching-unit assignment per cluster
        def bmus(X):
            d2 = ((X[:, None, :] - model.codebook[None, :, :]) ** 2).sum(axis=2)
            return set(d2.argmin(axis=1).tolist())
        assert bmus(a).isdisjoint(bmus(b))

    # Fewer than one epoch trains no map, and a negative tuning radius
    # updates no neuron: both are rejected rather than run silently.
    @pytest.mark.parametrize("bad", [dict(epochs=0), dict(epochs=-1),
                                     dict(tuning_neighbor_dist=-1)])
    def test_schedule_that_trains_nothing_rejected(self, bad):
        data = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=next(iter(bad))):
            som_train(som_init(5), data, SomTrainConfig(**bad), seed=0)

    def test_empty_data_rejected(self):
        with pytest.raises(Empty):
            som_train(som_init(0), np.zeros((0, 3)), SomTrainConfig(epochs=1))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = l2_normalize_rows(np.abs(rng.normal(size=(40, 3))) + 0.1)
        cfg = SomTrainConfig(epochs=10)
        m1 = som_train(som_init(7), data, cfg, seed=9)
        m2 = som_train(som_init(7), data, cfg, seed=9)
        assert np.array_equal(m1.codebook, m2.codebook)

    def test_ordering_phase_reduces_quantization_error(self):
        rng = np.random.default_rng(8)
        data = l2_normalize_rows(np.abs(rng.normal(size=(50, 3))) + 0.05)
        initial = som_init(3)
        qe_before = quantization_error(initial, data)
        # epochs * samples == ordering_steps: the run is pure ordering phase
        cfg = SomTrainConfig(epochs=4, ordering_steps=200)
        qe_after = quantization_error(som_train(initial, data, cfg, seed=3), data)
        assert qe_after <= qe_before


def reference_som_train(codebook, X, cfg, seed):
    """One sample at a time, masked update: the loop lockstep training replaced."""
    rng = np.random.default_rng(seed)
    codebook = codebook.copy()
    presented = 0
    for _ in range(cfg.epochs):
        for i in rng.permutation(len(X)):
            x = X[i]
            if presented < cfg.ordering_steps:
                frac = presented / cfg.ordering_steps
                lr = cfg.ordering_lr + (cfg.tuning_lr - cfg.ordering_lr) * frac
                radius = GRID_DIAMETER + (cfg.tuning_neighbor_dist - GRID_DIAMETER) * frac
            else:
                lr = cfg.tuning_lr
                radius = cfg.tuning_neighbor_dist
            winner = int(((codebook - x) ** 2).sum(axis=1).argmin())
            mask = np.array([linkdist(winner, j) <= radius for j in range(N_NEURONS)])
            codebook[mask] += lr * (x - codebook[mask])
            presented += 1
    return codebook


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_fold_matches_training_it_alone(self, data):
        sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5), "sizes")
        epochs = data.draw(st.integers(1, 3), "epochs")     # 0 is rejected
        # below the longest fold's presentation count, so both phases run
        ordering_steps = data.draw(st.integers(1, max(1, epochs * max(sizes) - 1)),
                                   "ordering_steps")
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(sizes),
                                   max_size=len(sizes)), "seeds")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "data_seed"))
        Xs = [l2_normalize_rows(np.abs(rng.normal(size=(n, 3))) + 0.01) for n in sizes]
        cfg = SomTrainConfig(epochs=epochs, ordering_steps=ordering_steps)

        stacked = som_train_folds([som_init(s) for s in seeds], Xs, cfg, seeds)
        for model, X, seed in zip(stacked, Xs, seeds):
            alone = som_train(som_init(seed), X, cfg, seed)
            assert np.array_equal(model.codebook, alone.codebook)
            assert np.array_equal(model.codebook,
                                  reference_som_train(som_init(seed).codebook, X, cfg,
                                                      seed))

    def test_pinned_codebook_digest(self):
        # Digest of the codebook the per-sample trainer produced for this input.
        rng = np.random.default_rng(0)
        X = l2_normalize_rows(np.abs(rng.normal(size=(17, 3))) + 0.05)
        model = som_train(som_init(3), X, SomTrainConfig(epochs=3, ordering_steps=20),
                          seed=11)
        assert hashlib.sha256(model.codebook.tobytes()).hexdigest() == (
            "ccac2e958e59778a8678a064073771f6e8d966645c43e77623425242950bed10")

    def test_peak_memory_does_not_grow_with_epochs(self):
        # Each map's order is drawn one epoch at a time as training reaches
        # it. The whole order of the 10-epoch run would take 23 KB as int32.
        rng = np.random.default_rng(4)
        Xs = [l2_normalize_rows(np.abs(rng.normal(size=(n, 3))) + 0.01) for n in (300, 290)]

        def peak(epochs):
            cfg = SomTrainConfig(epochs=epochs, ordering_steps=50)
            models = [som_init(1), som_init(2)]
            tracemalloc.start()
            try:
                som_train_folds(models, Xs, cfg, [1, 2])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10) - peak(1) < 8 * 1024

    def test_empty_fold_is_named(self):
        # The index travels on the error; cross-validation writes it into
        # the message, once.
        X = np.ones((4, 3)) / math.sqrt(3)
        with pytest.raises(Empty) as info:
            som_train_folds([som_init(0), som_init(1)], [X, X[:0]],
                            SomTrainConfig(epochs=1), [0, 1])
        assert info.value.fold == 1
        assert "fold" not in str(info.value)

    def test_rounding_near_tie_follows_the_sequential_sum_order(self):
        # Neurons 0-2 hold permutations of one vector, so their distances
        # to the origin differ only by rounding, and which one wins the
        # tuning step depends on the order the squares are summed in.
        p, q, r = 0.005265304565574724, 0.8212284183827663, 0.7970694287520462
        codebook = np.full((N_NEURONS, 3), 5.0)
        codebook[:3] = [(p, q, r), (q, r, p), (r, p, q)]
        X = np.zeros((1, 3))
        cfg = SomTrainConfig(epochs=2, ordering_steps=1, tuning_neighbor_dist=0)
        (trained,) = som_train_folds([SomModel(codebook)], [X], cfg, [0])
        assert np.array_equal(trained.codebook, reference_som_train(codebook, X, cfg, 0))

        p, q, r = 0.40847320541999865, 0.045275193902445166, 0.04875771072716806
        codebook[:3] = [(p, q, r), (q, r, p), (r, p, q)]
        sequential = ((codebook - X[0]) ** 2).sum(axis=1).argmin()
        assert nearest(X, codebook)[0] == sequential

    def test_best_matching_units_break_ties_low(self):
        codebook = np.zeros((N_NEURONS, 3))
        codebook[[3, 7]] = (1.0, 0.0, 0.0)        # two equally near neurons
        X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert nearest(X, codebook).tolist() == [3, 0]


class TestLockstepMemory:
    def test_peak_memory_holds_one_rate_buffer(self):
        # Ten 864-row folds, as the bundled CV trains. One chunk's rates
        # take 640 KB; a new tensor per chunk, assigned while the last one
        # was alive, took the peak to 1.8 MB, over this bound.
        rng = np.random.default_rng(5)
        Xs = [l2_normalize_rows(np.abs(rng.normal(size=(864, 3))) + 0.01) for _ in range(10)]
        models = [som_init(i) for i in range(10)]
        rates = som._CHUNK_STEPS * N_NEURONS * N_NEURONS * 8
        tracemalloc.start()
        try:
            som_train_folds(models, Xs, SomTrainConfig(epochs=2), list(range(10)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sum(X.nbytes for X in Xs) + 2 * rates


class TestLabeling:
    def crafted_model(self):
        # codebook rows far apart so test vectors pick known neurons
        codebook = np.zeros((N_NEURONS, 3))
        for i in range(N_NEURONS):
            codebook[i] = (i + 1, 0.0, 0.0)
        return SomModel(codebook=codebook)

    def vector_for(self, neuron):
        return np.array([float(neuron + 1), 0.0, 0.0])

    def neuron_labels(self, model, X, labels):
        """Labels som_label gives the neurons from the samples' labels."""
        return class_labels(som_label(model, X, label_codes(labels)).neuron_labels)

    def test_unanimous_data_labels_everything_normal(self):
        model = self.crafted_model()
        X = np.stack([self.vector_for(i) for i in range(5)])
        neuron_labels = self.neuron_labels(model, X, [ClassLabel.NORMAL] * 5)
        assert set(neuron_labels) == {ClassLabel.NORMAL}

    def test_majority_vote(self):
        model = self.crafted_model()
        X = np.stack([self.vector_for(0)] * 4)
        labels = [ClassLabel.DIRECT_DOS] * 3 + [ClassLabel.NORMAL]
        neuron_labels = self.neuron_labels(model, X, labels)
        assert neuron_labels[0] is ClassLabel.DIRECT_DOS

    def test_silent_neuron_inherits_nearest_label(self):
        model = self.crafted_model()
        # neuron 24 wins amplification samples; neuron 0 wins normal ones
        X = np.stack([self.vector_for(24)] * 3 + [self.vector_for(0)] * 3)
        labels = [ClassLabel.AMPLIFICATION] * 3 + [ClassLabel.NORMAL] * 3
        neuron_labels = self.neuron_labels(model, X, labels)
        # neuron 23 is adjacent to 24 (hop 1) but hops from 0
        assert neuron_labels[23] is ClassLabel.AMPLIFICATION

    def test_neuron_tie_falls_back_to_global_frequency(self):
        model = self.crafted_model()
        X = np.stack([self.vector_for(0)] * 2 + [self.vector_for(5)] * 3)
        labels = ([ClassLabel.DIRECT_DOS, ClassLabel.AMPLIFICATION]
                  + [ClassLabel.AMPLIFICATION] * 3)
        neuron_labels = self.neuron_labels(model, X, labels)
        assert neuron_labels[0] is ClassLabel.AMPLIFICATION

    def test_full_tie_prefers_normal(self):
        model = self.crafted_model()
        X = np.stack([self.vector_for(0)] * 2)
        labels = [ClassLabel.DIRECT_DOS, ClassLabel.NORMAL]
        neuron_labels = self.neuron_labels(model, X, labels)
        assert neuron_labels[0] is ClassLabel.NORMAL

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            som_label(self.crafted_model(), np.zeros((0, 3)), [])

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(st.tuples(st.integers(0, N_NEURONS - 1), st.integers(0, 2)),
                            min_size=1, max_size=40))
    def test_equals_per_neuron_reference(self, samples):
        # Few samples over 25 neurons and 3 classes leave many neurons
        # without votes and many tied, both per neuron and globally.
        model = self.crafted_model()
        X = np.stack([self.vector_for(n) for n, _ in samples])
        codes = np.array([c for _, c in samples])
        got = som_label(model, X, codes).neuron_labels
        assert np.array_equal(got, reference_som_labels(model, X, codes))
        assert got.dtype == np.int8


def reference_som_labels(model, X, codes):
    """The neuron labels `som_label` gave when it labeled one neuron at a time."""
    classes = som._DECISION_RANK[codes]
    winners = nearest(X, model.codebook)
    votes = np.zeros((N_NEURONS, 3), dtype=int)
    for w, c in zip(winners, classes):
        votes[w, c] += 1
    global_counts = votes.sum(axis=0)
    labeled = [n for n in range(N_NEURONS) if votes[n].any()]
    result = []
    for n in range(N_NEURONS):
        source = n if votes[n].any() else min(labeled, key=lambda m: (linkdist(n, m), m))
        tied = votes[source] == votes[source].max()
        result.append(int(np.where(tied, global_counts, -1).argmax()))
    return som._DECISION_LABEL_CODES[result]


class TestClassify:
    def labeled_model(self):
        codebook = l2_normalize_rows(som_init(11).codebook + 0.01)
        labels = label_codes(ClassLabel.DIRECT_DOS if i % 2 else ClassLabel.NORMAL
                             for i in range(N_NEURONS))
        return SomModel(codebook=codebook, neuron_labels=labels)

    def test_codebook_vector_maps_to_own_neuron_label(self):
        model = self.labeled_model()
        rows = [0, 1, 13, 24]
        assert som_classify(model, model.codebook[rows]).tolist() == [
            model.neuron_labels[i] for i in rows]

    def test_unlabeled_model_rejected(self):
        model = som_init(0)
        with pytest.raises(Unlabeled):
            som_classify(model, [[1.0, 0.0, 0.0]])

    def test_positive_scaling_invariance(self):
        model = self.labeled_model()
        rng = np.random.default_rng(5)
        X = np.abs(rng.normal(size=(50, 3))) + 1e-3
        base = som_classify(model, X)
        for c in (0.1, 1.0, 1000.0):
            assert np.array_equal(som_classify(model, c * X), base)

    def test_zero_vector_still_classified(self):
        model = self.labeled_model()
        (label,) = class_labels(som_classify(model, [[0.0, 0.0, 0.0]]))
        assert label in set(ClassLabel)

    def test_any_finite_input_gets_a_label(self):
        model = self.labeled_model()
        rng = np.random.default_rng(21)
        X = np.array([rng.normal(scale=10.0 ** rng.integers(-3, 7), size=3)
                      for _ in range(50)])
        labels = class_labels(som_classify(model, X))
        assert len(labels) == 50
        assert set(labels) <= set(ClassLabel)
