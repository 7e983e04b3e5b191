"""K-means clustering, the shared-width rule, and the Gaussian-unit network."""

import math

import numpy as np
import pytest

from dnsids.classifiers.rbf import (RbfModel, _activations, kmeans, rbf_forward, rbf_train,
                                    rbf_width)
from dnsids.classifiers.recipes import RbfRecipe
from dnsids.errors import NeedTwoCenters, TooFewSamples
from dnsids.preproc import ClassLabel, LabeledDataset, class_labels, label_codes


def dataset_from_arrays(X, labels):
    X = np.array(X, dtype=float).reshape(-1, 3)
    X[:, 2] = np.trunc(X[:, 2])   # packet loss is a whole count
    return LabeledDataset(X, label_codes(labels))


def blob_data(rng, centers, per_blob=20, scale=0.4):
    X, owners = [], []
    for i, c in enumerate(centers):
        pts = rng.normal(scale=scale, size=(per_blob, 3)) + np.array(c, dtype=float)
        X.extend(np.abs(pts))
        owners.extend([i] * per_blob)
    return np.array(X), owners


class TestKmeans:
    def test_two_singleton_clusters(self):
        pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        centers = kmeans(pts, 2, seed=0)
        assert sorted(centers[:, 0].tolist()) == [0.0, 10.0]

    def test_k_one_gives_centroid(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0], [4.0, 2.0, 0.0]])
        centers = kmeans(pts, 1, seed=3)
        assert np.allclose(centers[0], pts.mean(axis=0))

    def test_blob_centers_stay_inside_their_blob(self):
        rng = np.random.default_rng(1)
        blob_centers = [(0, 0, 0), (20, 0, 0), (0, 20, 0)]
        X, owners = blob_data(rng, blob_centers)
        centers = kmeans(X, 3, seed=5)
        for center in centers:
            # brute-force nearest-blob check against the bounding boxes
            owner = int(np.argmin([np.linalg.norm(center - np.array(c))
                                   for c in blob_centers]))
            blob = X[np.array(owners) == owner]
            assert np.all(center >= blob.min(axis=0) - 1e-9)
            assert np.all(center <= blob.max(axis=0) + 1e-9)

    def test_duplicates_below_k_distinct_rejected(self):
        pts = np.array([[1.0, 1.0, 1.0]] * 6 + [[2.0, 2.0, 2.0]] * 6)
        with pytest.raises(TooFewSamples):
            kmeans(pts, 3, seed=0)

    def test_fewer_points_than_k_rejected(self):
        with pytest.raises(TooFewSamples):
            kmeans(np.zeros((2, 3)), 5, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        X, _ = blob_data(rng, [(0, 0, 0), (15, 0, 0), (0, 15, 0)])
        assert np.array_equal(kmeans(X, 4, seed=9), kmeans(X, 4, seed=9))

    def test_within_cluster_dispersion_non_increasing(self):
        rng = np.random.default_rng(3)
        X, _ = blob_data(rng, [(0, 0, 0), (8, 0, 0), (0, 8, 0)], per_blob=30)
        # Sum of squared distances to the nearest center after each pass.
        inertias = [((X[:, None, :] - kmeans(X, 5, seed=1, max_iter=i)[None, :, :]) ** 2)
                    .sum(axis=2).min(axis=1).sum() for i in range(1, 12)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_centers_are_exact_cluster_means(self):
        rng = np.random.default_rng(4)
        X, _ = blob_data(rng, [(0, 0, 0), (9, 0, 0)], per_blob=25)
        centers = kmeans(X, 2, seed=2)
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(2):
            assert np.allclose(centers[j], X[assign == j].mean(axis=0))


class TestWidthRule:
    def test_three_four_five_pair(self):
        sigma = rbf_width([(0.0, 0.0, 0.0), (3.0, 4.0, 0.0)])
        assert sigma == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-12)

    def test_unit_square_corners(self):
        corners = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
        assert rbf_width(corners) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_single_center_rejected(self):
        with pytest.raises(NeedTwoCenters):
            rbf_width([(0.0, 0.0, 0.0)])


class TestTraining:
    def test_interpolation_with_center_per_point(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 10, size=(12, 3)).round(3)
        labels = [ClassLabel.NORMAL if i % 3 == 0
                  else ClassLabel.DIRECT_DOS if i % 3 == 1
                  else ClassLabel.AMPLIFICATION for i in range(12)]
        data = dataset_from_arrays(X, labels)
        model, report = rbf_train(data, k=12, seed=0)
        assert report.final_mse <= 1e-6
        assert report.converged

        # independent check: an unregularized least-squares solve of the
        # same design reaches an (essentially) exact interpolant too
        phi = _activations(model.centers, model.width, data.X)
        design = np.concatenate([phi, np.ones((12, 1))], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, data.targets(), rcond=None)
        residual = design @ coeffs - data.targets()
        assert float(np.mean(residual ** 2)) <= 1e-6

    def test_separable_blobs_classified_perfectly(self):
        rng = np.random.default_rng(7)
        centers = {ClassLabel.NORMAL: (0, 0, 0), ClassLabel.DIRECT_DOS: (30, 0, 0),
                   ClassLabel.AMPLIFICATION: (0, 30, 0)}
        X, labels = [], []
        for lbl, c in centers.items():
            pts = rng.normal(scale=0.5, size=(34, 3)) + np.array(c, dtype=float)
            X.extend(np.abs(pts))
            labels.extend([lbl] * 34)
        gaps = [np.linalg.norm(np.array(a) - np.array(b))
                for a in centers.values() for b in centers.values() if a != b]
        assert min(gaps) > 8 * 0.5  # margin dwarfs blob spread
        data = dataset_from_arrays(np.array(X), labels)
        model, _ = rbf_train(data, k=6, seed=1)
        preds = RbfRecipe().score(model, data.X)[0]
        assert class_labels(preds) == labels

    def test_k_below_two_rejected(self):
        data = dataset_from_arrays(np.eye(3), [ClassLabel.NORMAL] * 3)
        with pytest.raises(NeedTwoCenters):
            rbf_train(data, k=1, seed=0)

    def test_duplicate_heavy_dataset_rejected(self):
        X = np.array([[1.0, 1.0, 0.0]] * 10)
        data = dataset_from_arrays(X, [ClassLabel.NORMAL] * 10)
        with pytest.raises(TooFewSamples):
            rbf_train(data, k=3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X, _ = blob_data(rng, [(0, 0, 0), (10, 0, 0), (0, 10, 0)])
        labels = [ClassLabel.NORMAL] * 20 + [ClassLabel.DIRECT_DOS] * 20 \
            + [ClassLabel.AMPLIFICATION] * 20
        data = dataset_from_arrays(X, labels)
        m1, _ = rbf_train(data, k=5, seed=4)
        m2, _ = rbf_train(data, k=5, seed=4)
        assert np.array_equal(m1.centers, m2.centers)
        assert np.array_equal(m1.output_weights, m2.output_weights)


class TestClassify:
    def crafted_model(self, bias):
        return RbfModel(centers=np.zeros((2, 3)), width=1.0,
                        output_weights=np.zeros((3, 2)),
                        output_bias=np.array(bias, dtype=float))

    def predict(self, bias, X):
        return class_labels(RbfRecipe().score(self.crafted_model(bias), X)[0])

    def test_nearest_code_examples(self):
        far_x = [[100.0, 100.0, 100.0]]  # activations vanish, bias decides
        assert self.predict([0.1, 0.2, 0.9], far_x) == [ClassLabel.DIRECT_DOS]
        assert self.predict([0.0, 0.0, 0.0], far_x) == [ClassLabel.NORMAL]
        assert self.predict([0.5, 0.5, 0.5], far_x) == [ClassLabel.NORMAL]

    def test_forward_is_gaussian_mix(self):
        model = RbfModel(centers=np.array([[0.0, 0.0, 0.0]] * 2), width=1.0,
                         output_weights=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
                         output_bias=np.zeros(3))
        (out,) = rbf_forward(model, [[1.0, 0.0, 0.0]])
        assert out[0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_any_finite_input_gets_a_label(self):
        rng = np.random.default_rng(9)
        X, _ = blob_data(rng, [(0, 0, 0), (10, 0, 0), (0, 10, 0)])
        labels = ([ClassLabel.NORMAL] * 20 + [ClassLabel.DIRECT_DOS] * 20
                  + [ClassLabel.AMPLIFICATION] * 20)
        model, _ = rbf_train(dataset_from_arrays(X, labels), k=4, seed=0)
        X = np.array([rng.normal(scale=10.0 ** rng.integers(-3, 7), size=3)
                      for _ in range(50)])
        labels = class_labels(RbfRecipe().score(model, X)[0])
        assert len(labels) == 50
        assert set(labels) <= set(ClassLabel)
