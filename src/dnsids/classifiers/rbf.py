"""Radial basis function network with k-means centers.

Hidden units are Gaussians sharing one width, computed from the centers
as (max pairwise center distance) / sqrt(number of centers). The linear
output layer is solved in closed form by ridge-regularized least squares
against the class target codes; training is declared converged when the
resulting MSE is at or below the fixed 0.001 threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateDesign, NeedTwoCenters, TooFewSamples
from ..preproc import LabeledDataset
from .base import TrainReport, sq_distances

MSE_TARGET = 0.001
RIDGE = 1e-8
_MAX_LLOYD_ITER = 100


@dataclass
class RbfModel:
    centers: np.ndarray         # (k, 3)
    width: float                # shared Gaussian sigma
    output_weights: np.ndarray  # (3, k)
    output_bias: np.ndarray     # (3,)


def kmeans(points, k: int, seed: int, max_iter: int = _MAX_LLOYD_ITER) -> np.ndarray:
    """Cluster points into k centers by Lloyd iterations.

    Initial centers are k distinct data points chosen by the seeded
    generator. A pass that leaves clusters empty re-seeds each from the
    point farthest from its assigned center; any other pass moves every
    center to its cluster's mean, and the loop ends once a pass assigns
    the points as the one before it did.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = len(points)
    # Asking for the indices keeps `np.unique` off its `np.ma.is_masked`
    # check, which would import `numpy.ma` (about 1.2 MB) for this call
    # alone; the rows are the same sorted distinct rows either way.
    distinct = np.unique(points, axis=0, return_index=True)[0]
    if n < k or len(distinct) < k:
        raise TooFewSamples(f"need at least {k} distinct points, have {len(distinct)}")
    rng = np.random.default_rng(seed)
    centers = distinct[rng.choice(len(distinct), size=k, replace=False)].copy()

    prev = None
    for _ in range(max_iter):
        d2 = sq_distances(points, centers)
        assign = d2.argmin(axis=1)
        empties = [j for j in range(k) if not np.any(assign == j)]
        if empties:
            own = d2[np.arange(n), assign].astype(float)
            for j in empties:
                far = int(own.argmax())
                centers[j] = points[far]
                own[far] = -np.inf
            prev = None
            continue
        centers = np.stack([points[assign == j].mean(axis=0) for j in range(k)])
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
    return centers


def rbf_width(centers) -> float:
    """Shared Gaussian width: max pairwise distance / sqrt(center count)."""
    c = np.asarray(centers, dtype=float)
    if len(c) < 2:
        raise NeedTwoCenters("width rule needs at least two centers")
    return float(np.sqrt(sq_distances(c, c).max()) / np.sqrt(len(c)))


def _activations(centers: np.ndarray, width: float, X: np.ndarray) -> np.ndarray:
    return np.exp(-sq_distances(X, centers) / (2.0 * width * width))


def rbf_train(data: LabeledDataset, k: int, seed: int) -> tuple[RbfModel, TrainReport]:
    """Fit centers by k-means, width by the shared rule, outputs by ridge."""
    if k < 2:
        raise NeedTwoCenters("rbf training needs k >= 2")
    start = time.perf_counter()
    X = data.X
    T = data.targets()
    centers = kmeans(X, k, seed)
    width = rbf_width(centers)
    phi = _activations(centers, width, X)
    design = np.concatenate([phi, np.ones((len(X), 1))], axis=1)
    gram = design.T @ design + RIDGE * np.eye(k + 1)
    try:
        weights = np.linalg.solve(gram, design.T @ T)   # (k+1, 3)
    except np.linalg.LinAlgError:
        raise DegenerateDesign("regularized output solve failed") from None
    mse = float(np.mean((design @ weights - T) ** 2))
    model = RbfModel(centers=centers, width=width,
                     output_weights=weights[:k].T.copy(),
                     output_bias=weights[k].copy())
    wall = time.perf_counter() - start
    return model, TrainReport(mse, 1, wall, mse <= MSE_TARGET, (mse,))


def rbf_forward(model: RbfModel, X) -> np.ndarray:
    """Raw outputs, (n, 3), for the rows of the (n, 3) input `X`."""
    phi = _activations(model.centers, model.width, np.asarray(X, dtype=float))
    return phi @ model.output_weights.T + model.output_bias
