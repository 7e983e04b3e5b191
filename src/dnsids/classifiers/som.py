"""Self-organizing map on a fixed 5x5 hexagonal grid.

Inputs are expected unit-normalized. Training runs two phases over the
shuffled sample stream: an ordering phase whose learning rate decays
linearly from 0.9 and whose neighborhood radius shrinks from the grid
diameter down to the tuning radius, then a tuning phase at a fixed small
rate and radius 1. Neighborhoods are measured in link distance, the hop
count of the hexagonal neighbor graph.

Cross-validation trains k maps at once. `som_train_folds` runs them in
lockstep on one stacked codebook: step s presents each map the s-th
sample of its own stream, drawn from its own seeded generator, at the
schedule for presentation s. Maps with fewer presentations drop out of
the stack when their stream ends. Each map's step is
`cb += r * (x - cb)`, where r is the learning rate inside the winner's
neighborhood and exactly 0 outside it, which leaves those rows
unchanged for finite inputs, and the winner minimizes the
squared distance summed in component order with ties to the lowest
index. This is the sequential masked update and best-matching unit
bit for bit, so every map equals the same map trained alone;
`som_train` is the one-map case.

Classification is by best-matching unit after neurons have been labeled
with the majority class of the training samples they win.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import Empty, Unlabeled, require
from ..preproc import CLASS_ORDER, l2_normalize_rows
from .base import _DECISION_LABEL_CODES, _DECISION_ORDER

GRID_ROWS = 5
GRID_COLS = 5
N_NEURONS = GRID_ROWS * GRID_COLS

# Position in `_DECISION_ORDER` of the class with each label code.
_DECISION_RANK = np.array([_DECISION_ORDER.index(label) for label in CLASS_ORDER])

# Lockstep training gathers the presented samples this many steps at a time.
_CHUNK_STEPS = 128


def grid_positions() -> np.ndarray:
    """Planar coordinates of the hexagonal offset layout, neuron-major.

    Neuron index r * GRID_COLS + c sits at (c + 0.5 * (r % 2), r * sqrt(3)/2).
    """
    pos = np.zeros((N_NEURONS, 2))
    for r in range(GRID_ROWS):
        for c in range(GRID_COLS):
            pos[r * GRID_COLS + c] = (c + 0.5 * (r % 2), r * math.sqrt(3) / 2)
    return pos


def _link_matrix() -> np.ndarray:
    """All-pairs hop counts on the neighbor graph (nodes within 1.001)."""
    pos = grid_positions()
    d = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    adjacency = (d <= 1.001) & ~np.eye(N_NEURONS, dtype=bool)
    dist = np.full((N_NEURONS, N_NEURONS), -1, dtype=int)
    for src in range(N_NEURONS):
        dist[src, src] = 0
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nbr in np.nonzero(adjacency[node])[0]:
                if dist[src, nbr] < 0:
                    dist[src, nbr] = dist[src, node] + 1
                    frontier.append(nbr)
    return dist


_LINKS = _link_matrix()
GRID_DIAMETER = int(_LINKS.max())


@dataclass
class SomModel:
    codebook: np.ndarray                         # (25, 3)
    grid: np.ndarray                             # (25, 2)
    neuron_labels: np.ndarray | None = None      # (25,) int8 label codes

    def copy(self) -> "SomModel":
        labels = None if self.neuron_labels is None else self.neuron_labels.copy()
        return SomModel(self.codebook.copy(), self.grid.copy(), labels)


@dataclass(frozen=True)
class SomTrainConfig:
    epochs: int = 1000
    ordering_lr: float = 0.9
    ordering_steps: int = 1000
    tuning_lr: float = 0.02
    tuning_neighbor_dist: int = 1
    seed: int = 0

    def __post_init__(self):
        for key in ("ordering_lr", "tuning_lr"):
            require(0 < getattr(self, key) <= 1, key, "in (0, 1]", getattr(self, key))
        require(self.ordering_steps >= 1, "ordering_steps", ">= 1", self.ordering_steps)
        # Fewer epochs train no map, and a negative radius updates no neuron.
        require(self.epochs >= 1, "epochs", ">= 1", self.epochs)
        require(self.tuning_neighbor_dist >= 0, "tuning_neighbor_dist", ">= 0",
                self.tuning_neighbor_dist)


def som_init(seed: int) -> SomModel:
    """Codebook drawn uniformly from the unit cube, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return SomModel(codebook=rng.random((N_NEURONS, 3)), grid=grid_positions())


def best_matching_units(codebook: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Index of the nearest codebook vector for each row of the (n, 3) `X`.

    Squared distances are summed in component order, as in training;
    ties go to the lowest neuron index.
    """
    diff = X[:, None, :] - codebook[None, :, :]
    sq = diff * diff
    return (sq[..., 0] + sq[..., 1] + sq[..., 2]).argmin(axis=1)


def som_train(model: SomModel, data, cfg: SomTrainConfig = SomTrainConfig()) -> SomModel:
    """Run the two-phase competitive schedule; returns a new model.

    Presentation order is re-shuffled each epoch from the generator
    seeded with `cfg.seed`; one epoch presents every sample once. The
    first `ordering_steps` presentations form the ordering phase.
    """
    return som_train_folds([model], [data], cfg, [cfg.seed])[0]


def som_train_folds(models, datasets, cfg: SomTrainConfig, seeds) -> list[SomModel]:
    """Train one map per (model, dataset, seed) in lockstep; returns new models.

    Map i follows `som_train(models[i], datasets[i], cfg)` with seed
    `seeds[i]` exactly; `cfg.seed` is not used. Datasets may differ in
    size. An empty dataset fails with an error naming its fold index.
    """
    Xs = [np.asarray(d, dtype=float).reshape(-1, 3) for d in datasets]
    if not len(models) == len(Xs) == len(seeds):
        raise ValueError("need one model and one seed per dataset")
    for fold, X in enumerate(Xs):
        if len(X) == 0:
            raise Empty(f"fold {fold}: som training needs at least one sample")

    # Maps run in descending order of presentation count, so the maps
    # still training at any step are a prefix of the stack.
    sizes = [len(X) for X in Xs]
    presentations = np.array([cfg.epochs * n for n in sizes])
    rank = np.argsort(-presentations, kind="stable")
    steps = int(presentations.max(initial=0))
    # Row r holds the presentation stream of map rank[r] as indices into
    # `samples`; the padding after a short stream is never read.
    samples = np.concatenate(Xs)
    offsets = np.cumsum([0] + sizes)
    order = np.zeros((len(Xs), steps), dtype=np.int32)
    for r, i in enumerate(rank):
        n = sizes[i]
        rng = np.random.default_rng(seeds[i])
        for e in range(cfg.epochs):
            order[r, e * n:(e + 1) * n] = rng.permutation(n) + offsets[i]

    # Component-major (3, maps, 25) layout keeps every inner loop 25 long.
    codebooks = np.stack([models[i].codebook for i in rank]).astype(float)
    codebooks = codebooks.transpose(2, 0, 1).copy()
    for start in range(0, steps, _CHUNK_STEPS):
        stop = min(start + _CHUNK_STEPS, steps)
        s = np.arange(start, stop)
        frac = s / cfg.ordering_steps
        ordering = s < cfg.ordering_steps
        lr = np.where(ordering, cfg.ordering_lr + (cfg.tuning_lr - cfg.ordering_lr) * frac,
                      cfg.tuning_lr)
        radius = np.where(ordering,
                          GRID_DIAMETER + (cfg.tuning_neighbor_dist - GRID_DIAMETER) * frac,
                          cfg.tuning_neighbor_dist)
        # rates[j, w, n]: the step size of neuron n when w wins at step j,
        # lr inside the neighborhood radius and exactly 0 outside it.
        rates = np.where(_LINKS <= radius[:, None, None], lr[:, None, None], 0.0)
        active = (presentations[rank] > s[:, None]).sum(axis=1).tolist()
        # (steps, 3, maps, 1), contiguous so each step reads one block
        xs = np.ascontiguousarray(samples[order[:, start:stop]].transpose(1, 2, 0))[..., None]
        for j, m in enumerate(active):
            cb = codebooks[:, :m]
            diff = xs[j, :, :m] - cb
            sq = diff * diff
            winners = (sq[0] + sq[1] + sq[2]).argmin(axis=1)
            cb += rates[j].take(winners, axis=0) * diff
    trained = {i: codebooks[:, r].T.copy() for r, i in enumerate(rank)}
    return [SomModel(codebook=trained[i], grid=m.grid.copy(), neuron_labels=m.neuron_labels)
            for i, m in enumerate(models)]


def quantization_error(model: SomModel, data) -> float:
    """Mean distance from each sample to its best-matching unit."""
    X = np.asarray(data, dtype=float).reshape(-1, 3)
    if len(X) == 0:
        raise Empty("quantization error needs at least one sample")
    diff = X - model.codebook[best_matching_units(model.codebook, X)]
    return float(np.sqrt((diff * diff).sum(axis=1)).mean())


def _pick_label(votes: np.ndarray, global_counts: np.ndarray) -> int:
    """Majority class of one neuron's votes, all indexed in `_DECISION_ORDER`.

    Ties go to the globally most frequent tied class, then to the first
    in `_DECISION_ORDER`.
    """
    tied = votes == votes.max()
    return int(np.where(tied, global_counts, -1).argmax())


def som_label(model: SomModel, vectors, codes) -> SomModel:
    """Label every neuron from the training samples it wins.

    `codes` are the samples' label codes. Majority vote per neuron;
    ties fall back to the globally most frequent class, then Normal.
    Neurons winning no samples inherit the label of the nearest labeled
    neuron by link distance, lowest index first. The labels are stored
    as label codes.
    """
    X = np.asarray(vectors, dtype=float).reshape(-1, 3)
    codes = np.asarray(codes, dtype=np.intp).reshape(-1)
    if len(X) == 0 or len(codes) != len(X):
        raise Empty("neuron labeling needs matching non-empty samples")

    classes = _DECISION_RANK[codes]
    winners = best_matching_units(model.codebook, X)
    votes = np.bincount(winners * len(_DECISION_ORDER) + classes,
                        minlength=N_NEURONS * len(_DECISION_ORDER)).reshape(N_NEURONS, -1)
    global_counts = votes.sum(axis=0)
    labeled = np.flatnonzero(votes.sum(axis=1))
    result = []
    for n in range(N_NEURONS):
        # argmin over the ascending `labeled` takes the lowest index on ties
        source = n if votes[n].any() else labeled[_LINKS[n, labeled].argmin()]
        result.append(_pick_label(votes[source], global_counts))
    return SomModel(model.codebook.copy(), model.grid.copy(), _DECISION_LABEL_CODES[result])


def som_classify(model: SomModel, X) -> np.ndarray:
    """Label codes of the best-matching units for the rows of a raw (n, 3) input.

    Rows are unit-normalized first, so classification is invariant under
    positive scaling; an all-zero row is matched as-is.
    """
    if model.neuron_labels is None:
        raise Unlabeled("neuron labels missing; run som_label first")
    X = l2_normalize_rows(np.asarray(X, dtype=float).reshape(-1, 3))
    return model.neuron_labels[best_matching_units(model.codebook, X)]
