"""Self-organizing map on a fixed 5x5 hexagonal grid.

Inputs are expected unit-normalized. Training runs two phases over the
shuffled sample stream: an ordering phase whose learning rate decays
linearly from 0.9 and whose neighborhood radius shrinks from the grid
diameter down to the tuning radius, then a tuning phase at a fixed small
rate and radius 1. Neighborhoods are measured in link distance, the hop
count of the hexagonal neighbor graph.

Cross-validation trains k maps at once. `som_train_folds` runs them in
lockstep on one stacked codebook: step s presents each map the s-th
sample of its own stream, drawn from its own seeded generator one epoch
at a time as training reaches it, at the schedule for presentation s.
Maps with fewer presentations drop out of the stack when their stream
ends. Each map's step is `cb += r * (x - cb)`, where r is the learning
rate inside the winner's neighborhood and exactly 0 outside it, which
leaves those rows unchanged for finite inputs, and the winner minimizes
the squared distance summed in component order with ties to the lowest
index. This is the sequential masked update and best-matching unit
bit for bit, so every map equals the same map trained alone.

Training yields a bare codebook. `som_label` then labels each neuron
with the majority class of the training samples it wins, and the
labelled codebook is the map, a `SomModel`, that classifies by
best-matching unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import Empty, require
from ..preproc import CLASS_ORDER, l2_normalize_rows
from .base import _DECISION_LABEL_CODES, _DECISION_ORDER, nearest, sq_distances

GRID_ROWS = 5
GRID_COLS = 5
N_NEURONS = GRID_ROWS * GRID_COLS

# Position in `_DECISION_ORDER` of the class with each label code.
_DECISION_RANK = np.array([_DECISION_ORDER.index(label) for label in CLASS_ORDER])

# Lockstep training gathers the presented samples this many steps at a time.
_CHUNK_STEPS = 128


def _link_matrix() -> np.ndarray:
    """All-pairs hop counts on the hexagonal neighbor graph.

    Odd rows sit half a cell right of even ones, so neuron r * GRID_COLS + c
    has axial coordinates (q, r) with q = c - (r - r % 2) // 2, and the hop
    count between two neurons is their axial hex distance.
    """
    r, c = np.divmod(np.arange(N_NEURONS), GRID_COLS)
    q = c - (r - r % 2) // 2
    dq = q[:, None] - q[None, :]
    dr = r[:, None] - r[None, :]
    return (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2


_LINKS = _link_matrix()
GRID_DIAMETER = int(_LINKS.max())


@dataclass
class SomModel:
    codebook: np.ndarray        # (25, 3)
    neuron_labels: np.ndarray   # (25,) int8 label codes


@dataclass(frozen=True)
class SomTrainConfig:
    epochs: int = 1000
    ordering_lr: float = 0.9
    ordering_steps: int = 1000
    tuning_lr: float = 0.02
    tuning_neighbor_dist: int = 1

    def __post_init__(self):
        for key in ("ordering_lr", "tuning_lr"):
            require(0 < getattr(self, key) <= 1, key, "in (0, 1]", getattr(self, key))
        require(self.ordering_steps >= 1, "ordering_steps", ">= 1", self.ordering_steps)
        # Fewer epochs train no map, and a negative radius updates no neuron.
        require(self.epochs >= 1, "epochs", ">= 1", self.epochs)
        require(self.tuning_neighbor_dist >= 0, "tuning_neighbor_dist", ">= 0",
                self.tuning_neighbor_dist)


def som_init(seed: int) -> np.ndarray:
    """(25, 3) codebook drawn uniformly from the unit cube, deterministic per seed."""
    return np.random.default_rng(seed).random((N_NEURONS, 3))


def _stream_blocks(rng, n: int, epochs: int, offset: int):
    """Yield a map's presentation stream `_CHUNK_STEPS` indices at a time.

    Each epoch is one permutation of the map's n samples, drawn from `rng`
    when the stream reaches it; indices are shifted by `offset`. Only the
    last block may be short.
    """
    pending = np.empty(0, dtype=np.intp)
    for _ in range(epochs):
        pending = np.concatenate([pending, rng.permutation(n) + offset])
        while len(pending) >= _CHUNK_STEPS:
            yield pending[:_CHUNK_STEPS]
            pending = pending[_CHUNK_STEPS:]
    if len(pending):
        yield pending


def som_train_folds(codebooks, datasets, cfg: SomTrainConfig, seeds) -> list[np.ndarray]:
    """Train one map per (codebook, dataset, seed) in lockstep; returns the
    trained codebooks as new arrays.

    Each map runs the two-phase schedule on its own dataset, exactly as
    it would alone. Its presentation order is re-shuffled each epoch from
    the generator seeded with its seed; one epoch presents every sample
    once. The first `ordering_steps` presentations form the ordering
    phase. Datasets may differ in size. An empty dataset i fails with an
    error whose `fold` is i.
    """
    Xs = [np.asarray(d, dtype=float).reshape(-1, 3) for d in datasets]
    if not len(codebooks) == len(Xs) == len(seeds):
        raise ValueError("need one codebook and one seed per dataset")
    for fold, X in enumerate(Xs):
        if len(X) == 0:
            exc = Empty("som training needs at least one sample")
            exc.fold = fold
            raise exc

    # Maps run in descending order of presentation count, so the maps
    # still training at any step are a prefix of the stack.
    sizes = [len(X) for X in Xs]
    presentations = np.array([cfg.epochs * n for n in sizes])
    rank = np.argsort(-presentations, kind="stable")
    steps = int(presentations.max(initial=0))
    samples = np.concatenate(Xs)
    offsets = np.cumsum([0] + sizes)
    streams = [_stream_blocks(np.random.default_rng(seeds[i]), sizes[i], cfg.epochs,
                              offsets[i]) for i in rank]
    # Row r holds the current chunk of map rank[r]'s stream as indices into
    # `samples`; the padding after a short stream is never read.
    order = np.zeros((len(Xs), _CHUNK_STEPS), dtype=np.intp)

    # Component-major (3, maps, 25) layout keeps every inner loop 25 long.
    stack = np.stack([codebooks[i] for i in rank]).astype(float)
    stack = stack.transpose(2, 0, 1).copy()
    # rates[j, w, n]: the step size of neuron n when w wins at step j of a
    # chunk, lr inside the neighborhood radius and exactly 0 outside it.
    # One buffer serves every chunk. Every rate is in (0, 1], so the
    # product of the in-radius mask and lr is lr or +0.0, bit for bit.
    rates = np.empty((min(steps, _CHUNK_STEPS), N_NEURONS, N_NEURONS))
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
        np.multiply(_LINKS <= radius[:, None, None], lr[:, None, None],
                    out=rates[:stop - start])
        active = (presentations[rank] > s[:, None]).sum(axis=1).tolist()
        for r in range(active[0]):
            block = next(streams[r])
            order[r, :len(block)] = block
        # (steps, 3, maps, 1), contiguous so each step reads one block
        xs = np.ascontiguousarray(samples[order[:, :stop - start]].transpose(1, 2, 0))[..., None]
        for j, m in enumerate(active):
            cb = stack[:, :m]
            diff = xs[j, :, :m] - cb
            sq = diff * diff
            winners = (sq[0] + sq[1] + sq[2]).argmin(axis=1)
            cb += rates[j].take(winners, axis=0) * diff
    # Map i sits at the stack position r where rank[r] == i.
    return [stack[:, r].T.copy() for r in np.argsort(rank)]


def quantization_error(codebook: np.ndarray, data) -> float:
    """Mean distance from each sample to its best-matching unit of `codebook`."""
    X = np.asarray(data, dtype=float).reshape(-1, 3)
    if len(X) == 0:
        raise Empty("quantization error needs at least one sample")
    return float(np.sqrt(sq_distances(X, codebook).min(axis=1)).mean())


def som_label(codebook: np.ndarray, vectors, codes) -> SomModel:
    """The map of a copy of `codebook`, every neuron labeled from the
    training samples it wins.

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
    winners = nearest(X, codebook)
    votes = np.bincount(winners * len(_DECISION_ORDER) + classes,
                        minlength=N_NEURONS * len(_DECISION_ORDER)).reshape(N_NEURONS, -1)
    global_counts = votes.sum(axis=0)
    labeled = np.flatnonzero(votes.sum(axis=1))
    # Each neuron's own votes, or those of the nearest labeled neuron when it
    # has none: argmin over the ascending `labeled` takes the lowest index on
    # ties, and a labeled neuron is nearest itself.
    votes = votes[labeled[_LINKS[:, labeled].argmin(axis=1)]]
    # The columns follow `_DECISION_ORDER`, so argmax breaks the last ties.
    tied = votes == votes.max(axis=1, keepdims=True)
    result = np.where(tied, global_counts, -1).argmax(axis=1)
    return SomModel(codebook.copy(), _DECISION_LABEL_CODES[result])


def som_classify(model: SomModel, X) -> np.ndarray:
    """Label codes of the best-matching units for the rows of a raw (n, 3) input.

    Rows are unit-normalized first, so classification is invariant under
    positive scaling; an all-zero row is matched as-is.
    """
    X = l2_normalize_rows(np.asarray(X, dtype=float).reshape(-1, 3))
    return model.neuron_labels[nearest(X, model.codebook)]
