"""Confusion accounting, detection metrics, cross-validation, and reports.

Cross-validation is classifier-agnostic: a recipe trains a model on a
dataset and predicts the label codes of a batch of feature rows, one
batch per held-out fold. Labels are carried as int8 codes, indices into
`CLASS_ORDER`; confusion matrices are indexed the same way.

The binarized view treats either attack class as the positive case: an
attack window predicted as the wrong attack class still counts as a true
positive there, but as a miss in that class's detection-rate row. Fold
results are pooled (counts summed, then metrics computed) because
per-fold attack counts can be tiny.

Metrics with a zero denominator are reported as absent, never as 0 or
100; absent values render as the "—" placeholder.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .classifiers.base import nearest_code_labels
from .errors import (DnsIdsError, Empty, InvalidWidth, LengthMismatch, TooFewSamples,
                     UndefinedMetric)
from .preproc import CLASS_INDEX, CLASS_ORDER, ClassLabel, LabeledDataset
from .seeding import derive_seed

ABSENT = "—"


@dataclass(frozen=True)
class ConfusionCounts:
    matrix: tuple[tuple[int, ...], ...]   # [true class][predicted class]
    tp: int   # attack predicted as (any) attack
    tn: int   # normal predicted normal
    fp: int   # normal predicted as attack
    fn: int   # attack predicted normal

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricSet:
    accuracy: float | None
    dr_direct: float | None
    dr_amplification: float | None
    far: float | None


@dataclass(frozen=True)
class EvalEntry:
    classifier: str
    metrics: MetricSet                    # pooled over all held-out folds
    accuracy_3class: float | None
    confusion: ConfusionCounts
    fold_metrics: tuple[MetricSet, ...]
    train_time: float                     # wall seconds summed over folds
    train_mse: float | None = None
    test_mse: float | None = None


@dataclass(frozen=True)
class EvalReport:
    entries: tuple[EvalEntry, ...]
    dataset_fingerprint: str
    seed: int
    folds: int
    stratified: bool


def confusion(predictions, truth) -> ConfusionCounts:
    """Count per-class and binarized outcomes of label-code predictions."""
    predictions = np.asarray(predictions, dtype=np.intp).reshape(-1)
    truth = np.asarray(truth, dtype=np.intp).reshape(-1)
    if len(predictions) != len(truth):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(truth)} truths")
    if len(predictions) == 0:
        raise Empty("no samples to score")
    matrix = np.bincount(3 * truth + predictions, minlength=9).reshape(3, 3)
    normal = CLASS_INDEX[ClassLabel.NORMAL]
    tn = int(matrix[normal, normal])
    fp = int(matrix[normal].sum()) - tn
    fn = int(matrix[:, normal].sum()) - tn
    tp = len(truth) - tn - fp - fn
    return ConfusionCounts(tuple(tuple(row) for row in matrix.tolist()), tp, tn, fp, fn)


def accuracy(c: ConfusionCounts) -> float:
    """Binarized accuracy percentage: (TP + TN) / all."""
    if c.total == 0:
        raise UndefinedMetric("no samples")
    return (c.tp + c.tn) / c.total * 100.0


def accuracy_3class(c: ConfusionCounts) -> float:
    total = sum(sum(row) for row in c.matrix)
    if total == 0:
        raise UndefinedMetric("no samples")
    correct = sum(c.matrix[i][i] for i in range(3))
    return correct / total * 100.0


def detection_rate(c: ConfusionCounts, label: ClassLabel) -> float:
    """Per-class recall percentage from that class's confusion row."""
    row = c.matrix[CLASS_INDEX[label]]
    row_total = sum(row)
    if row_total == 0:
        raise UndefinedMetric(f"no samples of class {label.value}")
    return row[CLASS_INDEX[label]] / row_total * 100.0


def far(c: ConfusionCounts) -> float:
    """False alarm rate percentage: FP / (FP + TN)."""
    if c.fp + c.tn == 0:
        raise UndefinedMetric("no normal samples")
    return c.fp / (c.fp + c.tn) * 100.0


def metrics_from_confusion(c: ConfusionCounts) -> MetricSet:
    """Compute all metrics, mapping undefined ones to None."""
    def optional(fn, *args):
        try:
            return fn(*args)
        except UndefinedMetric:
            return None

    return MetricSet(
        accuracy=optional(accuracy, c),
        dr_direct=optional(detection_rate, c, ClassLabel.DIRECT_DOS),
        dr_amplification=optional(detection_rate, c, ClassLabel.AMPLIFICATION),
        far=optional(far, c),
    )


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[tuple[int, ...], ...]
    stratified: bool


def kfold_split(data: LabeledDataset, k: int = 10, seed: int = 0) -> FoldPlan:
    """Deterministic stratified split into k folds of near-equal size.

    Stratification deals each class's shuffled samples round-robin so
    per-fold class counts differ from exact proportionality by at most
    one sample. When some class is too small for that (fewer than
    k / number-of-classes samples), the split falls back to a plain
    shuffled partition and flags it.
    """
    n = len(data)
    if n < k:
        raise TooFewSamples(f"need at least {k} samples, have {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    by_class = [np.flatnonzero(data.codes == code) for code in range(len(CLASS_ORDER))]
    by_class = [idx for idx in by_class if len(idx)]
    stratified = all(len(idx) * len(CLASS_ORDER) >= k for idx in by_class)
    if stratified:
        for idx in by_class:
            rng.shuffle(idx)
        order = np.concatenate(by_class)
    else:
        order = np.arange(n)
        rng.shuffle(order)
    # Position p of the dealt order goes to fold p % k.
    return FoldPlan(tuple(tuple(np.sort(order[f::k]).tolist()) for f in range(k)), stratified)


def _train_fold(recipe, fold_idx: int, train_set: LabeledDataset, seed: int):
    try:
        return recipe.train(train_set, seed)
    except DnsIdsError as exc:
        raise type(exc)(f"fold {fold_idx}: {exc}") from exc


def cross_validate(recipe, data: LabeledDataset, k: int = 10, seed: int = 0) -> EvalEntry:
    """Train on k-1 folds, score the held-out fold, pool all predictions.

    A recipe with `predict_codes` is scored on one forward pass per
    held-out fold: its labels are the nearest target codes to those
    outputs, as its `predict` would return.

    Fold membership derives from (seed, "kfold") and per-fold training
    seeds from (seed, recipe name, fold index), so repeated calls with
    the same arguments reproduce each other exactly. A recipe with
    `train_folds` trains all folds in one call; otherwise each fold is
    trained just before it is scored.
    """
    plan = kfold_split(data, k, derive_seed(seed, "kfold"))
    held_outs = [np.array(held_out, dtype=np.intp) for held_out in plan.folds]
    fold_preds = []
    fold_metrics = []
    train_time = 0.0
    train_mses = []
    test_sse = 0.0
    test_points = 0
    has_codes = hasattr(recipe, "predict_codes")

    train_sets = []
    for held in held_outs:
        keep = np.ones(len(data), dtype=bool)
        keep[held] = False
        train_sets.append(data.subset(keep))
    seeds = [derive_seed(seed, recipe.name, fold_idx) for fold_idx in range(len(plan.folds))]
    if hasattr(recipe, "train_folds"):
        trained = recipe.train_folds(train_sets, seeds)
    else:
        trained = (_train_fold(recipe, fold_idx, train_set, fold_seed)
                   for fold_idx, (train_set, fold_seed) in enumerate(zip(train_sets, seeds)))

    for held, (model, report) in zip(held_outs, trained):
        test_set = data.subset(held)
        train_time += report.wall_time
        train_mses.append(report.final_mse)

        X = test_set.X
        if has_codes:
            outputs = recipe.predict_codes(model, X)
            preds = nearest_code_labels(outputs)
            test_sse += float(np.sum((outputs - test_set.targets()) ** 2))
            test_points += outputs.size
        else:
            preds = recipe.predict(model, X)
        fold_preds.append(preds)
        fold_metrics.append(metrics_from_confusion(confusion(preds, test_set.codes)))

    all_truth = data.codes[np.concatenate(held_outs)]
    pooled = confusion(np.concatenate(fold_preds), all_truth)
    try:
        acc3 = accuracy_3class(pooled)
    except UndefinedMetric:
        acc3 = None
    return EvalEntry(
        classifier=recipe.name,
        metrics=metrics_from_confusion(pooled),
        accuracy_3class=acc3,
        confusion=pooled,
        fold_metrics=tuple(fold_metrics),
        train_time=train_time,
        train_mse=float(np.mean(train_mses)) if has_codes else None,
        test_mse=test_sse / test_points if has_codes and test_points else None,
    )


# --- hidden-width sweep ------------------------------------------------------

SWEEP_MIN_WIDTH = 3
SWEEP_MAX_WIDTH = 21


@dataclass(frozen=True)
class SweepRow:
    width: int
    metrics: MetricSet
    accuracy_3class: float | None
    train_mse: float | None
    test_mse: float | None


def sweep_workers(widths) -> int:
    """Worker processes a sweep over `widths` runs on: one per usable CPU,
    at most one per distinct width."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, len(set(widths)))


def _sweep_row(width: int, data: LabeledDataset, seed: int, k: int, train_config) -> SweepRow:
    from .classifiers.recipes import MlpRecipe

    entry = cross_validate(MlpRecipe(hidden=width, train_config=train_config), data,
                           k=k, seed=seed)
    return SweepRow(width, entry.metrics, entry.accuracy_3class,
                    entry.train_mse, entry.test_mse)


def sweep_hidden_neurons(data: LabeledDataset, widths, seed: int, *, k: int = 10,
                         train_config=None) -> tuple[SweepRow, ...]:
    """Cross-validate the feed-forward network at each hidden width.

    Each distinct width is cross-validated once, in one of
    `sweep_workers(widths)` worker processes, and the rows come back in
    the order of `widths`. A width's result depends only on its own
    seeds, so the rows are the same for any worker count. The widest
    width is submitted first, because it takes longest. When widths
    fail, the error raised is that of the first failing one in
    `widths`.

    The workers are forked, so they skip re-importing the library; a
    fork-context pool forks them all before it starts its own threads.
    Each inherits the caller's BLAS thread count, so a caller whose BLAS
    runs several threads oversubscribes the cores: run BLAS on one
    thread, as the CLI does.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from .classifiers.mlp import MlpTrainConfig

    widths = list(widths)
    for w in widths:
        if not SWEEP_MIN_WIDTH <= w <= SWEEP_MAX_WIDTH:
            raise InvalidWidth(
                f"sweep widths must be in {SWEEP_MIN_WIDTH}..{SWEEP_MAX_WIDTH}, got {w}")
    if not widths:
        return ()
    cfg = train_config or MlpTrainConfig()
    pool = ProcessPoolExecutor(sweep_workers(widths),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {w: pool.submit(_sweep_row, w, data, seed, k, cfg)
                   for w in sorted(set(widths), reverse=True)}
        return tuple(futures[w].result() for w in widths)
    finally:
        pool.shutdown(cancel_futures=True)


# --- rendering ---------------------------------------------------------------

REPORT_CSV_HEADER = ("classifier,training_time_sec,dr_direct,dr_amplification,"
                     "accuracy,far,accuracy_3class,folds")
SWEEP_CSV_HEADER = "width,dr_direct,dr_amp,accuracy,far,train_mse,test_mse"


def _fmt(value: float | None, spec: str) -> str:
    return ABSENT if value is None else format(value, spec)


def render_report(report: EvalReport) -> tuple[str, str]:
    """Render the comparison as (text table, CSV).

    The CSV's time column is blank, so that the file is a pure function
    of config and seed; measured times live only in the text table.
    """
    headers = ("classifier", "training_time_sec", "dr_direct_dos",
               "dr_amplification", "accuracy", "far")
    text_rows = [headers]
    for e in report.entries:
        text_rows.append((
            e.classifier,
            _fmt(e.train_time, ".2f"),
            _fmt(e.metrics.dr_direct, ".2f"),
            _fmt(e.metrics.dr_amplification, ".2f"),
            _fmt(e.metrics.accuracy, ".2f"),
            _fmt(e.metrics.far, ".2f"),
        ))
    widths = [max(len(row[i]) for row in text_rows) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(text_rows):
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0]
        lines.append("  ".join(cells).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    text = "\n".join(lines) + "\n"

    csv_lines = [REPORT_CSV_HEADER]
    for e in report.entries:
        csv_lines.append(",".join([
            e.classifier,
            ABSENT,
            _fmt(e.metrics.dr_direct, ".6f"),
            _fmt(e.metrics.dr_amplification, ".6f"),
            _fmt(e.metrics.accuracy, ".6f"),
            _fmt(e.metrics.far, ".6f"),
            _fmt(e.accuracy_3class, ".6f"),
            str(report.folds),
        ]))
    return text, "\n".join(csv_lines) + "\n"


def parse_report_csv(text: str) -> list[dict]:
    """Read back a rendered report CSV; absent cells come back as None."""
    rows = []
    saw_header = False
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if not saw_header:
            saw_header = True
            continue
        cells = line.split(",")
        keys = REPORT_CSV_HEADER.split(",")
        row = dict(zip(keys, cells))
        for key in ("training_time_sec", "dr_direct", "dr_amplification",
                    "accuracy", "far", "accuracy_3class"):
            row[key] = None if row[key] == ABSENT else float(row[key])
        row["folds"] = int(row["folds"])
        rows.append(row)
    return rows


def render_sweep_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.width),
            _fmt(r.metrics.dr_direct, ".6f"),
            _fmt(r.metrics.dr_amplification, ".6f"),
            _fmt(r.metrics.accuracy, ".6f"),
            _fmt(r.metrics.far, ".6f"),
            _fmt(r.train_mse, ".6e"),
            _fmt(r.test_mse, ".6e"),
        ]))
    return "\n".join(lines) + "\n"
