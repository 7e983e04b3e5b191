"""Confusion accounting, detection metrics, cross-validation, and reports.

Cross-validation is classifier-agnostic: a recipe (see
`classifiers.recipes`) trains one model per fold in one call and scores
each held-out fold as one batch of feature rows. Labels are carried as
int8 codes, indices into `CLASS_ORDER`; confusion matrices are indexed
the same way.

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

from . import BLAS_THREAD_VARS
from .errors import DnsIdsError, Empty, InvalidWidth, LengthMismatch, TooFewSamples
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
    accuracy_3class: float | None


@dataclass(frozen=True)
class EvalEntry:
    classifier: str
    metrics: MetricSet                    # pooled over all held-out folds
    confusion: ConfusionCounts
    fold_metrics: tuple[MetricSet, ...]
    train_time: float                     # wall seconds summed over folds
    train_mse: float | None = None
    test_mse: float | None = None


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


def _percent(num: int, den: int) -> float | None:
    return num / den * 100.0 if den else None


def metrics_from_confusion(c: ConfusionCounts) -> MetricSet:
    """Every rate in percent, None where its denominator is 0.

    Accuracy is (TP + TN) / all, a detection rate is its class's recall
    from the confusion row, the false alarm rate is FP / (FP + TN), and
    the three-class accuracy is the confusion matrix's trace over all.
    """
    m = c.matrix
    direct = CLASS_INDEX[ClassLabel.DIRECT_DOS]
    amp = CLASS_INDEX[ClassLabel.AMPLIFICATION]
    return MetricSet(
        accuracy=_percent(c.tp + c.tn, c.total),
        dr_direct=_percent(m[direct][direct], sum(m[direct])),
        dr_amplification=_percent(m[amp][amp], sum(m[amp])),
        far=_percent(c.fp, c.fp + c.tn),
        accuracy_3class=_percent(sum(m[i][i] for i in range(3)), sum(map(sum, m))),
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


def cross_validate(recipe, data: LabeledDataset, k: int = 10, seed: int = 0) -> EvalEntry:
    """Train on k-1 folds, score the held-out fold, pool all predictions.

    The recipe trains a model for every fold in one `train_folds` call,
    then scores each held-out fold in one `score` call. When the recipe
    returns raw outputs, the entry also carries the mean training MSE and
    the held-out MSE of those outputs against the target codes. A
    training error that names the fold it came from is raised with a
    `fold <i>: ` prefix.

    Fold membership derives from (seed, "kfold") and per-fold training
    seeds from (seed, recipe name, fold index), so repeated calls with
    the same arguments reproduce each other exactly.
    """
    plan = kfold_split(data, k, derive_seed(seed, "kfold"))
    held_outs = [np.array(held_out, dtype=np.intp) for held_out in plan.folds]
    train_sets = [data.subset(np.delete(np.arange(len(data)), held)) for held in held_outs]
    seeds = [derive_seed(seed, recipe.name, fold_idx) for fold_idx in range(len(held_outs))]
    try:
        trained = recipe.train_folds(train_sets, seeds)
    except DnsIdsError as exc:
        if exc.fold is None:
            raise
        raise type(exc)(f"fold {exc.fold}: {exc}") from exc

    fold_preds, fold_metrics = [], []
    test_sse, test_points = 0.0, 0
    for held, (model, _) in zip(held_outs, trained):
        test_set = data.subset(held)
        preds, outputs = recipe.score(model, test_set.X)
        if outputs is not None:
            test_sse += float(np.sum((outputs - test_set.targets()) ** 2))
            test_points += outputs.size
        fold_preds.append(preds)
        fold_metrics.append(metrics_from_confusion(confusion(preds, test_set.codes)))

    all_truth = data.codes[np.concatenate(held_outs)]
    pooled = confusion(np.concatenate(fold_preds), all_truth)
    reports = [report for _, report in trained]
    # Every held-out fold has a sample, so only a recipe without outputs
    # leaves `test_points` at 0.
    return EvalEntry(
        classifier=recipe.name,
        metrics=metrics_from_confusion(pooled),
        confusion=pooled,
        fold_metrics=tuple(fold_metrics),
        train_time=sum(report.wall_time for report in reports),
        train_mse=float(np.mean([r.final_mse for r in reports])) if test_points else None,
        test_mse=test_sse / test_points if test_points else None,
    )


# --- hidden-width sweep ------------------------------------------------------

SWEEP_MIN_WIDTH = 3
SWEEP_MAX_WIDTH = 21


@dataclass(frozen=True)
class SweepRow:
    width: int
    metrics: MetricSet
    train_mse: float | None
    test_mse: float | None


def _blas_threads() -> int:
    """The BLAS thread count the environment asks for: the largest positive
    integer among BLAS_THREAD_VARS, or 1 when none is set or none parses."""
    counts = []
    for var in BLAS_THREAD_VARS:
        try:
            counts.append(int(os.environ.get(var, "")))
        except ValueError:
            pass
    return max((c for c in counts if c > 0), default=1)


def sweep_workers(widths) -> int:
    """Worker processes a sweep over `widths` runs on: one per `_blas_threads()`
    usable CPUs (at least one), at most one per distinct width."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(max(1, cpus // _blas_threads()), len(set(widths)))


def _sweep_row(width: int, data: LabeledDataset, seed: int, k: int, train_config) -> SweepRow:
    from .classifiers.recipes import MlpRecipe

    entry = cross_validate(MlpRecipe(hidden=width, train_config=train_config), data,
                           k=k, seed=seed)
    return SweepRow(width, entry.metrics, entry.train_mse, entry.test_mse)


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
    Each inherits the caller's BLAS thread count, so the pool gets one
    worker per that many CPUs, as read from the environment. A caller
    whose numpy picked its own thread count, with none of the variables
    set, still oversubscribes the cores: run BLAS on one thread, as the
    CLI does.
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


def render_report(entries, folds: int) -> tuple[str, str]:
    """Render the comparison of cross-validated `entries` as (text table, CSV).

    The CSV's time column is blank, so that the file is a pure function
    of config and seed; measured times live only in the text table.
    """
    headers = ("classifier", "training_time_sec", "dr_direct_dos",
               "dr_amplification", "accuracy", "far")
    text_rows = [headers]
    for e in entries:
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
    for e in entries:
        csv_lines.append(",".join([
            e.classifier,
            ABSENT,
            _fmt(e.metrics.dr_direct, ".6f"),
            _fmt(e.metrics.dr_amplification, ".6f"),
            _fmt(e.metrics.accuracy, ".6f"),
            _fmt(e.metrics.far, ".6f"),
            _fmt(e.metrics.accuracy_3class, ".6f"),
            str(folds),
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
