"""Confusion accounting, detection metrics, cross-validation, and reports.

Cross-validation is classifier-agnostic: a recipe (see
`classifiers.base`) trains one model per fold in one call and scores
each held-out fold as one batch of feature rows. The hidden-width sweep
takes the feed-forward recipe from its caller and cross-validates a copy
of it at each width. Labels are carried as int8 codes, indices into
`CLASS_ORDER`; confusion matrices are indexed the same way.

Accuracy and the false alarm rate treat either attack class as the
positive case: an attack window predicted as the wrong attack class still
counts as correct there, but as a miss in that class's detection-rate
row. All folds' held-out predictions are pooled into one confusion
matrix, because per-fold attack counts can be tiny.

Metrics with a zero denominator are reported as absent, never as 0 or
100; absent values render as the "—" placeholder.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import BLAS_THREAD_VARS
from .errors import DnsIdsError, LengthMismatch, NumericFault, TooFewSamples, WorkerLost
from .preproc import CLASS_INDEX, CLASS_ORDER, ClassLabel, LabeledDataset
from .seeding import derive_seed

ABSENT = "—"


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
    train_time: float                     # wall seconds summed over folds
    train_mse: float | None = None
    test_mse: float | None = None


def _percent(num: int, den: int) -> float | None:
    return num / den * 100.0 if den else None


def pooled_metrics(predictions, truth) -> MetricSet:
    """Every rate of label-code predictions against the true codes, in
    percent, None where its denominator is 0, from their 3x3 confusion
    matrix [true class][predicted class].

    Accuracy is all windows but false alarms (normal predicted attack) and
    misses (attack predicted normal) over all, the false alarm rate is the
    false alarms over the normal row, a detection rate is its class's
    diagonal over its row, and the three-class accuracy is the trace over all.
    """
    predictions = np.asarray(predictions, dtype=np.intp).reshape(-1)
    truth = np.asarray(truth, dtype=np.intp).reshape(-1)
    if len(predictions) != len(truth):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(truth)} truths")
    m = np.bincount(3 * truth + predictions, minlength=9).reshape(3, 3).tolist()
    normal, direct, amp = (CLASS_INDEX[c] for c in (ClassLabel.NORMAL, ClassLabel.DIRECT_DOS,
                                                    ClassLabel.AMPLIFICATION))
    total = len(truth)
    false_alarms = sum(m[normal]) - m[normal][normal]
    misses = sum(row[normal] for row in m) - m[normal][normal]
    return MetricSet(
        accuracy=_percent(total - false_alarms - misses, total),
        dr_direct=_percent(m[direct][direct], sum(m[direct])),
        dr_amplification=_percent(m[amp][amp], sum(m[amp])),
        far=_percent(false_alarms, sum(m[normal])),
        accuracy_3class=_percent(sum(m[i][i] for i in range(3)), total),
    )


def smallest_class(data: LabeledDataset) -> int:
    """Rows of the smallest class present in `data`."""
    counts = np.bincount(data.codes, minlength=len(CLASS_ORDER))
    return int(counts[counts > 0].min(initial=len(data)))


def stratifies(data: LabeledDataset, k: int) -> bool:
    """Whether `kfold_split` stratifies `data` into k folds: the number of
    classes times the rows of the smallest class is at least k."""
    return len(CLASS_ORDER) * smallest_class(data) >= k


def kfold_split(data: LabeledDataset, k: int = 10, seed: int = 0) -> tuple[np.ndarray, ...]:
    """Deterministic split into k folds of near-equal size, each a sorted
    array of row indices.

    When `stratifies(data, k)`, each class's shuffled rows are dealt
    round-robin, so per-fold class counts differ from exact
    proportionality by at most one row; otherwise the split is a plain
    shuffled partition.
    """
    n = len(data)
    if n < k:
        raise TooFewSamples(f"need at least {k} samples, have {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    if stratifies(data, k):
        # Shuffling a class with no rows draws nothing from `rng`.
        by_class = [np.flatnonzero(data.codes == code) for code in range(len(CLASS_ORDER))]
        for idx in by_class:
            rng.shuffle(idx)
        order = np.concatenate(by_class)
    else:
        order = rng.permutation(n)
    # Position p of the dealt order goes to fold p % k.
    return tuple(np.sort(order[f::k]) for f in range(k))


@contextmanager
def numeric_faults(classifier: str, fold: int | None = None):
    """Train or score `classifier` with numpy's overflow, division-by-zero
    and invalid-operation traps raising.

    A fault leaves as a NumericFault (exit 4) that names the classifier
    and carries the fold: `fold`, or the one `train_each` tagged it with.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        fault = NumericFault(f"{classifier}: floating-point fault: {exc}")
        fault.fold = getattr(exc, "fold", fold)
        raise fault from None


def cross_validate(recipe, data: LabeledDataset, k: int = 10, seed: int = 0) -> EvalEntry:
    """Train on k-1 folds, score the held-out fold, pool all predictions.

    The recipe trains a model for every fold in one `train_folds` call,
    then scores each held-out fold in one `score` call, both under
    `numeric_faults`. When the recipe returns raw outputs, the entry also
    carries the mean training MSE and the held-out MSE of those outputs
    against the target codes. An error that names the fold it came from
    is raised with a `fold <i>: ` prefix.

    Fold membership derives from (seed, "kfold") and per-fold training
    seeds from (seed, recipe name, fold index), so repeated calls with
    the same arguments reproduce each other exactly.
    """
    held_outs = kfold_split(data, k, derive_seed(seed, "kfold"))
    train_sets = [data.subset(np.delete(np.arange(len(data)), held)) for held in held_outs]
    seeds = [derive_seed(seed, recipe.name, fold_idx) for fold_idx in range(len(held_outs))]
    targets = data.targets()
    fold_preds = []
    test_sse, test_points = 0.0, 0
    try:
        with numeric_faults(recipe.name):
            trained = recipe.train_folds(train_sets, seeds)
        for fold, (held, (model, _)) in enumerate(zip(held_outs, trained)):
            with numeric_faults(recipe.name, fold):
                preds, outputs = recipe.score(model, data.X[held])
                if outputs is not None:
                    test_sse += float(np.sum((outputs - targets[held]) ** 2))
                    test_points += outputs.size
            fold_preds.append(preds)
    except DnsIdsError as exc:
        if exc.fold is None:
            raise
        raise type(exc)(f"fold {exc.fold}: {exc}") from exc

    reports = [report for _, report in trained]
    # Every held-out fold has a sample, so only a recipe without outputs
    # leaves `test_points` at 0.
    return EvalEntry(
        classifier=recipe.name,
        metrics=pooled_metrics(np.concatenate(fold_preds),
                               data.codes[np.concatenate(held_outs)]),
        train_time=sum(report.wall_time for report in reports),
        train_mse=float(np.mean([r.final_mse for r in reports])) if test_points else None,
        test_mse=test_sse / test_points if test_points else None,
    )


# --- hidden-width sweep ------------------------------------------------------

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


def sweep_hidden_neurons(data: LabeledDataset, recipe, widths, seed: int, *,
                         k: int = 10) -> tuple[EvalEntry, ...]:
    """Cross-validate the feed-forward `recipe` at each hidden width.

    Each distinct width is cross-validated once, as a copy of `recipe`
    with that `hidden` width, in one of `sweep_workers(widths)` worker
    processes, and the entries come back in the order of `widths`. Every
    copy is built before the pool starts, so a width `hidden` refuses
    raises InvalidConfig, for the first such in `widths`, forking none. A
    width's result depends only on its own seeds, so the entries are the
    same for any worker count. The widest width is submitted first,
    because it takes longest. When widths fail, the error raised is that
    of the first failing one in `widths`. A worker process that dies
    takes the pool with it, and fails as WorkerLost naming every width
    left without a result.

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
    from concurrent.futures.process import BrokenProcessPool

    widths = list(widths)
    recipes = {w: replace(recipe, hidden=w) for w in widths}
    if not recipes:
        return ()
    pool = ProcessPoolExecutor(sweep_workers(widths),
                               mp_context=multiprocessing.get_context("fork"))
    futures = {}
    try:
        for w in sorted(recipes, reverse=True):
            futures[w] = pool.submit(cross_validate, recipes[w], data, k, seed)
        return tuple(futures[w].result() for w in widths)
    except BrokenProcessPool:
        # A width not yet submitted when the pool broke has no future.
        lost = [w for w in recipes if w not in futures
                or isinstance(futures[w].exception(), BrokenProcessPool)]
        raise WorkerLost("a sweep worker process ended; no result for widths "
                         + ",".join(map(str, lost))) from None
    finally:
        pool.shutdown(cancel_futures=True)


# --- rendering ---------------------------------------------------------------

REPORT_CSV_HEADER = ("classifier,training_time_sec,dr_direct,dr_amplification,"
                     "accuracy,far,accuracy_3class,folds")
SWEEP_CSV_HEADER = "width,dr_direct,dr_amp,accuracy,far,train_mse,test_mse"


def _fmt(value: float | None, spec: str) -> str:
    return ABSENT if value is None else format(value, spec)


def _rate_cells(metrics, spec: str = ".6f") -> list[str]:
    """The cells of the two detection rates, accuracy and false-alarm rate;
    the default spec is how both CSVs print them."""
    return [_fmt(rate, spec) for rate in (metrics.dr_direct, metrics.dr_amplification,
                                          metrics.accuracy, metrics.far)]


def render_report(entries, folds: int) -> tuple[str, str]:
    """Render the comparison of cross-validated `entries` as (text table, CSV).

    The CSV's time column is blank, so that the file is a pure function
    of config and seed; measured times live only in the text table.
    """
    headers = ("classifier", "training_time_sec", "dr_direct_dos",
               "dr_amplification", "accuracy", "far")
    text_rows = [headers]
    for e in entries:
        text_rows.append((e.classifier, _fmt(e.train_time, ".2f"),
                          *_rate_cells(e.metrics, ".2f")))
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
            *_rate_cells(e.metrics),
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


def render_sweep_csv(widths, entries) -> str:
    """The sweep CSV: one row per width, from the entry at its position."""
    lines = [SWEEP_CSV_HEADER]
    for w, e in zip(widths, entries):
        lines.append(",".join([
            str(w),
            *_rate_cells(e.metrics),
            _fmt(e.train_mse, ".6e"),
            _fmt(e.test_mse, ".6e"),
        ]))
    return "\n".join(lines) + "\n"
