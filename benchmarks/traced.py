"""Traced run of one `dnsids.cli` command.

    PYTHONPATH=src python3 benchmarks/traced.py --spans F pipeline --seed 42 --out D
    PYTHONPATH=src python3 benchmarks/traced.py --spans F sweep --seed 42 \
        --dataset D/dataset.csv --widths 3,5 --out D

Runs `dnsids.cli.main` on every argument but `--spans`, after replacing
the library functions that `dnsids.cli` imports with wrappers that
record a span around each call, plus counters taken from their results.
The command that runs is the CLI's own, so the trace follows
`cmd_pipeline` and `cmd_sweep` as they change. Each `cross_validate`
call gets a recipe proxy that records the folds. The recorder is
written as JSON to --spans when the command succeeds.

Span names are `<module>.<layer step>`. The root span is named after the
command. It starts before the library is imported, so the import shows
as its `setup.import` child. Bookkeeping for the counters runs in
`trace.count` spans, so it stays out of the root's self time.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import dnsids.cli as cli  # noqa: E402
from dnsids.simnet import Disposition  # noqa: E402

from spans import Recorder  # noqa: E402

_T_IMPORTED = time.perf_counter()


class TracedRecipe:
    """Recipe proxy: times each fold's training and classification.

    Attributes it does not define are the wrapped recipe's. It has
    `predict_codes` only when the wrapped recipe does, because
    `cross_validate` checks for it. Each fold's training span carries
    that fold's `TrainReport`. One fold's `classify` calls are recorded
    as a single span from the first call's start to the last call's end,
    so the span covers the per-sample loop.
    """

    def __init__(self, inner, rec: Recorder):
        self.inner = inner
        self.rec = rec
        self.reports = []
        self._loop: list[float] | None = None
        if hasattr(inner, "predict_codes"):
            self.predict_codes = self._predict_codes

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def _close_loop(self) -> None:
        if self._loop is not None:
            self.rec.add(f"evaluation.classify.{self.name}", *self._loop)
            self._loop = None

    def train(self, data, seed):
        self._close_loop()
        with self.rec.span(f"evaluation.train.{self.name}") as span:
            model, report = self.inner.train(data, seed)
        span.attrs.update(fold=len(self.reports), epochs_run=report.epochs_run,
                          converged=report.converged, final_mse=report.final_mse,
                          wall_time=report.wall_time)
        self.reports.append(report)
        if self.name == "som":
            self.rec.count("classifiers.som.presentations", report.epochs_run * len(data))
        return model, report

    def classify(self, model, x):
        start = self.rec.clock()
        label = self.inner.classify(model, x)
        end = self.rec.clock()
        if self._loop is None:
            self._loop = [start, end]
        self._loop[1] = end
        self.rec.count(f"classifiers.classify_calls.{self.name}")
        return label

    def _predict_codes(self, model, X):
        self._close_loop()
        with self.rec.span(f"evaluation.classify.{self.name}"):
            return self.inner.predict_codes(model, X)

    def finish(self) -> None:
        self._close_loop()
        if self.name == "bp":
            self.rec.count("classifiers.mlp.lm_epochs",
                           sum(r.epochs_run for r in self.reports))
            self.rec.count("classifiers.mlp.converged_folds",
                           sum(r.converged for r in self.reports))


def _traced(rec: Recorder, span: str, fn, tally=None):
    """`fn` inside a span; `tally(result, bound_args)` then updates counters."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(span):
            result = fn(*args, **kwargs)
        if tally is not None:
            with rec.span("trace.count"):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tally(result, bound.arguments)
        return result
    return wrapper


def instrument(rec: Recorder) -> None:
    """Swap the library names `dnsids.cli` calls for traced wrappers."""

    def simulated(trace, _):
        rec.count("simnet.events", len(trace.events))
        rec.count("simnet.drops", sum(1 for e in trace.events
                                      if e.disposition is Disposition.DROPPED_AT_QUEUE))

    def swept(rows, args):
        rec.count("evaluation.sweep_fits", len(rows) * args["k"])

    wrappers = {
        "parse_pipeline_config": ("config.parse", None),
        "run": ("simnet.run", simulated),
        "write_trace": ("simnet.write_trace",
                        lambda text, _: rec.count("simnet.trace_bytes", len(text))),
        "read_trace": ("simnet.read_trace", None),
        "window_trace": ("preproc.window", None),
        "label_windows": ("preproc.window",
                          lambda part, _: rec.count("preproc.windows", len(part))),
        "merge_datasets": ("preproc.dataset_io", None),
        "write_dataset": ("preproc.dataset_io", None),
        "read_dataset": ("preproc.dataset_io", None),
        "kfold_split": ("evaluation.kfold", None),
        "render_report": ("evaluation.report", None),
        "sweep_hidden_neurons": ("evaluation.sweep", swept),
    }
    for attr, (span, tally) in wrappers.items():
        setattr(cli, attr, _traced(rec, span, getattr(cli, attr), tally))

    real_cross_validate = cli.cross_validate

    @functools.wraps(real_cross_validate)
    def cross_validate(recipe, *args, **kwargs):
        proxy = TracedRecipe(recipe, rec)
        with rec.span(f"evaluation.cv.{recipe.name}"):
            entry = real_cross_validate(proxy, *args, **kwargs)
            proxy.finish()
        return entry

    cli.cross_validate = cross_validate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False,
                                     usage="%(prog)s --spans FILE <dnsids command> [args]")
    parser.add_argument("--spans", required=True, help="where to write the recorder JSON")
    args, cli_argv = parser.parse_known_args(argv)

    rec = Recorder()
    root = rec.open(cli_argv[0] if cli_argv else "cli", start=_T_START)
    rec.add("setup.import", _T_START, _T_IMPORTED)
    instrument(rec)
    code = cli.main(cli_argv)
    rec.close(root)
    if code == 0:
        Path(args.spans).write_text(json.dumps(rec.to_dict()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
