"""Command-line front end wiring the pipeline stages together.

Subcommands: simulate, features, train, evaluate, sweep, pipeline. Every
output is a pure function of the config file and master seed; outputs
embed both in a header comment. `pipeline` hands each stage's result to
the next in memory: it windows each trace as soon as its file is
written and cross-validates the dataset it wrote, reading neither back.
The other commands read their inputs from files, each config, dataset
and trace file through one reader that decodes it READ_CHUNK bytes at a
time. Trace and dataset files are parsed as they are read, and a
malformed one fails naming the file. Logs go to stderr, data to files.
Exit codes: 0 success, 2 configuration error (including an input file
that cannot be read or an output that cannot be written), 3 parse error
(including an input file that is not UTF-8), 4 training error (including
a dataset with no samples and a sweep worker process that dies); each
failure writes one JSON line to stderr.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set. `sweep` runs one worker process per that many
CPUs, so its workers' BLAS threads do not oversubscribe the cores. The
least-squares steps also round differently with the BLAS thread count,
so with the default `sweep.csv` does not depend on the number of cores.
"""

from __future__ import annotations

import argparse
import codecs
import json
import logging
import os
import sys
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import BLAS_THREAD_VARS

# Before the package imports below load numpy, which reads these once.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from . import errors, simnet  # noqa: E402
from .classifiers.store import save_model  # noqa: E402
from .config import (CLASSIFIERS, DEFAULT_CONFIG, MAX_RUNS, PipelineConfig,  # noqa: E402
                     parse_pipeline_config, validate_for_training)
from .evaluation import (cross_validate, numeric_faults, render_report,  # noqa: E402
                         render_sweep_csv, smallest_class, sweep_hidden_neurons,
                         sweep_workers)
# Unused here; benchmarks/traced.py wraps it by this name until ROADMAP item 5 retires that.
from .evaluation import kfold_split  # noqa: E402, F401
from .preproc import (CLASS_ORDER, LabeledDataset, label_windows,  # noqa: E402
                      merge_datasets, read_dataset, window_trace, write_dataset)
from .seeding import derive_seed, text_digest  # noqa: E402
from .simnet import PacketTrace, read_trace, run, write_trace  # noqa: E402

log = logging.getLogger("dnsids")

WRITE_CHUNK = 1 << 20   # characters encoded per write, so no file is encoded whole
READ_CHUNK = 1 << 20    # bytes read and decoded per piece of an input file


@contextmanager
def _input_errors(path, what: str):
    """Raise a failure to read an input file as the CLI's error for it.

    A path that cannot be read as a file (missing, a directory) fails as
    a ConfigError; bytes that are not UTF-8 fail as a ParseError naming
    the offset of the first bad byte.
    """
    try:
        yield
    except OSError as exc:
        raise errors.ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise errors.ParseError(
            f"{what} {path} is not UTF-8 text (byte {exc.start})") from None


def _decoded_pieces(file):
    """The text of a binary file, decoded as UTF-8 one READ_CHUNK of bytes
    at a time. A byte that is not UTF-8 raises UnicodeDecodeError with
    `start` at its offset in the file."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0      # bytes of the file before `data`
    while True:
        data = file.read(READ_CHUNK)
        # The decoder holds back a character cut at the end of the last
        # piece and counts its error offsets from those bytes.
        held = len(decoder.getstate()[0])
        try:
            text = decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:
            exc.start += offset - held
            raise
        yield text
        if not data:
            return
        offset += len(data)


def _read_file(path, what: str, parse):
    """`parse` applied to the text of the input file at `path`, handed over
    as `_decoded_pieces` reads it, so the file is held whole only if
    `parse` joins it. Reading fails as `_input_errors` says, and a
    ParseError is re-raised naming the file."""
    with _input_errors(path, what), open(path, "rb") as file:
        try:
            return parse(_decoded_pieces(file))
        except errors.ParseError as exc:
            raise errors.ParseError(f"{what} {path}: {exc}") from None


def _joined(pieces) -> str:
    """The text the pieces join to. It is held whole, so it is held to
    the bound on a line: past simnet.MAX_LINE_CHARS characters it fails as
    a ParseError naming the line the bound falls in."""
    held: list[str] = []
    size = 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size > simnet.MAX_LINE_CHARS:
            head = "".join(held)[:simnet.MAX_LINE_CHARS + 1]
            raise errors.ParseError(f"longer than {simnet.MAX_LINE_CHARS} characters",
                                    line=len(head.splitlines()))
    return "".join(held)


def _write_output(path: Path, pieces: Iterable[str]) -> Path:
    """Write the pieces of text, one after another, to an output file,
    creating its directory first.

    Each piece is taken from `pieces` only when the one before it is
    written, so a generator can hand over a long text one piece at a time.

    A directory that cannot be created or a file that cannot be written
    fails as a ConfigError naming the path.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as file:
            for text in pieces:
                for i in range(0, len(text), WRITE_CHUNK):
                    file.write(text[i:i + WRITE_CHUNK])
    except OSError as exc:
        raise errors.ConfigError(f"cannot write output {path}: {exc.strerror}") from None
    return path


def _load_config(path: str | None, seed_override: int | None) -> tuple[PipelineConfig, str]:
    if path is None:
        text = DEFAULT_CONFIG
    else:
        # Line ends as text mode reads them, so they do not move the digest.
        text = _read_file(path, "config file", _joined)
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    cfg = parse_pipeline_config(text)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg, text_digest(text)


# --- stages (shared by the individual commands and `pipeline`) ---------------

def _simulated(cfg: PipelineConfig, out: Path, digest: str, each) -> list:
    """Run every scenario, write each trace file, and return `each(path, trace)`
    for every run in order.

    One trace is alive at a time, and released before the next run
    starts, so peak memory follows the largest trace, not the number of
    runs. Its text is rendered and written one block of rows at a time,
    so at most one block of it is held, never the whole text.
    """
    if not cfg.scenarios:
        raise errors.ConfigError("no [scenario.*] sections to simulate")
    trace_dir = out / "traces"
    stamp = f"#master_seed={cfg.seed}\n#config_digest={digest}\n"
    results = []
    for block in cfg.scenarios:
        for r in range(block.runs):
            trace = run(block.config, derive_seed(cfg.seed, "simulate", block.name, r))
            path = _write_output(trace_dir / f"{block.name}-{r:03d}.trace",
                                 _trace_pieces(trace, stamp))
            log.info("simulated %s: %d events, %d dropped, max queue occupancy %d",
                     path.name, len(trace), trace.drops, trace.max_queue_occupancy)
            results.append(each(path, trace))
            del trace
    return results


def _trace_pieces(trace: PacketTrace, stamp: str):
    """The stamp, then the trace's text one block of RENDER_BLOCK rows at a
    time, each rendered only when it is asked for; an empty trace still
    gets the call that renders its header."""
    yield stamp
    block = simnet.RENDER_BLOCK
    for lo in range(0, max(len(trace), 1), block):
        yield write_trace(trace, lo, lo + block)


def do_simulate(cfg: PipelineConfig, out: Path, digest: str) -> list[Path]:
    return _simulated(cfg, out, digest, lambda path, trace: path)


def _labeled(trace: PacketTrace, path: Path) -> LabeledDataset:
    window_len = trace.config.window_len
    return label_windows(window_trace(trace, window_len), trace.truth, window_len,
                         provenance=(path.name,))


def _write_features(parts: list[tuple[Path, LabeledDataset]], out: Path, seed: int,
                    digest: str) -> tuple[LabeledDataset, str]:
    """Merge per-trace datasets in trace file name order and write dataset.csv.

    Returns the merged dataset and its fingerprint, the digest of the
    dataset text below the seed and config stamp.
    """
    dataset = merge_datasets([part for _, part in sorted(parts, key=lambda p: p[0])])
    text = write_dataset(dataset)
    path = _write_output(out / "dataset.csv",
                         (f"# master_seed={seed}\n# config_digest={digest}\n", text))
    log.info("wrote %s: %d windows from %d traces", path, len(dataset), len(parts))
    return dataset, text_digest(text)


def do_features(trace_paths: list[Path], out: Path, seed: int, digest: str) -> None:
    if not trace_paths:
        raise errors.ConfigError("no trace files given")
    if len(trace_paths) > MAX_RUNS:
        # The dataset's provenance line names every one of them.
        raise errors.ConfigError(f"at most {MAX_RUNS} trace files, got {len(trace_paths)}")
    parts = [(path, _labeled(_read_file(path, "trace file", read_trace), path))
             for path in trace_paths]
    _write_features(parts, out, seed, digest)


def _read_dataset_file(path) -> LabeledDataset:
    """Parse one dataset file; a dataset with no samples fails as Empty."""
    data = _read_file(path, "dataset", read_dataset)
    if len(data) == 0:
        raise errors.Empty(f"dataset {path} has no samples")
    return data


def _warn_unless_stratified(data: LabeledDataset, k: int) -> None:
    """Log a WARNING when `kfold_split` cannot stratify `data` into k folds."""
    smallest = smallest_class(data)
    if len(CLASS_ORDER) * smallest < k:
        log.warning("cross-validation is not stratified: the smallest class has %d rows, "
                    "too few for %d folds; the folds are a plain shuffle", smallest, k)


def do_evaluate(data: LabeledDataset, fingerprint: str, cfg: PipelineConfig, names,
                out: Path, digest: str) -> tuple[Path, Path]:
    """Cross-validate the named classifiers on `data` and write the report.

    `fingerprint` identifies the dataset in the report's header comment.
    """
    _warn_unless_stratified(data, cfg.cv_folds)
    entries = []
    for recipe in (getattr(cfg, name) for name in names):
        log.info("cross-validating %s (%d folds)", recipe.name, cfg.cv_folds)
        entries.append(cross_validate(recipe, data, k=cfg.cv_folds, seed=cfg.seed))
    text, csv = render_report(entries, cfg.cv_folds)
    comment = (f"# master_seed={cfg.seed} config_digest={digest} "
               f"dataset={fingerprint} folds={cfg.cv_folds}\n")
    csv_path = _write_output(out / "report.csv", (comment, csv))
    txt_path = _write_output(out / "report.txt", (comment, text))
    sys.stdout.write(text)
    return csv_path, txt_path


# --- commands ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg, digest = _load_config(args.config, args.seed)
    do_simulate(cfg, Path(args.out), digest)
    return 0


def cmd_features(args) -> int:
    cfg, digest = _load_config(args.config, args.seed)
    trace_dir = Path(args.traces)
    if not trace_dir.is_dir():
        raise errors.ConfigError(f"trace directory not found: {trace_dir}")
    paths = sorted(trace_dir.glob("*.trace"))
    do_features(paths, Path(args.out), cfg.seed, digest)
    return 0


def cmd_train(args) -> int:
    cfg, digest = _load_config(args.config, args.seed)
    data = _read_dataset_file(args.dataset)
    recipe = getattr(cfg, args.classifier)
    seed = derive_seed(cfg.seed, recipe.name, "train")
    with numeric_faults(recipe.name):
        model, report = recipe.train_folds([data], [seed])[0]
    _write_output(Path(args.out) / f"model_{args.classifier}.json",
                  (save_model(model, recipe.train_config, report,
                              extra={"master_seed": cfg.seed, "config_digest": digest}),))
    log.info("trained %s: mse=%.6g epochs=%d wall=%.2fs converged=%s",
             args.classifier, report.final_mse, report.epochs_run,
             report.wall_time, report.converged)
    return 0


def cmd_evaluate(args) -> int:
    cfg, digest = _load_config(args.config, args.seed)
    names = cfg.classifier_names if args.classifier == "all" else (args.classifier,)
    if args.k is not None:
        if args.k < 2:
            raise errors.ConfigError(f"--k must be >= 2, got {args.k}")
        cfg = replace(cfg, cv_folds=args.k)
    data = _read_dataset_file(args.dataset)
    do_evaluate(data, text_digest(write_dataset(data)), cfg, names, Path(args.out), digest)
    return 0


def cmd_sweep(args) -> int:
    cfg, digest = _load_config(args.config, args.seed)
    try:
        widths = [int(w) for w in args.widths.split(",")]
    except ValueError:
        raise errors.ConfigError(
            f"--widths must be comma-separated integers, got {args.widths!r}") from None
    data = _read_dataset_file(args.dataset)
    _warn_unless_stratified(data, cfg.cv_folds)
    log.info("sweeping %d widths; worker processes: %d", len(widths),
             sweep_workers(widths))
    rows = sweep_hidden_neurons(data, widths, cfg.seed, k=cfg.cv_folds,
                                train_config=cfg.mlp.train_config)
    comment = f"# master_seed={cfg.seed} config_digest={digest}\n"
    path = _write_output(Path(args.out) / "sweep.csv", (comment, render_sweep_csv(rows)))
    log.info("wrote %s (%d widths)", path, len(rows))
    return 0


def cmd_pipeline(args) -> int:
    cfg, digest = _load_config(args.config, args.seed)
    validate_for_training(cfg)
    out = Path(args.out)
    # Each trace is windowed as soon as its file is written, not read back.
    parts = _simulated(cfg, out, digest, lambda path, trace: (path, _labeled(trace, path)))
    dataset, fingerprint = _write_features(parts, out, cfg.seed, digest)
    do_evaluate(dataset, fingerprint, cfg, cfg.classifier_names, out, digest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnsids",
        description="Simulate DNS DoS traffic, extract windowed features, "
                    "and compare neural attack classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline config file (bundled default if omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run all scenario blocks, write trace files")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("features", help="window traces into a labeled dataset CSV")
    common(p)
    p.add_argument("--traces", required=True, help="directory of .trace files")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train one classifier on a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--classifier", choices=CLASSIFIERS, default="mlp")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validate classifiers, write the report")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--classifier", choices=(*CLASSIFIERS, "all"), default="all")
    p.add_argument("--k", type=int, help="cross-validation folds")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="hidden-width sweep of the feed-forward net")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--widths", default="3,5,7,9,11,13,15,17,19,21",
                   help="comma-separated hidden widths")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="simulate, extract features, and evaluate")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    # Nothing here needs OpenSSL: every generator is seeded and every digest
    # is the interpreter's built-in SHA-256. Yet the first generator imports
    # `numpy.random`, whose `secrets` imports `hmac` and `hashlib`, which
    # would load `_hashlib` and libcrypto (about 3.5 MB resident); with it
    # marked unavailable they fall back to the built-in hashes. Set here,
    # not on import, so a library caller's process is untouched, and only
    # if unset, so a process that already loaded OpenSSL keeps it.
    sys.modules.setdefault("_hashlib", None)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.ConfigError as exc:
        return _fail(exc, 2)
    except errors.ParseError as exc:
        return _fail(exc, 3)
    except errors.TrainingError as exc:
        return _fail(exc, 4)


if __name__ == "__main__":
    sys.exit(main())
