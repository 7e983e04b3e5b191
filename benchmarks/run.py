#!/usr/bin/env python3
"""End-to-end benchmark of the dnsids CLI, with a traced per-layer run.

    python3 benchmarks/run.py --workload default --seed 42 --seconds 60 --trace 0

Each run drives the CLI as a user does (`python -m dnsids.cli` with
`src` on the path), one fresh process at a time, in a closed loop with
one client and the BLAS thread count pinned to BLAS_THREADS. One
iteration is `pipeline` followed by `sweep` on the dataset it wrote.
Iterations repeat while 1.25 times the slowest one so far still fits in
--seconds, counted from the start of the process; every timing is the
median over its samples.

`setup_s` and `sweep_s` are scaled to a reference host speed. Each such
child runs between two runs of a fixed calibration process that does
not use the program's code, and its wall time is reported times
CALIBRATION_REF_S over the mean of those two calibration times. The
host this benchmark was built on drifts in speed by 20% or more over
minutes, and a short calibration drifts with it, so the scaled time of
a child of a few seconds or less is much steadier than its wall time.
`pipeline_s` stays a wall time: over its 7-10 s the host's speed
changes more than two calibrations around it can show, and scaling it
made its spread wider, not narrower.

With --trace 1 each iteration also runs both commands through
`benchmarks/traced.py`, which runs the CLI's own `main` with spans
around each library call, and the per-layer metrics come from those
spans.

Every child process is one operation. It fails on a nonzero exit, a
JSON error line on stderr, or an output file whose SHA-256 differs from
the digest recorded in `benchmarks/digests.json` for that workload and
seed. For a seed with no recorded digests, the run's first outputs
become the reference the rest of the run must match. Traced outputs are
checked against the same digests. A failed operation ends its iteration,
not the run, so every failure within --seconds is counted. The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the exit code is 1 when an operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder

_T_START = time.perf_counter()      # the run's time budget counts from here
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = "1"
SETUP_REPS = 3        # per iteration, so set-up is sampled across the whole run
MIN_SWEEP_S = 1.5     # an iteration repeats short sweeps until they add up to this
BUDGET_MARGIN = 1.25  # another iteration starts only if 1.25x the slowest one still fits
CLASSIFIERS = ("bp", "rbf", "som")
SWEEP_WIDTHS = "3,5,7,9,11,13,15,17,19,21"

# A fixed process with the same mix of work as the CLI: interpreter and
# numpy start-up, small BLAS products, and a pure-Python loop over a dict.
# It takes about CALIBRATION_REF_S on the 2-core VM this was built on.
CALIBRATION_SNIPPET = """\
import numpy as np
a = np.random.default_rng(0).standard_normal((60, 60))
for _ in range(300):
    a = np.tanh(a @ a.T / 60)
d = {}
for i in range(200000):
    d[i % 977] = d.get(i % 977, 0) + i * 0.5
"""
CALIBRATION_REF_S = 0.3

# Workload name -> config path relative to the checkout root; None is the
# bundled config.
WORKLOADS = {
    "default": None,
    "flood": "benchmarks/workloads/flood.cfg",
}

# A fresh process doing what every CLI command does before its work:
# import the CLI (numpy and the map's link-matrix BFS) and parse the config.
SETUP_SNIPPET = """\
import sys
from pathlib import Path
import dnsids.cli
from dnsids.config import DEFAULT_CONFIG, parse_pipeline_config
path = sys.argv[1]
parse_pipeline_config(DEFAULT_CONFIG if path == "-" else Path(path).read_text(encoding="utf-8"))
"""

ENV_SNIPPET = """\
import json, os, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "nproc": os.cpu_count(),
                  "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    maxrss_mb: float      # this child's own peak resident set
    code: int
    error_line: str | None


def launch(args: list[str], stderr_path: Path) -> Outcome:
    """Run one child to completion; wall time and rusage are its own."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss / 1024, proc.returncode,
                   json_error_line(stderr_path.read_text(encoding="utf-8", errors="replace")))


class CalibratedLauncher:
    """Runs children between runs of the calibration process.

    Each child's wall time is scaled by CALIBRATION_REF_S over the mean
    of the calibrations just before and just after it. Consecutive
    children share the calibration between them.
    """

    def __init__(self, work: Path):
        self.work = work
        self.last: float | None = None

    def calibrate(self) -> float:
        err = self.work / "calibration.err"
        cal = launch(["-c", CALIBRATION_SNIPPET], err)
        if cal.code != 0:
            raise RuntimeError("calibration failed: " + err.read_text(encoding="utf-8"))
        return cal.wall_s

    def launch(self, args: list[str], stderr_path: Path) -> tuple[Outcome, float]:
        before = self.calibrate() if self.last is None else self.last
        outcome = launch(args, stderr_path)
        self.last = self.calibrate()
        return outcome, outcome.wall_s * CALIBRATION_REF_S / ((before + self.last) / 2)


def json_error_line(stderr: str) -> str | None:
    """The CLI's machine-readable failure line, if the child printed one."""
    for line in stderr.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "error" in obj:
            return line
    return None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OutputCheck:
    """Counts operations and failures; pins output digests."""

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = bool(recorded)
        self.expected = dict(recorded or {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, outcome: Outcome, outputs: dict[str, Path]) -> bool:
        self.attempted += 1
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        if outcome.error_line is not None:
            problems.append(f"error line {outcome.error_line}")
        for name, path in outputs.items():
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            digest = sha256_file(path)
            want = self.expected.setdefault(name, digest)
            if digest != want:
                problems.append(f"{name} sha256 {digest[:16]} != {want[:16]}")
        if problems:
            self.failed += 1
            self.problems.append(f"{op}: " + "; ".join(problems))
        return not problems


def cli_args(command: str, config: str | None, seed: int, out: Path, *extra: str) -> list[str]:
    flag = [] if config is None else ["--config", config]
    return [command, *flag, "--seed", str(seed), "--out", str(out), *extra]


def report_quality(report_csv: Path) -> dict[str, float]:
    """Pooled 3-class accuracy and true-negative rate (100 - FAR), per classifier."""
    from dnsids.evaluation import parse_report_csv

    quality = {}
    for row in parse_report_csv(report_csv.read_text(encoding="utf-8")):
        quality[f"accuracy_3class.{row['classifier']}"] = row["accuracy_3class"]
        quality[f"tnr.{row['classifier']}"] = 100.0 - row["far"]
    return quality


def measure_setup(config: str | None, work: Path, reps: int, check: OutputCheck,
                  samples: dict[str, list[float]]) -> None:
    """Set-up processes; each is an operation, and each that passes is a sample."""
    args = ["-c", SETUP_SNIPPET, "-" if config is None else config]
    launcher = CalibratedLauncher(work)
    for _ in range(reps):
        outcome, scaled = launcher.launch(args, work / "setup.err")
        if check.record("setup", outcome, {}):
            samples.setdefault("setup_s", []).append(scaled)


def layer_metrics(pipe: Recorder, sweep: Recorder, traced_wall: float,
                  cli_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline + sweep."""
    c = pipe.counters

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m = {
        "setup.import_s": pipe.total("setup.import"),
        "config.parse_s": pipe.total("config.parse"),
        "simnet.run_s": pipe.total("simnet.run"),
        "simnet.write_trace_s": pipe.total("simnet.write_trace"),
        "simnet.read_trace_s": pipe.total("simnet.read_trace"),
        "simnet.events": c["simnet.events"],
        "simnet.drops": c["simnet.drops"],
        "simnet.trace_mb": c["simnet.trace_bytes"] / 1e6,
        "preproc.window_s": pipe.total("preproc.window"),
        "preproc.windows": c["preproc.windows"],
        "preproc.dataset_io_s": pipe.total("preproc.dataset_io"),
        "evaluation.sweep_s": sweep.total("evaluation.sweep"),
        "classifiers.mlp.lm_epochs": c.get("classifiers.mlp.lm_epochs", 0),
        "classifiers.mlp.converged_folds": c.get("classifiers.mlp.converged_folds", 0),
        "classifiers.som.presentations": c.get("classifiers.som.presentations", 0),
    }
    m["simnet.events_per_s"] = per(m["simnet.events"], m["simnet.run_s"])
    m["preproc.windows_per_s"] = per(m["preproc.windows"], m["preproc.window_s"])
    m["evaluation.sweep_fits_per_s"] = per(sweep.counters["evaluation.sweep_fits"],
                                           m["evaluation.sweep_s"])
    for clf in CLASSIFIERS:
        train_spans = [s for s in pipe.spans if s.name == f"evaluation.train.{clf}"]
        train_s = sum(s.duration for s in train_spans)
        m[f"evaluation.cv_s.{clf}"] = pipe.total(f"evaluation.cv.{clf}")
        m[f"evaluation.train_s.{clf}"] = train_s
        m[f"evaluation.classify_s.{clf}"] = pipe.total(f"evaluation.classify.{clf}")
        m[f"evaluation.fits_per_s.{clf}"] = per(len(train_spans), train_s)
        m[f"classifiers.classify_calls.{clf}"] = c.get(f"classifiers.classify_calls.{clf}", 0)
    m["classifiers.mlp.ms_per_epoch"] = per(m["evaluation.train_s.bp"],
                                            m["classifiers.mlp.lm_epochs"], 1e3)
    m["classifiers.som.us_per_presentation"] = per(m["evaluation.train_s.som"],
                                                   m["classifiers.som.presentations"], 1e6)
    root = next(s for s in pipe.spans if s.parent is None)
    m["cli.glue_s"] = pipe.self_time(root)
    m["trace.overhead_s"] = traced_wall - cli_wall
    return m


def run_iteration(config: str | None, seed: int, work: Path, check: OutputCheck,
                  samples: dict[str, list[float]], trace_file: Path | None = None) -> bool:
    """One pipeline + sweep through the CLI; with a trace_file, traced copies too.

    Appends this iteration's metrics to `samples` and returns True when
    every operation passed; returns False as soon as one fails, without
    running the commands that would use its outputs.
    """
    out, traced = work / "cli", work / "traced"
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(traced, ignore_errors=True)
    pipe_args = ["-m", "dnsids.cli", *cli_args("pipeline", config, seed, out)]
    pipe = launch(pipe_args, work / "pipeline.err")
    if not check.record("pipeline", pipe, {n: out / n for n in ("dataset.csv", "report.csv")}):
        return False
    sweep_args = ["-m", "dnsids.cli", *cli_args("sweep", config, seed, out,
                                                "--dataset", str(out / "dataset.csv"),
                                                "--widths", SWEEP_WIDTHS)]
    launcher = CalibratedLauncher(work)
    sweep_walls, sweep_times = [], []
    while not sweep_walls or sum(sweep_walls) < MIN_SWEEP_S:
        sweep, scaled = launcher.launch(sweep_args, work / "sweep.err")
        if not check.record("sweep", sweep, {"sweep.csv": out / "sweep.csv"}):
            return False
        sweep_walls.append(sweep.wall_s)
        sweep_times.append(scaled)
    if trace_file is None:
        samples.setdefault("sweep_s", []).extend(sweep_times)
        for name, value in (("pipeline_s", pipe.wall_s), ("peak_rss_mb", pipe.maxrss_mb),
                            *report_quality(out / "report.csv").items()):
            samples.setdefault(name, []).append(value)
        return True

    script = str(BENCH / "traced.py")
    tpipe = launch([script, "--spans", str(traced / "pipeline.json"),
                    *cli_args("pipeline", config, seed, traced)],
                   work / "traced-pipeline.err")
    if not check.record("traced pipeline", tpipe,
                        {n: traced / n for n in ("dataset.csv", "report.csv")}):
        return False
    tsweep = launch([script, "--spans", str(traced / "sweep.json"),
                     *cli_args("sweep", config, seed, traced,
                               "--dataset", str(traced / "dataset.csv"),
                               "--widths", SWEEP_WIDTHS)],
                    work / "traced-sweep.err")
    if not check.record("traced sweep", tsweep, {"sweep.csv": traced / "sweep.csv"}):
        return False
    spans = {n: json.loads((traced / f"{n}.json").read_text(encoding="utf-8"))
             for n in ("pipeline", "sweep")}
    recs = [Recorder.from_dict(spans[n]) for n in ("pipeline", "sweep")]
    for name, value in layer_metrics(*recs, tpipe.wall_s, pipe.wall_s).items():
        samples.setdefault(name, []).append(value)
    trace_file.write_text(json.dumps(spans), encoding="utf-8")
    return True


def recorded_digests(workload: str, seed: int) -> dict[str, str] | None:
    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    return digests.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dnsids end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dnsids" / "cli.py").is_file():
        print(f"error: no dnsids sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    config = WORKLOADS[args.workload]
    check = OutputCheck(recorded_digests(args.workload, args.seed))

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_file = None
    if args.trace:
        trace_file = ROOT / ".bench_out" / f"{name}.json"
        trace_file.parent.mkdir(exist_ok=True)
    try:
        env = subprocess.run([sys.executable, "-c", ENV_SNIPPET], env=child_env(), cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout.strip()
        print(f"environment: {env}", file=sys.stderr)
        samples: dict[str, list[float]] = {}
        if not args.trace:       # warm the bytecode and page caches; not an operation
            measure_setup(config, work, 1, OutputCheck(None), {})
        durations = []
        while True:
            t0 = time.perf_counter()
            if not args.trace:
                measure_setup(config, work, SETUP_REPS, check, samples)
            run_iteration(config, args.seed, work, check, samples, trace_file)
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - _T_START + BUDGET_MARGIN * max(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in check.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    samples = {name: values for name, values in samples.items() if values}
    if check.failed == 0 and set(units) != set(samples):
        print(f"error: measured {sorted(samples)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:          # only after a failure: no operation it needs passed
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:40s} {metrics[name]['value']:14.6g} {unit:6s} n={len(values)} "
              f"min={min(values):.6g} max={max(values):.6g}")
    digest_kind = "recorded" if check.recorded else "first-run"
    print(f"digests: {json.dumps(check.expected, sort_keys=True)}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(durations)} iterations, "
          f"{check.failed}/{check.attempted} operations failed ({digest_kind} digests)")
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
