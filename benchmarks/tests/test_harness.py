"""Self-tests of the benchmark harness, on a one-run-per-class config.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from run import OutputCheck, Outcome, json_error_line, launch, run_iteration  # noqa: E402
from spans import Recorder  # noqa: E402

TINY = str(BENCH / "tests" / "tiny.cfg")
OK = Outcome(wall_s=1.0, maxrss_mb=10.0, code=0, error_line=None)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --- spans -------------------------------------------------------------------

def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("root") as root:
        clock.now = 1.0
        with rec.span("a") as a:
            clock.now = 3.0
            with rec.span("a.inner"):
                clock.now = 3.5
        clock.now = 4.0
        with rec.span("b"):
            clock.now = 6.0
        clock.now = 10.0
    assert root.duration == 10.0
    assert rec.self_time(root) == pytest.approx(10.0 - 2.5 - 2.0)   # a: 1..3.5, b: 4..6
    assert rec.self_time(a) == pytest.approx(2.0)
    assert [s.name for s in rec.children(root)] == ["a", "b"]
    assert rec.total("b") == 2.0


def test_self_time_counts_overlapping_and_overhanging_children_once():
    clock = FakeClock()
    rec = Recorder(clock)
    root = rec.open("root")
    rec.add("x", 1.0, 4.0)
    rec.add("y", 3.0, 5.0)        # overlaps x by 1 s
    rec.add("z", 9.0, 12.0)       # runs past the parent's end
    clock.now = 10.0
    rec.close(root)
    assert rec.self_time(root) == pytest.approx(10.0 - 4.0 - 1.0)


def test_recorder_round_trips_and_rejects_unbalanced_spans():
    rec = Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)
    with pytest.raises(RuntimeError):
        rec.to_dict()
    inner.attrs["fold"] = 3
    rec.close(inner)
    rec.close(outer)
    rec.count("events", 3)
    rec.count("events", 4)
    back = Recorder.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back.counters == {"events": 7}
    assert [(s.name, s.parent) for s in back.spans] == [("outer", None), ("inner", 0)]
    assert back.spans[1].attrs == {"fold": 3}
    assert back.self_time(back.spans[0]) == pytest.approx(rec.self_time(outer))


# --- per-child resource usage ------------------------------------------------

def test_peak_rss_is_each_childs_own(tmp_path):
    big = launch(["-c", "b = bytearray(120 * 2**20); b[::4096] = b'x' * len(b[::4096])"],
                 tmp_path / "big.err")
    small = launch(["-c", "pass"], tmp_path / "small.err")
    assert big.code == small.code == 0
    assert big.maxrss_mb > 120
    assert small.maxrss_mb < 60      # a running maximum over children would report > 120


# --- output check and failure accounting ------------------------------------

def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def test_recorded_digests_catch_a_corrupted_output(tmp_path):
    good = _write(tmp_path / "report.csv", "classifier,accuracy\nbp,100\n")
    check = OutputCheck({"report.csv": run.sha256_file(good)})
    assert check.record("pipeline", OK, {"report.csv": good})
    _write(good, "classifier,accuracy\nbp,99\n")
    assert not check.record("pipeline", OK, {"report.csv": good})
    assert not check.record("pipeline", OK, {"report.csv": tmp_path / "absent.csv"})
    assert (check.attempted, check.failed) == (3, 2)
    assert "report.csv sha256" in check.problems[0]
    assert "missing" in check.problems[1]


def test_unrecorded_seed_must_agree_with_its_first_run(tmp_path):
    out = _write(tmp_path / "sweep.csv", "width\n3\n")
    check = OutputCheck(None)
    assert not check.recorded
    assert check.record("sweep", OK, {"sweep.csv": out})
    assert check.record("sweep", OK, {"sweep.csv": out})
    _write(out, "width\n5\n")
    assert not check.record("sweep", OK, {"sweep.csv": out})
    assert (check.attempted, check.failed) == (3, 1)


def test_exit_code_and_error_line_each_count_as_a_failure():
    check = OutputCheck(None)
    assert not check.record("a", Outcome(1.0, 1.0, 2, None), {})
    assert not check.record("b", Outcome(1.0, 1.0, 0, '{"error": "X"}'), {})
    assert check.record("c", OK, {})
    assert (check.attempted, check.failed) == (3, 2)


def test_calibrated_launches_share_the_calibration_between_them(tmp_path, monkeypatch):
    launcher = run.CalibratedLauncher(tmp_path)
    monkeypatch.setattr(launcher, "calibrate", iter([0.2, 0.4, 0.6]).__next__)
    first, scaled_first = launcher.launch(["-c", "pass"], tmp_path / "child.err")
    second, scaled_second = launcher.launch(["-c", "pass"], tmp_path / "child.err")
    assert scaled_first == pytest.approx(first.wall_s * run.CALIBRATION_REF_S / 0.3)
    assert scaled_second == pytest.approx(second.wall_s * run.CALIBRATION_REF_S / 0.5)


def test_calibration_runs_its_own_process(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_SNIPPET", "import time; time.sleep(0.2)")
    assert run.CalibratedLauncher(tmp_path).calibrate() >= 0.2
    monkeypatch.setattr(run, "CALIBRATION_SNIPPET", "raise SystemExit(3)")
    with pytest.raises(RuntimeError, match="calibration failed"):
        run.CalibratedLauncher(tmp_path).calibrate()


def test_json_error_line_ignores_logs():
    assert json_error_line("INFO simulated x\n[1, 2]\n") is None
    line = '{"error": "ConfigError", "detail": "bad"}'
    assert json_error_line(f"INFO a\n{line}\n") == line


def test_cli_failure_is_counted(tmp_path):
    bad = _write(tmp_path / "bad.cfg", "[pipeline]\nseed = 1\nbogus = 2\n")
    check = OutputCheck(None)
    samples = {}
    assert not run_iteration(str(bad), 1, tmp_path, check, samples)
    assert (check.attempted, check.failed) == (1, 1)
    assert "exit code 2" in check.problems[0] and '"error"' in check.problems[0]
    assert samples == {}


# --- whole iterations on the tiny config ------------------------------------

def test_traced_iteration_matches_the_cli_outputs(tmp_path, monkeypatch):
    check = OutputCheck(None)
    samples = {}
    trace_file = tmp_path / "trace.json"
    monkeypatch.setattr(run, "MIN_SWEEP_S", 0.0)      # one CLI sweep per iteration
    assert run_iteration(TINY, 7, tmp_path, check, samples, trace_file), check.problems
    assert (check.attempted, check.failed) == (4, 0)
    assert set(check.expected) == {"dataset.csv", "report.csv", "sweep.csv"}
    assert samples["preproc.windows"] == [6]
    assert samples["simnet.events"][0] > 0
    for clf in run.CLASSIFIERS:
        assert samples[f"classifiers.classify_calls.{clf}"] == [6]
        assert samples[f"evaluation.cv_s.{clf}"][0] >= samples[f"evaluation.train_s.{clf}"][0]
    assert samples["classifiers.som.presentations"] == [2 * 2 * 3]   # epochs x folds x train
    assert all(isinstance(v[0], (int, float)) for v in samples.values())
    spans = json.loads(trace_file.read_text(encoding="utf-8"))
    assert {s["name"] for s in spans["sweep"]["spans"]} >= {"sweep", "evaluation.sweep"}
    bp_folds = [s["attrs"] for s in spans["pipeline"]["spans"]
                if s["name"] == "evaluation.train.bp"]
    assert [f["fold"] for f in bp_folds] == [0, 1]
    assert sum(f["epochs_run"] for f in bp_folds) == samples["classifiers.mlp.lm_epochs"][0]

    # A second, untraced iteration must reproduce the same bytes, repeating
    # the short sweep; a corrupted reference digest makes the same run fail.
    monkeypatch.setattr(run, "MIN_SWEEP_S", 1.0)
    assert run_iteration(TINY, 7, tmp_path, check, samples)
    assert check.failed == 0
    assert len(samples["sweep_s"]) >= 2         # the tiny sweep is far below 1 s
    assert check.attempted == 4 + 1 + len(samples["sweep_s"])
    check.expected["report.csv"] = "0" * 64
    assert not run_iteration(TINY, 7, tmp_path, check, samples)
    assert check.failed == 1 and "report.csv sha256" in check.problems[0]


def test_a_failing_first_pipeline_still_prints_the_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "recorded_digests", lambda workload, seed: {
        "dataset.csv": "0" * 64, "report.csv": "0" * 64, "sweep.csv": "0" * 64})
    code = run.main(["--workload", "tiny", "--seed", "7", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # One iteration: three set-up processes pass, the pipeline fails, and
    # the sweep that would read its dataset is not run.
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert set(result["metrics"]) == {"setup_s"}


# --- traced run --------------------------------------------------------------

class _Recipe:
    name = "bp"
    hidden = 5

    def train(self, data, seed):
        return "model", None

    def classify(self, model, x):
        return "normal"


def test_recipe_proxy_forwards_what_it_does_not_trace():
    import traced

    proxy = traced.TracedRecipe(_Recipe(), Recorder())
    assert proxy.name == "bp" and proxy.hidden == 5
    assert not hasattr(proxy, "predict_codes")   # cross_validate checks for it
    assert proxy.classify("model", [0.0]) == "normal"
    proxy.finish()
    assert proxy.rec.counters["classifiers.classify_calls.bp"] == 1
    assert [s.name for s in proxy.rec.spans] == ["evaluation.classify.bp"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
