"""The benchmark's traced run of the CLI, against a plain run.

`benchmarks/traced.py` swaps the library names `dnsids.cli` imports for
wrappers that record spans and tally counters from their arguments and
results, and `benchmarks/run.py` turns those spans into per-layer
metrics. A renamed function, a changed signature or a dropped attribute
breaks that run while the CLI itself still works, so both run here on
the harness's own tiny config.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import dnsids

ROOT = Path(dnsids.__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks"
TINY = BENCH / "tests" / "tiny.cfg"


def _commands(out: Path) -> tuple[list[str], list[str]]:
    """`pipeline`, then `sweep` on the dataset it writes, as benchmarks/run.py runs them."""
    common = ["--config", str(TINY), "--seed", "42", "--out", str(out)]
    return (["pipeline", *common],
            ["sweep", *common, "--dataset", str(out / "dataset.csv"), "--widths", "3,5"])


def test_traced_run_matches_the_cli_and_yields_layer_metrics(tmp_path, monkeypatch):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))

    def run(*argv: str) -> None:
        proc = subprocess.run([sys.executable, *argv], env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for argv in _commands(plain):
        run("-m", "dnsids.cli", *argv)
    for argv in _commands(traced):
        run(str(BENCH / "traced.py"), "--spans", str(tmp_path / f"{argv[0]}.json"), *argv)
    for name in ("dataset.csv", "report.csv", "sweep.csv"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name

    monkeypatch.syspath_prepend(str(BENCH))
    bench = importlib.import_module("run")
    pipe, sweep = (bench.Recorder.from_dict(
        json.loads((tmp_path / f"{command}.json").read_text(encoding="utf-8")))
        for command in ("pipeline", "sweep"))
    metrics = bench.layer_metrics(pipe, sweep, traced_wall=0.0, cli_wall=0.0)
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    assert metrics["simnet.events"] > 0
    assert metrics["preproc.windows"] == 6
    assert metrics["evaluation.sweep_fits_per_s"] > 0
