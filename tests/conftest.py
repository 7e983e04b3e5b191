"""Shared fixtures and the acceptance-suite summary hook."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import dnsids   # loads no numpy

# The suite runs BLAS on one thread, as the CLI does, before any test
# module imports numpy: in-process width sweeps fork one worker per CPU,
# and multi-threaded BLAS in each worker would oversubscribe the cores.
for _var in dnsids.BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


@dataclass(frozen=True)
class Loaded:
    """What a new interpreter had loaded when its work was done."""

    modules: frozenset[str]             # names in `sys.modules` bound to a module
    mappings: frozenset[str] | None     # files mapped into it; None without /proc


# Runs in the new interpreter: imports the CLI, runs `main` on the
# arguments when there are any, then prints what is loaded as its last
# line of output.
_LOADED_REPORT = """\
import json, sys
import dnsids.cli
if len(sys.argv) > 1 and dnsids.cli.main(sys.argv[1:]) != 0:
    sys.exit("command failed")
try:
    with open("/proc/self/maps") as maps:
        mappings = sorted({f[5] for f in map(str.split, maps) if len(f) > 5})
except OSError:
    mappings = None
print(json.dumps({"modules": sorted(k for k, v in sys.modules.items() if v is not None),
                  "mappings": mappings}))
"""


@pytest.fixture
def fresh_interpreter():
    """Call with CLI arguments to run that command in a new interpreter,
    or with none to only import `dnsids.cli`; returns what it `Loaded`.

    The command must succeed. The interpreter gets this checkout's
    package and the test process's environment.
    """
    src = str(Path(dnsids.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv: str) -> Loaded:
        proc = subprocess.run([sys.executable, "-c", _LOADED_REPORT, *argv], env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        mappings = report["mappings"]
        return Loaded(frozenset(report["modules"]),
                      None if mappings is None else frozenset(mappings))

    return run


# Characters in each piece of an `endless_line`.
ENDLESS_PIECE_CHARS = 1 << 16


@pytest.fixture
def endless_line():
    """Call with a character for pieces of a line of it that never ends.

    Once a reader has taken four times the line bound from them, the test
    fails: a reader that holds the whole line fails there, with a few MB
    held, rather than filling memory.
    """
    from dnsids.simnet import MAX_LINE_CHARS

    def pieces(char: str):
        for _ in range(4 * MAX_LINE_CHARS // ENDLESS_PIECE_CHARS):
            yield char * ENDLESS_PIECE_CHARS
        pytest.fail(f"the reader took {4 * MAX_LINE_CHARS} characters of one line")

    return pieces


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                name = rep.nodeid.split("::")[-1]
                lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status}  {name}")
