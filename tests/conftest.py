"""Shared fixtures and the acceptance-suite summary hook."""

import os

import dnsids   # loads no numpy

# The suite runs BLAS on one thread, as the CLI does, before any test
# module imports numpy: in-process width sweeps fork one worker per CPU,
# and multi-threaded BLAS in each worker would oversubscribe the cores.
for _var in dnsids.BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


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
