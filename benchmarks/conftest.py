"""Benchmark configuration.

Each ``bench_e*.py`` regenerates one experiment of
:mod:`repro.experiments` (E1-E9): the benchmark measures the
computation and the captured table is printed at the end of the run so
``pytest benchmarks/ --benchmark-only -s`` shows exactly the rows the
paper's worked examples / claims correspond to.

When ``REPRO_BENCH_TELEMETRY_OUT`` names a file, every test runs under
a fresh :mod:`repro.telemetry` capture and the per-test snapshots are
dumped there at session end (keyed ``bench_file.py::test[param]``).
``run_bench.py`` uses this in a second, un-timed ``--benchmark-disable``
pass so the timed pass keeps telemetry's zero-overhead disabled path.
"""

import json
import os

import pytest

_reports: list[tuple[str, str]] = []
_TELEMETRY_OUT = os.environ.get("REPRO_BENCH_TELEMETRY_OUT")
_telemetry_by_test: dict[str, dict] = {}


@pytest.fixture(autouse=True)
def _bench_telemetry(request):
    if not _TELEMETRY_OUT:
        yield
        return
    from repro import telemetry as _telemetry

    with _telemetry.capture() as reg:
        yield
    snapshot = reg.snapshot()
    if snapshot["counters"] or snapshot["histograms"]:
        # Key like the trajectory entries: strip the directory.
        _telemetry_by_test[request.node.nodeid.split("/")[-1]] = snapshot


def pytest_sessionfinish(session, exitstatus):
    if _TELEMETRY_OUT and _telemetry_by_test:
        with open(_TELEMETRY_OUT, "w", encoding="utf-8") as fh:
            json.dump(_telemetry_by_test, fh, sort_keys=True)


def record_report(name: str, text: str) -> None:
    """Stash an experiment's rendered table for the session summary."""
    _reports.append((name, text))


@pytest.fixture
def report():
    return record_report


def pytest_terminal_summary(terminalreporter):
    if not _reports:
        return
    terminalreporter.section("experiment tables (repro.experiments)")
    for name, text in _reports:
        terminalreporter.write_line(f"\n--- {name} ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)
