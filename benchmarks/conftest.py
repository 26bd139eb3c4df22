"""Shared configuration of the benchmark harness.

Each benchmark module regenerates one figure or table of the paper: it runs
the corresponding experiment driver, prints the same rows/series the paper
reports, and asserts the qualitative claims (who wins, approximate ratios,
crossover points).  ``pytest-benchmark`` records how long regenerating each
experiment takes.

By default the harness uses the scaled 64-core cluster; set ``MEMPOOL_FULL=1``
to run the full 256-core configuration of the paper (slower).

The ``test_perf_*`` modules record their measurements through the
:func:`bench_snapshot` fixture into JSON snapshots under ``BENCH_OUT_DIR``
— the gitignored ``benchmarks/_out/`` when unset — so a plain test run
never rewrites the committed ``benchmarks/BENCH_*.json``.  Refreshing
those is deliberate::

    BENCH_OUT_DIR=benchmarks make bench-engine
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.evaluation import ExperimentSettings

#: Snapshot directory when ``BENCH_OUT_DIR`` is unset (listed in .gitignore).
DEFAULT_BENCH_OUT_DIR = Path(__file__).resolve().parent / "_out"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment: marks a benchmark that regenerates a paper figure/table"
    )


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Experiment settings shared by every benchmark (honours MEMPOOL_FULL)."""
    return ExperimentSettings()


@pytest.fixture(scope="session")
def report_sink():
    """Collects the textual reports so they are printed once at the end."""
    reports: list[str] = []
    yield reports
    if reports:
        print("\n\n" + "\n\n".join(reports))


@pytest.fixture(scope="session")
def bench_snapshot():
    """Merge top-level sections into one snapshot file; return its path.

    Several benchmark modules share a file (``BENCH_engine.json``), each
    owning its own sections, so every write is a merge-update that keeps
    the other modules' sections whichever order the suite ran in.
    """

    def write(filename: str, sections: dict) -> Path:
        path = Path(os.environ.get("BENCH_OUT_DIR") or DEFAULT_BENCH_OUT_DIR) / filename
        payload = json.loads(path.read_text()) if path.exists() else {}
        payload.update(sections)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    return write
