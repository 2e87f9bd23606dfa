"""Shared fixtures for the per-figure benchmark suite.

Every ``bench_figNN_*.py`` runs one figure's experiment through
pytest-benchmark, asserts the paper's qualitative shape (who wins, which
way the trend bends), prints the reproduced table, and archives it under
``benchmarks/results/`` for EXPERIMENTS.md.

The session shares simulated runs across figures (Figs 3 and 13 show the
same runs, and so do Figs 1a and 14): run one file alone to time that
figure cold.

Set ``REPRO_EFFORT=full`` for larger workloads (closer to the paper's
scales, minutes instead of seconds).
"""

import os
import pathlib

import pytest

from repro.bench.workloads import shared_runs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def effort():
    return os.environ.get("REPRO_EFFORT", "quick")


@pytest.fixture(scope="session", autouse=True)
def _shared_runs():
    """Make each distinct simulated run once per session."""
    with shared_runs():
        yield


@pytest.fixture
def record():
    """Print a FigureResult and archive it under benchmarks/results/."""

    def _record(result):
        table = result.format_table()
        print()
        print(table)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{result.figure}.txt"
        path.write_text(table + "\n")
        return result

    return _record


def run_once(benchmark, fn, **kwargs):
    """Run a figure experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
