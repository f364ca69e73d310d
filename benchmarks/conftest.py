"""Benchmark harness configuration.

Each ``test_fig*``/``test_table*`` file regenerates one table or figure of
the paper's evaluation: it runs the corresponding experiment under
pytest-benchmark (single round for the heavy ones — these measure the
*reproduction output*, not library micro-performance), prints the same
rows/series the paper reports, and attaches paper-vs-measured values to
``benchmark.extra_info``.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import json
import os
from pathlib import Path

import pytest

#: Where ``BENCH_<name>.json`` perf-trajectory files land (repo root).
BENCH_DIR = Path(__file__).resolve().parent.parent


def record(benchmark, **info):
    """Attach paper-vs-measured values to the benchmark report."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


def write_bench(name: str, **data) -> Path:
    """Write ``BENCH_<name>.json`` when ``REPRO_WRITE_BENCH=1``.

    The scaling benchmarks call this with wall-time + speedup numbers;
    the committed files are the perf trajectory the next PR compares
    against.  A plain test run leaves them untouched, so running the
    suite changes no tracked file.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    if os.environ.get("REPRO_WRITE_BENCH") == "1":
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
