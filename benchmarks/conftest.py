"""Shared benchmark fixtures.

Run with ``pytest benchmarks/ --benchmark-only``.  Each benchmark test
measures one (workload, engine) cell of a paper table/figure; the
pytest-benchmark report provides the cross-engine comparison that the
paper plots.  Workload sizes are scaled down from the paper's cluster
scale; each benchmark's docstring states its factor.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

#: Quick mode (``REPRO_BENCH_QUICK=1``): benchmarks trim their size /
#: parameter grids to a single small configuration, so a CI smoke run
#: finishes in seconds while exercising the full engine stack.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def quick_trim(values: list) -> list:
    """First element only in quick mode; the full grid otherwise."""
    return values[:1] if QUICK else values


def pytest_configure(config):
    config.addinivalue_line("markers", "bench: benchmark reproduction tests")


@pytest.fixture
def bench_once(benchmark):
    """Benchmark a callable exactly once per round (end-to-end runs)."""

    def run(func, warmup_func=None, rounds: int = 1):
        if warmup_func is not None:
            warmup_func()
        return benchmark.pedantic(func, rounds=rounds, iterations=1,
                                  warmup_rounds=0)

    return run


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)
