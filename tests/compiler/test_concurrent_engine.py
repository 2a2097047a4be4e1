"""Concurrent eval_all against one shared Engine (serving substrate).

The serving scheduler multiplexes requests over a single engine, so
compile (context lock), plan cache, and executor stats must all be
safe under concurrent ``execute`` calls — results must equal serial
evaluation and no counters may be lost to races.
"""

import threading

import numpy as np
import pytest

from repro import api
from tests.conftest import GEN_MODES, as_array, make_engine

RNG = np.random.default_rng(17)
XD = RNG.random((80, 30))
YD = RNG.random((80, 30))
VD = RNG.random((30, 1))

N_THREADS = 8
RUNS_PER_THREAD = 4


def _build():
    x = api.matrix(XD, "X")
    y = api.matrix(YD, "Y")
    v = api.matrix(VD, "v")
    return [
        (x * y * 2.0).sum(),
        x.T @ (x @ v),
        api.exp(x * 0.25).row_sums(),
    ]


@pytest.mark.parametrize("mode", ["base"] + GEN_MODES)
def test_concurrent_eval_all_matches_serial(mode):
    engine = make_engine(mode)
    reference = [as_array(value) for value in
                 api.eval_all(_build(), engine=engine)]
    per_run_instructions = engine.stats.n_instructions_executed
    baseline_classes = engine.stats.n_classes_compiled

    results: dict[int, list] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(index):
        try:
            barrier.wait()
            for _ in range(RUNS_PER_THREAD):
                results.setdefault(index, []).append(
                    [as_array(v) for v in api.eval_all(_build(),
                                                       engine=engine)]
                )
        except BaseException as exc:  # surfaces in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors

    for runs in results.values():
        assert len(runs) == RUNS_PER_THREAD
        for run in runs:
            for expected, actual in zip(reference, run):
                np.testing.assert_allclose(actual, expected, rtol=1e-10)

    # Stats integrity: every run's instruction count was recorded
    # (identical DAG => identical program size), and concurrent misses
    # never compiled the same generated operator twice.
    total_runs = 1 + N_THREADS * RUNS_PER_THREAD
    assert engine.stats.n_instructions_executed == \
        per_run_instructions * total_runs
    assert engine.stats.n_classes_compiled == baseline_classes
    # The reference run compiled the DAG's shape; every concurrent run
    # after it is a program-cache hit.
    assert engine.stats.n_programs_compiled == 1
    assert engine.stats.n_specialization_hits == total_runs - 1
