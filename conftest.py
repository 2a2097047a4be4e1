"""Fixtures shared by the test suite (``tests/``) and the benchmark
reproductions (``benchmarks/``)."""

import pytest


@pytest.fixture(autouse=True)
def fresh_plan_cache(monkeypatch):
    """Give every test and bench an empty process-wide plan cache.

    Engines read ``plan_cache.PLAN_CACHE`` when they are built, so the
    shared engines behind bare ``api.eval`` / ``run_script`` are dropped
    too and rebuilt on first use.  No assertion passes, then, just
    because an earlier test compiled its operators.  Returns the cache.
    """
    from repro.codegen import plan_cache
    from repro.compiler import execution

    cache = plan_cache.PlanCache()
    monkeypatch.setattr(plan_cache, "PLAN_CACHE", cache)
    monkeypatch.setattr(execution, "_shared_engines", {})
    return cache


@pytest.fixture
def always_enumerate(monkeypatch):
    """Enumerate every partition with interesting points.

    The cost policy gives a partition whose fuse-no-redundancy plan costs
    less than its projected enumeration time that plan unenumerated; on
    tiny inputs that is most of them.  Tests and benches whose subject
    is a template path or the enumerator (MPSkipEnum, Algorithm 2), not
    plan choice, use this fixture to keep the cost-chosen plan."""
    from repro.codegen import optimizer

    monkeypatch.setattr(optimizer, "_PLAN_COST_S", 0.0)


@pytest.fixture
def parallel_tiny_ops(request, monkeypatch):
    """Treat every operator as big enough to parallelize.

    One constant, ``parallel.PARALLEL_MIN_CELLS``, gates intra-operator
    parts; this fixture sets it to 1, or to ``request.param`` under
    indirect parametrization, and returns the value.  Lowering reads
    it, so a test using this fixture must compile in an ``Engine`` of
    its own: a program another test compiled keeps the decisions it was
    lowered with."""
    from repro.runtime import parallel

    threshold = getattr(request, "param", 1)
    monkeypatch.setattr(parallel, "PARALLEL_MIN_CELLS", threshold)
    return threshold
