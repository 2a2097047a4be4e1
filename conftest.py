"""Fixtures shared by the test suite (``tests/``) and the benchmark
reproductions (``benchmarks/``)."""

import pytest


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
