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
