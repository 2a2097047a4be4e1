"""Figure 9: Compressed linear algebra — sum(X^2) over ULA vs CLA.

Paper datasets: Airline78 (dense, ratio 7.44x) and Mnist8m (sparse,
ratio 7.32x); reproduction uses the stand-in generators at 1/100 scale.
Expected shape: on uncompressed data (ULA), Fused/Gen beat Base by
avoiding the X^2 intermediate; on compressed data (CLA) all engines are
fast because X^2 is computed over the dictionary only, and Gen comes
remarkably close to the hand-coded CLA operations.
"""

from __future__ import annotations

import pytest

from conftest import quick_trim

from repro import api
from repro.compiler.execution import Engine
from repro.data import generators
from repro.runtime.compressed import compress

MODES = ["base", "fused", "gen"]
#: Quick mode keeps one dataset; the ULA/CLA/correctness split stays.
DATASETS = quick_trim(["airline", "mnist"])
_CACHE: dict = {}


def _dataset(name: str):
    if name not in _CACHE:
        if name == "airline":
            block = generators.airline_like(rows=120_000, seed=5)
        else:
            block = generators.mnist_like(rows=20_000, seed=6)
        _CACHE[name] = block
    return _CACHE[name]


def _compressed(name: str):
    key = f"{name}-cla"
    if key not in _CACHE:
        _CACHE[key] = compress(_dataset(name))
    return _CACHE[key]


def _build(block):
    x = api.matrix(block, "X")
    return [(x * x).sum()]


@pytest.mark.bench
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("mode", MODES)
def test_fig09_ula(benchmark, dataset, mode):
    block = _dataset(dataset)
    engine = Engine(mode=mode)

    def evaluate():
        return api.eval_all(_build(block), engine=engine)

    evaluate()
    benchmark.pedantic(evaluate, rounds=3, iterations=1)
    benchmark.extra_info["representation"] = "ULA"


@pytest.mark.bench
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("mode", MODES)
def test_fig09_cla(benchmark, dataset, mode):
    comp = _compressed(dataset)
    engine = Engine(mode=mode)

    def evaluate():
        return api.eval_all(_build(comp), engine=engine)

    evaluate()
    benchmark.pedantic(evaluate, rounds=3, iterations=1)
    benchmark.extra_info["representation"] = "CLA"
    benchmark.extra_info["compression_ratio"] = round(comp.compression_ratio, 2)


@pytest.mark.bench
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig09_correctness_and_ratio(benchmark, dataset):
    """CLA results must equal ULA; compression must be favorable."""
    import numpy as np

    def run():
        block = _dataset(dataset)
        comp = _compressed(dataset)
        expected = api.eval(_build(block)[0], engine=Engine(mode="base"))
        for mode in MODES:
            got = api.eval(_build(comp)[0], engine=Engine(mode=mode))
            assert np.isclose(got, expected, rtol=1e-9)
        assert comp.compression_ratio > 2.0
        benchmark.extra_info["compression_ratio"] = round(comp.compression_ratio, 2)

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.bench
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig09_dictionary_direct_beats_decompress_first(benchmark, dataset):
    """CI smoke assertion for the compressed fast path.

    Dictionary-direct execution (sum((X*2)^2) over the compressed
    block, zero decompressions) must beat decompress-then-execute, hold
    the compression-ratio floor, and agree bit-for-bit with the dense
    oracle — the generators produce integer-valued data, so every
    summation order yields the identical float64.
    """
    from repro.bench.harness import (
        BenchResult, maybe_export_json, time_best,
    )

    block = _dataset(dataset)
    comp = _compressed(dataset)
    assert comp.compression_ratio > 2.0

    def build(value):
        x = api.matrix(value, "X")
        return ((x * 2.0) * (x * 2.0)).sum()

    def direct():
        engine = Engine(mode="gen")
        result = api.eval(build(comp), engine=engine)
        assert engine.stats.n_compressed_ops >= 1
        assert engine.stats.n_decompressions == 0
        return result

    def decompress_first():
        return api.eval(build(comp.decompress()), engine=Engine(mode="gen"))

    oracle = api.eval(build(block), engine=Engine(mode="base"))
    assert direct() == oracle  # bit-parity vs the dense oracle
    assert decompress_first() == oracle

    direct_s = time_best(direct)
    indirect_s = time_best(decompress_first)
    speedup = indirect_s / max(direct_s, 1e-12)
    assert speedup > 1.0, (
        f"dictionary-direct {direct_s*1e3:.1f}ms not faster than "
        f"decompress-first {indirect_s*1e3:.1f}ms"
    )

    result = BenchResult(label=f"fig09-{dataset}")
    result.seconds["dictionary-direct"] = direct_s
    result.seconds["decompress-first"] = indirect_s
    result.stats["compression_ratio"] = round(comp.compression_ratio, 2)
    result.stats["speedup"] = round(speedup, 2)
    maybe_export_json("fig09-compressed-smoke", [result])
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["compression_ratio"] = round(comp.compression_ratio, 2)
    benchmark.pedantic(direct, rounds=1, iterations=1)
