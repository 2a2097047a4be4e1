"""Compressed execution: footprint ratio and dictionary-direct speedup.

An Airline78-like block (dense storage, low-cardinality columns — the
paper's Figure 9 dataset shape) is compressed into CLA column groups.
The same sum-aggregated sparse-safe pipeline is then evaluated two
ways: dictionary-direct over the compressed block (the fused operator
touches only each group's distinct values, weighted by counts) and
decompress-then-execute.  The direct path reports zero decompressions
and wins by roughly the compression ratio; both agree bit-for-bit with
the dense oracle because the data is integer-valued.

Run:  PYTHONPATH=src python examples/compressed_format.py
"""

import time

from repro import api
from repro.compiler.execution import Engine
from repro.data import generators
from repro.runtime.compressed import compress, estimate_distinct
from repro.runtime.matrix import recommend_format


def build(value):
    x = api.matrix(value, name="X")
    return ((x * 2.0) * (x * 2.0)).sum()  # sum((2X)^2), sparse-safe


def best_of(func, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - start)
    return min(times), result


def main():
    block = generators.airline_like(rows=120_000, seed=5)
    distinct = estimate_distinct(block)
    fmt = recommend_format(block.rows, block.cols, block.nnz,
                           distinct=distinct)
    print(f"input: {block.rows}x{block.cols} dense, "
          f"~{distinct:.0f} distinct values/column")
    print(f"recommend_format(..., distinct={distinct:.0f}) -> {fmt!r}\n")

    comp = compress(block)
    print(f"compressed: {comp!r}")
    print(f"footprint: {block.size_bytes / 2**20:.1f} MiB dense -> "
          f"{comp.size_bytes / 2**20:.1f} MiB "
          f"({comp.compression_ratio:.1f}x smaller)\n")

    engine = Engine(mode="gen")
    direct_time, direct = best_of(
        lambda: api.eval(build(comp), engine=engine))
    indirect_time, indirect = best_of(
        lambda: api.eval(build(comp.decompress()), engine=Engine(mode="gen")))
    oracle = api.eval(build(block), engine=Engine(mode="base"))

    print(f"dictionary-direct:       {direct_time * 1e3:8.1f} ms  "
          f"(n_compressed_ops={engine.stats.n_compressed_ops}, "
          f"n_decompressions={engine.stats.n_decompressions})")
    print(f"decompress-then-execute: {indirect_time * 1e3:8.1f} ms")
    print(f"speedup: {indirect_time / direct_time:.1f}x")
    print(f"bit-parity vs dense oracle: "
          f"{direct == oracle and indirect == oracle}")


if __name__ == "__main__":
    main()
