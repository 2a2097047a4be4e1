"""Adaptive recompilation on a sparse workload with unknown metadata.

A scoring expression is compiled over an input matrix whose sparsity is
hidden from the compiler (``nnz_unknown=True`` — think of a freshly
ingested dataset whose statistics were never collected).  The frozen
plan assumes dense and pays dense costs on every cell; the adaptive
engine observes the real non-zero count at the first recompilation
segment boundary, recompiles the remainder against the observed
metadata, converts the block to CSR per the shared format policy, and
runs the rest of the program over non-zeros only.

Run:  PYTHONPATH=src python examples/sparse_adaptive.py
"""

import time

import numpy as np

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime.matrix import MatrixBlock


def build(block):
    x = api.matrix(block, name="X", nnz_unknown=True)
    return (x * 3.0) * api.abs_(x) * 0.5


def timed(engine, block):
    api.eval(build(block), engine=engine)  # warmup: compile + plan cache
    start = time.perf_counter()
    result = api.eval(build(block), engine=engine)
    return time.perf_counter() - start, result


def main():
    rng = np.random.default_rng(42)
    rows, cols, density = 4_000, 3_000, 0.01
    arr = np.zeros((rows, cols))
    mask = rng.random((rows, cols)) < density
    arr[mask] = rng.random(int(mask.sum())) + 0.5
    block = MatrixBlock(arr)  # dense-stored, 1% non-zero
    print(f"input: {rows}x{cols}, {density:.0%} dense, stored dense, "
          "nnz unknown at compile time\n")

    frozen_engine = Engine("gen", CodegenConfig(adaptive_recompile=False))
    adaptive_engine = Engine("gen", CodegenConfig(adaptive_recompile=True))

    frozen_time, frozen = timed(frozen_engine, block)
    adaptive_time, adapted = timed(adaptive_engine, block)

    print(f"estimate-frozen plan : {frozen_time * 1e3:8.1f} ms")
    print(f"adaptive recompile   : {adaptive_time * 1e3:8.1f} ms "
          f"({frozen_time / adaptive_time:.2f}x)")
    print(f"bit-identical        : "
          f"{np.array_equal(frozen.to_dense(), adapted.to_dense())}")
    stats = adaptive_engine.stats
    print(f"\nadaptive counters    : marked={stats.n_marked_instructions} "
          f"checks={stats.n_meta_checks} misses={stats.n_estimate_misses} "
          f"recompiles={stats.n_recompiles} "
          f"conversions={stats.n_format_conversions}")
    print(f"divergence histogram : {stats.recompile_divergence_hist}")


if __name__ == "__main__":
    main()
