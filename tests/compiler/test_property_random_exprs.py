"""Property-based engine equivalence on randomly generated DAGs.

A hypothesis strategy builds random expression DAGs (cell chains,
broadcasts, aggregations, matmult chains, shared subexpressions) and
asserts that all execution engines — including the fusing ones — agree
with the base interpreter.

The differential harness additionally runs every random expression
under the three *execution strategies* of the fusing engine — serial
skeletons, intra-operator parallel (2 and 4 partition threads), and the
simulated Spark backend — and asserts allclose equivalence, keeping the
strategies provably interchangeable.  Each strategy evaluates every
expression twice on one engine: the first pass compiles the DAG's shape,
the second runs the cached program (a program-cache hit), and both must
match the base interpreter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.compiler.execution import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.runtime import parallel
from repro.runtime.matrix import MatrixBlock
from tests.conftest import assert_engines_agree, as_array

ROWS, COLS = 40, 12

_SAFE_UNARY = ["abs", "sqrt_abs", "sigmoid", "pow2", "exp_small", "round"]
_BINARY = ["+", "-", "*", "min", "max"]


def _apply_unary(name, expr):
    if name == "abs":
        return api.abs_(expr)
    if name == "sqrt_abs":
        return api.sqrt(api.abs_(expr))
    if name == "sigmoid":
        return api.sigmoid(expr)
    if name == "pow2":
        return expr * expr
    if name == "exp_small":
        return api.exp(expr * 0.1)
    if name == "round":
        return api.round_(expr)
    raise AssertionError(name)


@st.composite
def expression_dags(draw):
    """Build 1-3 root expressions over a small shared leaf pool."""
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    n_leaves = draw(st.integers(2, 4))
    leaves = []
    for i in range(n_leaves):
        sparse = draw(st.booleans())
        if sparse:
            block = MatrixBlock.rand(
                ROWS, COLS, sparsity=0.15, seed=seed + i, low=0.2, high=1.5
            )
        else:
            block = MatrixBlock(rng.uniform(-1.0, 1.0, (ROWS, COLS)))
        leaves.append(block)
    col_vec = MatrixBlock(rng.uniform(0.5, 1.5, (ROWS, 1)))
    row_vec = MatrixBlock(rng.uniform(0.5, 1.5, (1, COLS)))

    n_ops = draw(st.integers(2, 10))
    op_script = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["unary", "binary", "scalar", "vector"]))
        if kind == "unary":
            op_script.append(("unary", draw(st.sampled_from(_SAFE_UNARY))))
        elif kind == "binary":
            op_script.append(
                ("binary", draw(st.sampled_from(_BINARY)), draw(st.integers(0, 7)))
            )
        elif kind == "scalar":
            op_script.append(
                ("scalar", draw(st.sampled_from(_BINARY)),
                 draw(st.floats(0.25, 2.0)))
            )
        else:
            op_script.append(
                ("vector", draw(st.sampled_from(["+", "*"])), draw(st.booleans()))
            )
    finishers = draw(
        st.lists(
            st.sampled_from(["sum", "mean", "row_sums", "col_sums", "raw",
                             "mv_chain"]),
            min_size=1,
            max_size=3,
        )
    )
    return leaves, col_vec, row_vec, op_script, finishers, seed


def _build(leaves, col_vec, row_vec, op_script, finishers, seed):
    mats = [api.matrix(block, f"L{i}") for i, block in enumerate(leaves)]
    cvec = api.matrix(col_vec, "cv")
    rvec = api.matrix(row_vec, "rv")
    pool = list(mats)
    expr = mats[0]
    for step in op_script:
        if step[0] == "unary":
            expr = _apply_unary(step[1], expr)
        elif step[0] == "binary":
            other = pool[step[2] % len(pool)]
            expr = api.Mat(
                __import__("repro.hops.hop", fromlist=["BinaryOp"]).BinaryOp(
                    step[1], expr.hop, other.hop
                )
            )
        elif step[0] == "scalar":
            expr = api.Mat(
                __import__("repro.hops.hop", fromlist=["BinaryOp"]).BinaryOp(
                    step[1], expr.hop, api.scalar(step[2]).hop
                )
            )
        else:
            vec = cvec if step[2] else rvec
            expr = expr * vec if step[1] == "*" else expr + vec
        pool.append(expr)

    rng = np.random.default_rng(seed)
    roots = []
    for finisher in finishers:
        base = pool[rng.integers(0, len(pool))]
        if finisher == "sum":
            roots.append(base.sum())
        elif finisher == "mean":
            roots.append(base.mean())
        elif finisher == "row_sums":
            roots.append(base.row_sums())
        elif finisher == "col_sums":
            roots.append(base.col_sums())
        elif finisher == "mv_chain":
            v = api.matrix(rng.uniform(0.1, 1.0, (COLS, 1)), "v")
            roots.append(base.T @ (base @ v))
        else:
            roots.append(base)
    return roots


@given(expression_dags())
@settings(max_examples=40, deadline=None)
def test_all_engines_agree_on_random_dags(dag):
    leaves, col_vec, row_vec, op_script, finishers, seed = dag
    assert_engines_agree(
        lambda: _build(leaves, col_vec, row_vec, op_script, finishers, seed),
        rtol=1e-7,
        atol=1e-9,
    )


def _strategy_configs() -> dict[str, CodegenConfig]:
    """The three execution strategies of the fusing engine.

    The intra-op legs lower the parallelism threshold to one cell (what
    the ``parallel_tiny_ops`` fixture does, here per leg), so the
    parallel skeleton paths actually execute on the small property-test
    matrices; the spark config keeps the default driver budget so
    exec-type selection still distributes only oversized operators —
    ``local_mem_budget=0`` would push every tiny operator through the
    cluster path, which the distributed tests already cover.

    Every strategy must agree with the base interpreter, whose unfused
    ``runtime/ops.py`` kernels share only the cell-function table
    (``runtime/vector.py``) with the generated operators — and that
    table is itself tested against ``math`` references
    (``tests/runtime/test_vector.py``).

    The ``verified`` leg is the static-analysis differential check:
    every random DAG also compiles and runs under ``verify_level=full``
    (per-pass DAG verification, post-lowering program verification,
    generated-kernel lint), asserting the verifier reports zero
    findings on healthy programs — the false-positive guard for the
    analysis passes.
    """
    return {
        "serial": CodegenConfig(intra_op_threads=1),
        "intra-op-2": CodegenConfig(intra_op_threads=2),
        "intra-op-4": CodegenConfig(intra_op_threads=4),
        "spark": CodegenConfig(cluster=ClusterConfig(),
                               local_mem_budget=1e4),
        "spark-mp": CodegenConfig(cluster=ClusterConfig(),
                                  local_mem_budget=1e4,
                                  distributed_backend="multiprocess",
                                  mp_workers=2),
        "verified": CodegenConfig(intra_op_threads=1, verify_level="full"),
    }


@given(expression_dags())
@settings(max_examples=25, deadline=None)
def test_execution_strategies_agree_on_random_dags(dag):
    """Differential harness: serial vs intra-op parallel vs spark."""
    leaves, col_vec, row_vec, op_script, finishers, seed = dag

    def build():
        return _build(leaves, col_vec, row_vec, op_script, finishers, seed)

    reference = [
        as_array(v)
        for v in api.eval_all(build(), engine=Engine(mode="base"))
    ]
    by_strategy = {}
    for name, config in _strategy_configs().items():
        # Hypothesis runs every example in one test call, so the
        # fixture's monkeypatch would outlive the leg.
        with pytest.MonkeyPatch.context() as patch:
            if config.intra_op_threads > 1:
                patch.setattr(parallel, "PARALLEL_MIN_CELLS", 1)
            engine = Engine(mode="gen", config=config)
            for cache_pass in ("miss", "hit"):
                results = [
                    as_array(v) for v in api.eval_all(build(), engine=engine)
                ]
                assert len(results) == len(reference)
                for idx, (expected, actual) in enumerate(
                        zip(reference, results)):
                    np.testing.assert_allclose(
                        actual, expected, rtol=1e-7, atol=1e-9,
                        err_msg=(f"strategy={name} pass={cache_pass} "
                                 f"output={idx}"),
                    )
        by_strategy[name] = results
        assert engine.stats.n_specialization_misses == 1
        assert engine.stats.n_specialization_hits == 1
        if config.verify_level != "off":
            # Healthy programs must verify clean: a finding here is a
            # verifier false positive (or a genuine compiler bug).
            assert engine.stats.n_verifier_findings == 0
            assert engine.stats.n_lint_rejects == 0
            assert engine.stats.n_verified_programs > 0
    # The multiprocess backend replays the exact simulated per-partition
    # kernels, so the two distributed backends must agree to the bit.
    for idx, (sim, mp) in enumerate(
        zip(by_strategy["spark"], by_strategy["spark-mp"])
    ):
        np.testing.assert_array_equal(
            sim, mp, err_msg=f"spark vs spark-mp output={idx}"
        )


def _quantize_and_compress(leaves, seed):
    """Per-leaf compressed variants covering all encodings.

    Rotates DDC (few distinct dense values), OLE-with-implicit-zero
    (zero-dominated), and co-coded groups; returns the quantized blocks
    (the oracle inputs) alongside their compressed twins.
    """
    from repro.runtime.compressed import compress

    rng = np.random.default_rng(seed)
    quantized, compressed = [], []
    for i, block in enumerate(leaves):
        style = i % 3
        if style == 0:
            arr = np.round(block.to_dense() * 2.0)
            comp = compress(MatrixBlock(arr), co_code=False)
        elif style == 1:
            dense = block.to_dense()
            arr = np.where(np.abs(dense) > 0.8, np.round(dense * 2.0), 0.0)
            comp = compress(MatrixBlock(arr), co_code=False)
            assert any(g.encoding == "ole" for g in comp.groups)
        else:
            arr = rng.integers(0, 3, (ROWS, COLS)).astype(np.float64)
            comp = compress(MatrixBlock(arr), co_code=True)
        quantized.append(MatrixBlock(arr))
        compressed.append(comp)
    return quantized, compressed


def _to_array(value):
    from repro.runtime.compressed import CompressedMatrix

    if isinstance(value, CompressedMatrix):
        return value.decompress().to_dense()
    return as_array(value)


@given(expression_dags())
@settings(max_examples=15, deadline=None)
def test_compressed_inputs_match_decompressed_oracle(dag):
    """Compressed leg of the differential harness: random DAGs over
    DDC / OLE-implicit / co-coded inputs vs the decompressed oracle."""
    leaves, col_vec, row_vec, op_script, finishers, seed = dag
    quantized, compressed = _quantize_and_compress(leaves, seed)

    reference = [
        _to_array(v)
        for v in api.eval_all(
            _build(quantized, col_vec, row_vec, op_script, finishers, seed),
            engine=Engine(mode="base"),
        )
    ]
    for mode in ["base", "fused", "gen"]:
        engine = Engine(mode=mode)
        for cache_pass in ("miss", "hit"):
            results = [
                _to_array(v)
                for v in api.eval_all(
                    _build(compressed, col_vec, row_vec, op_script,
                           finishers, seed),
                    engine=engine,
                )
            ]
            assert len(results) == len(reference)
            for idx, (expected, actual) in enumerate(zip(reference, results)):
                np.testing.assert_allclose(
                    actual, expected, rtol=1e-7, atol=1e-9,
                    err_msg=f"mode={mode} pass={cache_pass} output={idx}",
                )
        assert engine.stats.n_specialization_hits == 1
