"""``Engine.execute`` compiles once per DAG shape.

The structural signature (``compiler/symbolic.py``) decides what one
compiled program may serve: these tests move one ingredient of the key
at a time and check that a hit never returns a wrong value, that a hit
and a miss return the same bits, and that a cached program holds no
caller data.
"""

import gc
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro import api
from repro.algorithms import als_cg, l2svm
from repro.compiler import speccache
from repro.compiler.execution import Engine
from repro.compiler.symbolic import SymbolicBlock, dag_signature
from repro.config import ClusterConfig, CodegenConfig
from repro.hops.hop import SpoofOp, collect_dag
from repro.runtime.compressed import compress
from repro.runtime.matrix import MatrixBlock
from tests.conftest import ALL_MODES, as_array

ROWS, COLS = 60, 8


def _dense(seed, rows=ROWS, cols=COLS):
    return MatrixBlock(np.random.default_rng(seed).uniform(0.2, 1.5, (rows, cols)))


def _csr(seed, density, rows=ROWS, cols=COLS):
    return MatrixBlock(sp.random(rows, cols, density=density, format="csr",
                                 random_state=seed))


def _run(engine, build):
    """Evaluate ``build()`` on ``engine``; (values, was it a hit)."""
    hits = engine.stats.n_specialization_hits
    values = [as_array(v) for v in api.eval_all(build(), engine=engine)]
    return values, engine.stats.n_specialization_hits == hits + 1


def _base(build):
    return [as_array(v) for v in api.eval_all(build(), engine=Engine("base"))]


def _assert_close(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# ----------------------------------------------------------------------
# Hits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ALL_MODES)
def test_new_data_and_new_scalars_hit_and_match_base(mode):
    engine = Engine(mode)

    def build(seed, step, lam):
        x, y = api.matrix(_dense(seed), "X"), api.matrix(_dense(seed + 1), "Y")
        w = api.matrix(_dense(seed + 2, COLS, 1), "w")
        out = api.maximum(1.0 - y * (x + step * y), 0.0)
        return [(out * x).sum() * lam, x.T @ (out @ w), x + step * y]

    first, hit = _run(engine, lambda: build(1, 0.3, 1e-3))
    assert not hit
    _assert_close(first, _base(lambda: build(1, 0.3, 1e-3)))
    second, hit = _run(engine, lambda: build(7, 0.45, 2.5e-2))
    assert hit
    _assert_close(second, _base(lambda: build(7, 0.45, 2.5e-2)))
    assert engine.stats.n_programs_compiled == 1


def test_hit_and_miss_return_identical_bits():
    def build():
        x, y = api.matrix(_dense(3), "X"), api.matrix(_dense(4), "Y")
        return [(x * y * 0.37).sum(), api.exp(x * 0.11).row_sums(),
                x.T @ (x @ api.matrix(_dense(5, COLS, 1), "v"))]

    warm = Engine("gen")
    miss, hit = _run(warm, build)
    assert not hit
    again, hit = _run(warm, build)
    assert hit
    cold, _ = _run(Engine("gen"), build)
    for a, b, c in zip(miss, again, cold):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


def test_bound_scalar_is_read_at_run_time_not_baked():
    """The generated operator takes the step size as ``s[k]``."""
    engine = Engine("gen")
    x = _dense(1)

    def build(step):
        return [(api.matrix(x, "X") * step).sum()]

    for step in (0.3, 0.7, 1.25):
        (value,), _ = _run(engine, lambda: build(step))
        assert value == pytest.approx(float(x.to_dense().sum() * step))
    assert engine.stats.n_classes_compiled == 1
    (operator,) = engine.plan_cache._cache.values()
    assert "s[0]" in operator.source
    assert "0.3" not in operator.source


# ----------------------------------------------------------------------
# Every ingredient of the key, separately
# ----------------------------------------------------------------------
def _two(first, second, mode="gen"):
    """Run two builders on one engine: the second must miss, and both
    must match the base engine."""
    engine = Engine(mode)
    values, hit = _run(engine, first)
    assert not hit
    _assert_close(values, _base(first))
    values, hit = _run(engine, second)
    assert not hit, "a key ingredient changed but the program was reused"
    _assert_close(values, _base(second))
    assert engine.stats.n_specialization_misses == 2


def _expr(x_block, **leaf_options):
    def build():
        x = api.matrix(x_block, "X", **leaf_options)
        return [(x * 0.5 + 1.0).row_sums(), (x * x).sum()]
    return build


def test_dims_are_in_the_key():
    _two(_expr(_dense(1)), _expr(_dense(1, ROWS + 1, COLS)))
    _two(_expr(_dense(1)), _expr(_dense(1, ROWS, COLS + 1)))


def test_storage_format_is_in_the_key():
    csr = _csr(2, 0.6)
    assert csr.is_sparse
    _two(_expr(MatrixBlock(csr.to_dense())), _expr(csr))


def test_sparsity_class_is_in_the_key():
    sparse, hyper = _csr(2, 0.2, 200, 50), _csr(2, 0.005, 200, 50)
    assert sparse.is_sparse and hyper.is_sparse
    _two(_expr(sparse), _expr(hyper))
    # Same class, other data and another nnz: one program.
    engine = Engine("gen")
    assert not _run(engine, _expr(sparse))[1]
    assert _run(engine, _expr(_csr(9, 0.25, 200, 50)))[1]


def test_nnz_unknown_is_in_the_key():
    block = _csr(4, 0.2)
    _two(_expr(block), _expr(block, nnz_unknown=True))


def test_integer_valued_literal_stays_by_value():
    x = _dense(1)
    _two(lambda: [(api.matrix(x, "X") * 2.0).sum()],
         lambda: [(api.matrix(x, "X") * 3.0).sum()])


def test_value_sensitive_literal_stays_by_value():
    """``X > 0.5`` keeps zeros zero, ``X > -0.5`` does not: a threshold
    is never a run-time scalar, whatever its value."""
    x = _csr(5, 0.2)
    _two(lambda: [(api.matrix(x, "X") > 0.5).sum()],
         lambda: [(api.matrix(x, "X") > -0.5).sum()])
    _two(lambda: [(api.matrix(x, "X") + 0.25).sum()],
         lambda: [(api.matrix(x, "X") + 0.75).sum()])


def test_leaf_aliasing_is_in_the_key():
    g, h = _dense(1), _dense(2)
    _two(lambda: [(api.matrix(g, "g") * api.matrix(g, "g")).sum()],
         lambda: [(api.matrix(g, "g") * api.matrix(h, "h")).sum()])


def test_bound_scalar_aliasing_is_in_the_key():
    x, y = _dense(1), _dense(2)

    def build(p, q):
        return lambda: [p * api.matrix(x, "X") + q * api.matrix(y, "Y")]

    _two(build(0.3, 0.3), build(0.3, 0.6))
    # The other way round as well: a program compiled for two distinct
    # scalars is not reused when they coincide.
    _two(build(0.3, 0.6), build(0.4, 0.4))


def test_root_order_is_in_the_key():
    x = _dense(1)

    def build(flip):
        def roots():
            m = api.matrix(x, "X")
            pair = [(m * 0.5).sum(), m.col_sums()]
            return pair[::-1] if flip else pair
        return roots

    _two(build(False), build(True))


@pytest.mark.parametrize("mode", ["base", "fused", "gen"])
def test_zero_and_nonzero_step_are_two_programs_and_both_right(mode):
    """L2SVM's line search starts at ``step_sz = 0.0``: integer-valued,
    so by value, so its own program."""
    xw, xd = _dense(1, ROWS, 1), _dense(2, ROWS, 1)

    def build(step):
        def roots():
            out = api.maximum(
                1.0 - api.matrix(xw, "Xw") + step * api.matrix(xd, "Xd"), 0.0
            )
            return [(out * out).sum(), out]
        return roots

    _two(build(0.0), build(0.3), mode=mode)


def test_compressed_leaf_is_keyed_by_identity_and_held():
    rng = np.random.default_rng(0)
    blocks = [compress(MatrixBlock(rng.integers(0, 3, (400, 6)).astype(float)))
              for _ in range(2)]

    def build(block):
        return lambda: [(api.matrix(block, "C") * 0.5).sum()]

    engine = Engine("gen")
    first, hit = _run(engine, build(blocks[0]))
    assert not hit
    assert _run(engine, build(blocks[0]))[1]
    second, hit = _run(engine, build(blocks[1]))
    assert not hit
    for values, block in ((first, blocks[0]), (second, blocks[1])):
        assert values[0] == pytest.approx(
            float(block.decompress().to_dense().sum() * 0.5)
        )


# ----------------------------------------------------------------------
# Config: what a caller may change on a live engine
# ----------------------------------------------------------------------
def test_verify_level_change_compiles_a_verified_program():
    engine = Engine("gen")
    build = _expr(_dense(1))
    _run(engine, build)
    assert engine.stats.n_verified_programs == 0
    engine.config.verify_level = "boundaries"
    values, hit = _run(engine, build)
    assert not hit and engine.stats.n_verified_programs == 1
    _assert_close(values, _base(build))
    engine.config.verify_level = "off"
    assert _run(engine, build)[1]  # the unverified program is still there


def test_cluster_and_budget_changes_never_run_a_stale_program():
    from repro.hops.types import ExecType

    engine = Engine("gen", CodegenConfig(cluster=ClusterConfig()))
    build = _expr(_dense(1, 400, 20))

    def n_spark():
        newest = list(engine._programs._entries.values())[-1]
        return sum(instr.hop.exec_type is ExecType.SPARK
                   for instr in newest.program.instructions)

    reference = _base(build)
    _assert_close(_run(engine, build)[0], reference)
    assert n_spark() == 0  # everything fits the default driver budget
    engine.config.local_mem_budget = 1e3
    values, hit = _run(engine, build)
    assert not hit and n_spark() > 0
    _assert_close(values, reference)
    engine.config.cluster = ClusterConfig(n_workers=3)
    values, hit = _run(engine, build)
    assert not hit
    _assert_close(values, reference)


def test_plan_cache_disabled_disables_the_program_cache():
    engine = Engine("gen", CodegenConfig(plan_cache_enabled=False))
    build = _expr(_dense(1))
    for _ in range(3):
        _run(engine, build)
    assert engine.stats.n_programs_compiled == 3
    assert engine.stats.n_specialization_hits == 0
    assert engine.stats.n_specialization_misses == 0


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
def test_spliced_dags_bypass_the_cache():
    """A DAG that already holds fused operators has no signature: it
    compiles the ordinary way, every time, and is never cached."""
    x, y = _dense(1), _dense(2)
    root = api.sqrt((api.matrix(x, "X") * api.matrix(y, "Y") * 2.0).sum())
    expected = float(np.sqrt((x.to_dense() * y.to_dense() * 2.0).sum()))
    engine = Engine("gen")
    engine.compile([root.hop])  # splices the caller's DAG in place
    assert any(isinstance(h, SpoofOp) for h in collect_dag([root.hop]))
    assert dag_signature([root.hop]) is None
    for n_compiled in (2, 3):
        assert api.eval(root, engine=engine) == pytest.approx(expected)
        assert engine.stats.n_programs_compiled == n_compiled
    stats = engine.stats
    assert stats.n_specialization_hits == stats.n_specialization_misses == 0


def test_execute_leaves_the_callers_dag_as_built():
    x = api.matrix(_dense(1), "X")
    root = (x * x * 0.5).sum()
    before = [(h.id, h.opcode()) for h in collect_dag([root.hop])]
    engine = Engine("gen")
    first = api.eval(root, engine=engine)
    assert [(h.id, h.opcode()) for h in collect_dag([root.hop])] == before
    assert api.eval(root, engine=engine) == first  # and it hits
    assert engine.stats.n_specialization_hits == 1


def test_marked_programs_are_cached_and_still_recompile_per_run():
    engine = Engine("gen")

    def build(seed):
        block = _csr(seed, 0.02, 400, 50)
        x = api.matrix(block, "X", nnz_unknown=True)
        return [(x * 0.5 + x * x).row_sums()]

    for runs, seed in enumerate((1, 2, 3), start=1):
        values, hit = _run(engine, lambda: build(seed))
        assert hit == (runs > 1)
        _assert_close(values, _base(lambda: build(seed)))
        assert engine.stats.n_recompiles == runs
    assert engine.stats.n_specialization_misses == 1


def test_a_cached_program_holds_no_matrix_block():
    engine = Engine("gen")
    block = _dense(1)
    ref = weakref.ref(block)
    api.eval((api.matrix(block, "X") * 0.5).sum(), engine=engine)
    (entry,) = engine._programs._entries.values()
    constants = [value for _, value in entry.program.constants]
    assert any(isinstance(v, SymbolicBlock) for v in constants)
    assert not any(isinstance(v, MatrixBlock) for v in constants)
    del block
    gc.collect()
    assert ref() is None


# ----------------------------------------------------------------------
# The cache class
# ----------------------------------------------------------------------
def test_eight_threads_on_one_key_compile_once():
    engine = Engine("gen")
    x, y = _dense(1, 200, 20), _dense(2, 200, 20)

    def build():
        return [(api.matrix(x, "X") * api.matrix(y, "Y") * 0.5).sum(),
                api.exp(api.matrix(x, "X") * 0.25).row_sums()]

    expected = _base(build)
    barrier = threading.Barrier(8)
    results, errors = [], []

    def worker():
        try:
            barrier.wait(timeout=30)
            results.append(_run(engine, build)[0])
        except BaseException as exc:  # surfaces in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors and len(results) == 8
    for values in results:
        _assert_close(values, expected)
    assert engine.stats.n_programs_compiled == 1
    assert engine.stats.n_specialization_misses == 1
    assert engine.stats.n_specialization_hits == 7


def test_failed_compile_hands_the_key_to_the_next_caller():
    cache = speccache.SpecializationCache(capacity=4)
    stats = Engine("base").stats

    def boom():
        raise ValueError("compile failed")

    with pytest.raises(ValueError):
        cache.get_or_build("k", boom, stats)
    assert len(cache) == 0
    assert cache.get_or_build("k", lambda: "program", stats) == "program"
    assert cache.get_or_build("k", boom, stats) == "program"
    assert (stats.n_specialization_misses, stats.n_specialization_hits) == (1, 1)


def test_lru_eviction_at_capacity():
    engine = Engine("gen")
    assert engine._programs.capacity == speccache.PROGRAM_CACHE_CAPACITY
    engine._programs.capacity = 2

    def build(rows):
        return _expr(_dense(1, rows, COLS))

    for rows in (10, 20, 30):  # 10 is evicted by 30
        assert not _run(engine, build(rows))[1]
    assert len(engine._programs) == 2
    assert _run(engine, build(30))[1]
    assert _run(engine, build(20))[1]
    assert not _run(engine, build(10))[1]  # recompiled; evicts 30
    assert _run(engine, build(20))[1]
    assert not _run(engine, build(30))[1]


# ----------------------------------------------------------------------
# The traffic the benchmark cannot be: no two iterations alike
# ----------------------------------------------------------------------
def _svm_data():
    rng = np.random.default_rng(3)
    x = rng.random((5000, 30))
    scores = x @ rng.normal(size=(30, 1)) + 0.1 * rng.normal(size=(5000, 1))
    return x, np.where(scores > np.median(scores), 1.0, -1.0)


def test_l2svm_compiles_per_dag_shape_not_per_iteration():
    """Step sizes, CG betas and gradients differ in every iteration; the
    DAG shapes do not.  Without shape-keyed programs: 53 classes for 8
    iterations.  The second engine finds every operator in the
    process-wide plan cache and compiles none."""
    x, y = _svm_data()
    compiled = {}
    for max_iter in (3, 8):
        engine = Engine("gen")
        result = l2svm(x, y, engine=engine, max_iter=max_iter)
        assert result.n_outer_iterations == max_iter
        compiled[max_iter] = (engine.stats.n_programs_compiled,
                              engine.stats.n_classes_compiled)
        base = l2svm(x, y, engine=Engine("base"), max_iter=max_iter)
        np.testing.assert_allclose(result.model["w"].to_dense(),
                                   base.model["w"].to_dense(),
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(result.losses, base.losses, rtol=1e-6)
    # Every shape was seen by iteration 3: five more compile nothing.
    assert compiled[8][0] == compiled[3][0]
    assert compiled[8][1] == 0
    programs, classes = compiled[3]
    assert programs <= 12 and 0 < classes <= 14


def test_als_cg_compiles_per_dag_shape_not_per_iteration():
    x = MatrixBlock(sp.random(600, 200, density=0.02, random_state=1,
                              format="csr"))
    compiled = {}
    for max_iter in (2, 3):
        engine = Engine("gen")
        result = als_cg(x, rank=5, engine=engine, max_iter=max_iter)
        compiled[max_iter] = (engine.stats.n_programs_compiled,
                              engine.stats.n_classes_compiled)
        base = als_cg(x, rank=5, engine=Engine("base"), max_iter=max_iter)
        np.testing.assert_allclose(result.losses, base.losses, rtol=1e-6)
        for name in ("U", "V"):
            np.testing.assert_allclose(result.model[name].to_dense(),
                                       base.model[name].to_dense(),
                                       rtol=1e-6, atol=1e-9)
    assert compiled[3][0] == compiled[2][0]
    assert compiled[3][1] == 0  # every operator from the plan cache
    programs, classes = compiled[2]
    assert programs <= 20 and 0 < classes <= 12
