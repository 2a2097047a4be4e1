"""The benchmark's four workloads.

Each workload knows how to make its inputs from a seed (plain NumPy /
SciPy, so the load generator does not change when the program does),
how to compute the reference answer, and how to open a *session*: the
program set up on those inputs, whose ``op()`` runs one operation and
returns ``(loss, model)`` as NumPy values for the check.

``repro`` is imported inside :meth:`Workload.open` only, because set-up
time is measured from ``import repro`` on.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter

import numpy as np
import scipy.sparse as sp

from benchmarks.e2e import reference

#: Engine modes of the paper's comparison; ``gen`` is the one measured.
MODES = ("base", "fused", "gen", "gen-fa", "gen-fnr")

_LAM = 1e-3


class Session:
    """The program set up on one workload's inputs.

    ``fit(engine)`` runs the algorithm once.  With ``fresh_engine`` every
    op builds (and closes) its own engine, so each op compiles cold; the
    counters of closed engines are kept so ``stats_totals`` stays
    cumulative either way.
    """

    def __init__(self, make_engine, fit, fresh_engine: bool):
        self._make_engine = make_engine
        self._fit = fit
        self._closed_totals: Counter = Counter()
        self._engine = None if fresh_engine else make_engine()

    def op(self):
        engine = self._engine or self._make_engine()
        try:
            result = self._fit(engine)
        finally:
            if self._engine is None:
                self._closed_totals.update(_numeric_stats(engine.stats))
                engine.close()
        model = {name: np.array(block.to_dense())
                 for name, block in result.model.items()}
        return float(result.final_loss), model

    def stats_totals(self) -> Counter:
        """Cumulative ``engine.stats`` counters over every op so far."""
        totals = Counter(self._closed_totals)
        if self._engine is not None:
            totals.update(_numeric_stats(self._engine.stats))
        return totals

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()


def _numeric_stats(stats) -> dict:
    return {
        spec.name: getattr(stats, spec.name)
        for spec in dataclasses.fields(stats)
        if isinstance(getattr(stats, spec.name), (int, float))
    }


def _labels(x: np.ndarray, rng, low: float) -> np.ndarray:
    """Balanced noisy linear labels in ``{low, 1}``."""
    scores = x @ rng.normal(size=(x.shape[1], 1))
    scores += 0.1 * rng.normal(size=scores.shape)
    return np.where(scores > np.median(scores), 1.0, low)


class Workload:
    """One workload: sizes, inputs, reference and session factory."""

    name: str
    #: Full and ``--smoke`` input sizes.
    size: dict
    smoke_size: dict
    #: Checked but untimed ops between set-up and the timed section.
    warmups = 3
    #: A trial times at least this many ops, however long they take.
    min_ops = 10

    def make_inputs(self, seed: int, size: dict) -> dict:
        raise NotImplementedError

    def reference(self, inputs: dict):
        raise NotImplementedError

    def open(self, inputs: dict, mode: str = "gen") -> Session:
        raise NotImplementedError


class DenseL2SVM(Workload):
    """L2SVM on a dense matrix past the last-level cache (Table 4)."""

    name = "dense-l2svm"
    size = {"rows": 200_000, "cols": 100}
    smoke_size = {"rows": 4_000, "cols": 20}
    #: Fixed counts, tolerance off: the same work for every seed.
    max_iter, max_inner = 2, 2

    def make_inputs(self, seed, size):
        rng = np.random.default_rng(seed)
        x = rng.random((size["rows"], size["cols"]))
        return {"x": x, "y": _labels(x, rng, low=-1.0)}

    def reference(self, inputs):
        return reference.l2svm(inputs["x"], inputs["y"], _LAM,
                               self.max_iter, self.max_inner)

    def config(self, inputs):
        return None

    def open(self, inputs, mode="gen"):
        from repro import MatrixBlock
        from repro.algorithms import l2svm
        from repro.compiler import Engine

        # Wrapped once: the distributed backend keys worker-side block
        # caches by the identity of the input block.
        x, y = MatrixBlock(inputs["x"]), MatrixBlock(inputs["y"])
        config = self.config(inputs)
        return Session(
            lambda: Engine(mode, config=config),
            lambda engine: l2svm(x, y, engine=engine, lam=_LAM, tol=0.0,
                                 max_iter=self.max_iter,
                                 max_inner=self.max_inner),
            fresh_engine=False,
        )


class DistMP(DenseL2SVM):
    """The same L2SVM with X-touching operators on worker processes
    (Table 6): the driver budget is an eighth of X, so every operator
    reading X is typed SPARK and vector-only operators stay local."""

    name = "dist-mp"

    def config(self, inputs):
        from repro import ClusterConfig, CodegenConfig

        cpus = os.cpu_count() or 1
        return CodegenConfig(
            cluster=ClusterConfig(n_workers=cpus, executor_mem=1e9),
            local_mem_budget=inputs["x"].nbytes / 8,
            distributed_backend="multiprocess",
            mp_workers=cpus,
        )


class SparseALS(Workload):
    """ALS-CG on a sparse low-rank matrix (Table 5)."""

    name = "sparse-als"
    size = {"rows": 10_000, "cols": 1_000, "sparsity": 0.01}
    smoke_size = {"rows": 600, "cols": 200, "sparsity": 0.02}
    rank, max_inner, init_seed = 10, 3, 7

    def make_inputs(self, seed, size):
        rows, cols = size["rows"], size["cols"]
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.1, 1.0, size=(rows, self.rank))
        v = rng.uniform(0.1, 1.0, size=(cols, self.rank))
        nnz = int(round(size["sparsity"] * rows * cols))
        row_idx = rng.integers(0, rows, size=nnz)
        col_idx = rng.integers(0, cols, size=nnz)
        values = np.einsum("ij,ij->i", u[row_idx], v[col_idx])
        values += 0.05 * rng.normal(size=nnz)
        values[values <= 0] = 0.01
        x = sp.csr_matrix((values, (row_idx, col_idx)), shape=(rows, cols))
        x.sum_duplicates()
        return {"x": x}

    def reference(self, inputs):
        return reference.als_cg(inputs["x"], self.rank, _LAM,
                                self.max_inner, self.init_seed)

    def open(self, inputs, mode="gen"):
        from repro import MatrixBlock
        from repro.algorithms import als_cg
        from repro.compiler import Engine

        x = MatrixBlock(inputs["x"])
        return Session(
            lambda: Engine(mode),
            lambda engine: als_cg(x, rank=self.rank, engine=engine,
                                  lam=_LAM, tol=0.0, max_iter=1,
                                  max_inner=self.max_inner,
                                  seed=self.init_seed),
            fresh_engine=False,
        )


class CompileGLM(Workload):
    """Probit GLM on a tiny input with a fresh engine per op, so the op
    is a cold compile (Table 3, Figures 11-12)."""

    name = "compile-glm"
    size = {"rows": 500, "cols": 20}
    smoke_size = size
    max_iter, max_inner = 1, 2
    # One op is about a second and cannot be divided, so a trial times
    # five.  No warm-up: every engine is new, and the one thing ops share,
    # the process-wide exec-compile cache, is filled by the set-up op.
    warmups = 0
    min_ops = 5

    def make_inputs(self, seed, size):
        rng = np.random.default_rng(seed)
        x = rng.random((size["rows"], size["cols"]))
        return {"x": x, "y": _labels(x, rng, low=0.0)}

    def reference(self, inputs):
        return reference.glm_binomial_probit(
            inputs["x"], inputs["y"], _LAM, self.max_iter, self.max_inner
        )

    def open(self, inputs, mode="gen"):
        from repro import MatrixBlock
        from repro.algorithms import glm_binomial_probit
        from repro.compiler import Engine

        x, y = MatrixBlock(inputs["x"]), MatrixBlock(inputs["y"])
        return Session(
            lambda: Engine(mode),
            lambda engine: glm_binomial_probit(
                x, y, engine=engine, lam=_LAM, tol=0.0,
                max_iter=self.max_iter, max_inner=self.max_inner,
            ),
            fresh_engine=True,
        )


WORKLOADS = {w.name: w for w in
             (DenseL2SVM(), SparseALS(), CompileGLM(), DistMP())}
