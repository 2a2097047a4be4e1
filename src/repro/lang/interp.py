"""Statement-block interpreter for the DML-subset language.

Executes a parsed script against an execution engine.  Straight-line
assignments accumulate *lazily* as HOP expressions; whenever control
flow needs a scalar (a condition, loop bound, or ``as.scalar``), all
pending expressions flush as one multi-root DAG through the engine —
the statement-block semantics of SystemML, which is what exposes
cross-statement fusion and multi-aggregates to the code generator.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro import api
from repro.errors import LanguageError
from repro.hops.hop import DataOp, LiteralOp
from repro.lang import ast as A
from repro.lang.parser import parse
from repro.runtime.matrix import MatrixBlock

Value = Union[api.Mat, float]


def run_script(source: str, inputs: dict | None = None, engine=None) -> dict:
    """Parse and execute a script; returns the final variable bindings.

    ``inputs`` maps variable names to numpy arrays / MatrixBlocks /
    floats.  Matrix results come back as MatrixBlocks, scalars as
    floats.

    Without an explicit ``engine`` the process-wide shared engine is
    used, so repeated interpreter calls reuse warm plan and operator
    caches instead of paying a fresh compile pipeline per call.
    """
    if engine is None:
        from repro.compiler.execution import shared_engine

        engine = shared_engine("gen")
    interp = Interpreter(engine)
    for name, value in (inputs or {}).items():
        interp.bind(name, value)
    interp.execute(parse(source))
    interp.flush()
    return interp.exports()


class Interpreter:
    """Evaluates statements with lazy statement-block semantics."""

    def __init__(self, engine):
        self.engine = engine
        self.env: dict[str, Value] = {}

    # ------------------------------------------------------------------
    def bind(self, name: str, value) -> None:
        if isinstance(value, (int, float, np.floating, np.integer)):
            self.env[name] = float(value)
        elif isinstance(value, api.Mat):
            self.env[name] = value
        else:
            self.env[name] = api.matrix(value, name=name)

    def exports(self) -> dict:
        out = {}
        for name, value in self.env.items():
            if isinstance(value, api.Mat):
                hop = value.hop
                assert isinstance(hop, DataOp), "flush() must precede exports()"
                out[name] = hop.data
            else:
                out[name] = value
        return out

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def execute(self, node) -> None:
        if isinstance(node, A.Script):
            for stmt in node.body:
                self.execute(stmt)
            return
        if isinstance(node, A.Assign):
            self.env[node.name] = self.compile_expr(node.value)
            return
        if isinstance(node, A.InputDecl):
            missing = [n for n in node.names if n not in self.env]
            if missing:
                raise LanguageError(
                    f"declared input(s) not bound: {missing}"
                )
            return
        if isinstance(node, A.ExprStmt):
            self.compile_expr(node.value)
            return
        if isinstance(node, A.If):
            if self.force_scalar_expr(node.cond) != 0.0:
                for stmt in node.then_body:
                    self.execute(stmt)
            else:
                for stmt in node.else_body:
                    self.execute(stmt)
            return
        if isinstance(node, A.While):
            while self.force_scalar_expr(node.cond) != 0.0:
                for stmt in node.body:
                    self.execute(stmt)
                # Loop bodies are statement blocks: flush per iteration
                # (SystemML recompiles block DAGs during runtime).
                self.flush()
            return
        if isinstance(node, A.For):
            start = int(self.force_scalar_expr(node.start))
            stop = int(self.force_scalar_expr(node.stop))
            for i in range(start, stop + 1):
                self.env[node.var] = float(i)
                for stmt in node.body:
                    self.execute(stmt)
                self.flush()
            return
        raise LanguageError(f"cannot execute {type(node).__name__}")

    # ------------------------------------------------------------------
    # Flushing: evaluate all pending lazy expressions as one DAG
    # ------------------------------------------------------------------
    def _is_pending(self, value: Value) -> bool:
        return isinstance(value, api.Mat) and not isinstance(
            value.hop, (DataOp,)
        )

    def flush(self, extra: list[api.Mat] | None = None) -> list:
        pending_names = [n for n, v in self.env.items() if self._is_pending(v)]
        extra = extra or []
        exprs = [self.env[n] for n in pending_names] + extra
        if not exprs:
            return []
        results = api.eval_all(exprs, engine=self.engine)
        for name, result in zip(pending_names, results):
            if isinstance(result, float):
                self.env[name] = result
            else:
                self.env[name] = api.matrix(result, name=name)
        return results[len(pending_names):]

    def force_scalar_expr(self, expr: A.Expr) -> float:
        value = self.compile_expr(expr)
        return self.force_scalar(value)

    def force_scalar(self, value: Value) -> float:
        if isinstance(value, float):
            return value
        if isinstance(value.hop, LiteralOp):
            return value.hop.value
        if not value.hop.is_scalar and not value.hop.dims == (1, 1):
            raise LanguageError("expected a scalar expression")
        (result,) = self.flush([value])
        if isinstance(result, MatrixBlock):
            return result.as_scalar()
        return float(result)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def compile_expr(self, expr: A.Expr) -> Value:
        if isinstance(expr, A.Num):
            return expr.value
        if isinstance(expr, A.Str):
            raise LanguageError("string values are only valid as arguments")
        if isinstance(expr, A.Var):
            if expr.name not in self.env:
                raise LanguageError(f"undefined variable '{expr.name}'")
            return self.env[expr.name]
        if isinstance(expr, A.Unary):
            operand = self.compile_expr(expr.operand)
            if expr.op == "-":
                return -operand if isinstance(operand, float) else -operand
            if isinstance(operand, float):
                return 0.0 if operand != 0 else 1.0
            return api.logical_not(operand)
        if isinstance(expr, A.Binary):
            return self._binary(expr)
        if isinstance(expr, A.Index):
            return self._index(expr)
        if isinstance(expr, A.Call):
            return self._call(expr)
        raise LanguageError(f"cannot compile {type(expr).__name__}")

    def _binary(self, expr: A.Binary) -> Value:
        left = self.compile_expr(expr.left)
        right = self.compile_expr(expr.right)
        if expr.op == "%*%":
            if isinstance(left, float) or isinstance(right, float):
                raise LanguageError("%*% requires matrix operands")
            return left @ right
        if isinstance(left, float) and isinstance(right, float):
            from repro.runtime import ops as rops

            return float(rops.binary(expr.op, left, right))
        lhs = left if isinstance(left, api.Mat) else api.scalar(left)
        rhs = right if isinstance(right, api.Mat) else api.scalar(right)
        from repro.hops.hop import BinaryOp

        return api.Mat(BinaryOp(expr.op, lhs.hop, rhs.hop))

    def _index(self, expr: A.Index) -> Value:
        target = self.compile_expr(expr.target)
        if not isinstance(target, api.Mat):
            raise LanguageError("indexing requires a matrix")
        rows, cols = target.shape

        def bound(node, default):
            if node is None:
                return default
            return int(self.force_scalar_expr(node))

        row_lo = bound(expr.row_lo, 1)
        row_hi = bound(expr.row_hi, rows)
        col_lo = bound(expr.col_lo, 1)
        col_hi = bound(expr.col_hi, cols)
        # DML is 1-based with inclusive upper bounds.
        return target[row_lo - 1 : row_hi, col_lo - 1 : col_hi]

    # ------------------------------------------------------------------
    def _call(self, expr: A.Call) -> Value:
        name = expr.name
        args = [self.compile_expr(a) for a in expr.args]
        kwargs = {k: v for k, v in expr.kwargs.items()}

        def mat(value: Value) -> api.Mat:
            return value if isinstance(value, api.Mat) else api.scalar(value)

        unary_funcs = {
            "exp": api.exp, "log": api.log, "sqrt": api.sqrt, "abs": api.abs_,
            "sign": api.sign, "round": api.round_, "floor": api.floor,
            "ceil": api.ceil, "sigmoid": api.sigmoid, "cumsum": api.cumsum,
            "erf": api.erf, "normpdf": api.normpdf,
        }
        if name in unary_funcs:
            return unary_funcs[name](mat(args[0]))
        if name == "sum":
            return mat(args[0]).sum()
        if name == "mean":
            return mat(args[0]).mean()
        if name == "rowSums":
            return mat(args[0]).row_sums()
        if name == "colSums":
            return mat(args[0]).col_sums()
        if name == "rowMins":
            return mat(args[0]).row_mins()
        if name == "rowMaxs":
            return mat(args[0]).row_maxs()
        if name == "colMins":
            return mat(args[0]).col_mins()
        if name == "colMaxs":
            return mat(args[0]).col_maxs()
        if name in ("min", "max"):
            if len(args) == 1:
                return mat(args[0]).min() if name == "min" else mat(args[0]).max()
            func = api.minimum if name == "min" else api.maximum
            return func(args[0], args[1])
        if name == "t":
            return mat(args[0]).T
        if name == "ifelse":
            return api.ifelse(args[0], args[1], args[2])
        if name == "cbind":
            return api.cbind(*[mat(a) for a in args])
        if name == "rbind":
            return api.rbind(*[mat(a) for a in args])
        if name == "nrow":
            return float(mat(args[0]).hop.rows)
        if name == "ncol":
            return float(mat(args[0]).hop.cols)
        if name == "as.scalar":
            return self.force_scalar(args[0])
        if name == "rand":
            return self._rand(args, kwargs)
        if name == "matrix":
            value = self.force_scalar(args[0]) if args else 0.0
            rows = int(self.force_scalar_expr(kwargs["rows"]))
            cols = int(self.force_scalar_expr(kwargs["cols"]))
            return api.matrix(np.full((rows, cols), value), name="matrix")
        raise LanguageError(f"unknown function '{name}'")

    def _rand(self, args, kwargs) -> api.Mat:
        rows = int(self.force_scalar_expr(kwargs["rows"]))
        cols = int(self.force_scalar_expr(kwargs["cols"]))
        sparsity = (
            self.force_scalar_expr(kwargs["sparsity"]) if "sparsity" in kwargs else 1.0
        )
        low = self.force_scalar_expr(kwargs["min"]) if "min" in kwargs else 0.0
        high = self.force_scalar_expr(kwargs["max"]) if "max" in kwargs else 1.0
        seed = (
            int(self.force_scalar_expr(kwargs["seed"])) if "seed" in kwargs else None
        )
        return api.matrix(
            MatrixBlock.rand(rows, cols, sparsity=sparsity, low=low, high=high, seed=seed),
            name="rand",
        )


class TracingInterpreter(Interpreter):
    """Symbolic interpreter used to prepare scripts for serving.

    Nothing executes: statements accumulate into one lazy multi-root
    DAG over the (symbolic) input slots.  Control flow that resolves
    from scalar values unrolls into the trace; anything that would need
    matrix data at trace time raises ``ServingError`` — such scripts
    must run through the regular interpreter instead.

    ``dim_reads`` records symbolic inputs whose dimensions leaked into
    trace-time scalars (``nrow``/``ncol``): such scalars bake the
    traced shape into the plan, so a stacked micro-batch would bake the
    *stacked* row count — the serving layer refuses to batch those.
    """

    def __init__(self, engine):
        super().__init__(engine)
        self.dim_reads: set[str] = set()

    def _call(self, expr):
        if expr.name in ("nrow", "ncol"):
            target = self.compile_expr(expr.args[0])
            if isinstance(target, api.Mat):
                from repro.hops.hop import collect_dag
                from repro.compiler.symbolic import SymbolicBlock

                for hop in collect_dag([target.hop]):
                    if isinstance(hop, DataOp) and isinstance(
                            hop.data, SymbolicBlock):
                        self.dim_reads.add(hop.data.name)
        return super()._call(expr)

    def flush(self, extra: list[api.Mat] | None = None) -> list:
        from repro.errors import ServingError

        if extra:
            raise ServingError(
                "prepared scripts cannot force matrix values at compile "
                "time (as.scalar over a matrix expression)"
            )
        # Statement-block boundaries (loop iterations) stay lazy: the
        # whole script lowers into a single prepared Program.
        return []

    def force_scalar(self, value) -> float:
        from repro.errors import ServingError

        if isinstance(value, float):
            return value
        if isinstance(value.hop, LiteralOp):
            return value.hop.value
        raise ServingError(
            "prepared scripts cannot branch on matrix data; conditions "
            "and bounds must resolve from scalar inputs"
        )
