"""Lexer, parser, and interpreter tests for the DML-subset language."""

import numpy as np
import pytest

from repro.errors import LanguageError
from repro.lang import ast as A
from repro.lang.interp import run_script
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from tests.conftest import make_engine


class TestLexer:
    def test_numbers(self):
        tokens = tokenize("1 2.5 1e-3 10.0E+2")
        assert [t.text for t in tokens[:-1]] == ["1", "2.5", "1e-3", "10.0E+2"]

    def test_operators_maximal_munch(self):
        tokens = tokenize("a %*% b <- c == d")
        assert [t.text for t in tokens if t.kind == "op"] == ["%*%", "<-", "=="]

    def test_comments_skipped(self):
        tokens = tokenize("x = 1 # comment here\ny = 2")
        assert [t.text for t in tokens if t.kind == "id"] == ["x", "y"]

    def test_keywords(self):
        tokens = tokenize("while (x) { }")
        assert tokens[0].kind == "kw"

    def test_dotted_identifier(self):
        tokens = tokenize("as.scalar(x)")
        assert tokens[0].text == "as.scalar"

    def test_error_on_bad_char(self):
        with pytest.raises(LanguageError):
            tokenize("x = $")

    def test_unterminated_string(self):
        with pytest.raises(LanguageError):
            tokenize('x = "abc')


class TestParser:
    def test_assignment(self):
        script = parse("x = 1 + 2")
        (stmt,) = script.body
        assert isinstance(stmt, A.Assign) and stmt.name == "x"

    def test_arrow_assignment(self):
        script = parse("x <- 3")
        assert isinstance(script.body[0], A.Assign)

    def test_precedence(self):
        (stmt,) = parse("x = 1 + 2 * 3").body
        assert isinstance(stmt.value, A.Binary) and stmt.value.op == "+"
        assert stmt.value.right.op == "*"

    def test_power_right_associative(self):
        (stmt,) = parse("x = 2 ^ 3 ^ 2").body
        assert stmt.value.op == "^"
        assert isinstance(stmt.value.right, A.Binary)

    def test_matmult_parsed(self):
        (stmt,) = parse("H = t(X) %*% Q").body
        assert stmt.value.op == "%*%"

    def test_indexing(self):
        (stmt,) = parse("y = P[, 1:k]").body
        idx = stmt.value
        assert isinstance(idx, A.Index)
        assert idx.row_lo is None and idx.col_lo is not None

    def test_call_with_kwargs(self):
        (stmt,) = parse("X = rand(rows=10, cols=4, seed=7)").body
        call = stmt.value
        assert isinstance(call, A.Call)
        assert set(call.kwargs) == {"rows", "cols", "seed"}

    def test_if_else(self):
        script = parse("if (x > 1) { y = 1 } else { y = 2 }")
        (stmt,) = script.body
        assert isinstance(stmt, A.If) and stmt.else_body

    def test_while(self):
        (stmt,) = parse("while (i < 10) { i = i + 1 }").body
        assert isinstance(stmt, A.While)

    def test_for_range(self):
        (stmt,) = parse("for (i in 1:5) { s = s + i }").body
        assert isinstance(stmt, A.For) and stmt.var == "i"

    def test_error_reporting(self):
        with pytest.raises(LanguageError):
            parse("x = (1 + ")


class TestInterpreter:
    def test_scalar_arithmetic(self):
        result = run_script("x = 1 + 2 * 3")
        assert result["x"] == 7.0

    def test_matrix_expression(self, rng):
        data = rng.random((10, 4))
        result = run_script("y = X * 2 + 1", inputs={"X": data})
        np.testing.assert_allclose(result["y"].to_dense(), data * 2 + 1)

    def test_matmult_and_transpose(self, rng):
        data = rng.random((8, 3))
        result = run_script("G = t(X) %*% X", inputs={"X": data})
        np.testing.assert_allclose(result["G"].to_dense(), data.T @ data, rtol=1e-12)

    def test_aggregations(self, rng):
        data = rng.random((6, 5))
        script = "s = sum(X)\nr = rowSums(X)\nc = colSums(X)"
        result = run_script(script, inputs={"X": data})
        assert result["s"] == pytest.approx(data.sum())
        np.testing.assert_allclose(result["r"].to_dense().ravel(), data.sum(axis=1))

    def test_indexing_one_based_inclusive(self, rng):
        data = rng.random((6, 6))
        result = run_script("y = X[2:3, 1:2]", inputs={"X": data})
        np.testing.assert_allclose(result["y"].to_dense(), data[1:3, 0:2])

    def test_indexing_with_variable_bound(self, rng):
        data = rng.random((6, 6))
        result = run_script("k = 3\ny = X[, 1:k]", inputs={"X": data})
        assert result["y"].shape == (6, 3)

    def test_while_loop(self):
        script = """
        i = 0
        s = 0
        while (i < 5) {
            s = s + i
            i = i + 1
        }
        """
        result = run_script(script)
        assert result["s"] == 10.0

    def test_for_loop_matrix_update(self, rng):
        data = rng.random((5, 5))
        script = """
        for (i in 1:3) {
            X = X * 2
        }
        """
        result = run_script(script, inputs={"X": data})
        np.testing.assert_allclose(result["X"].to_dense(), data * 8)

    def test_if_on_matrix_scalar(self, rng):
        data = np.ones((4, 4))
        script = """
        if (sum(X) > 10) { flag = 1 } else { flag = 0 }
        """
        result = run_script(script, inputs={"X": data})
        assert result["flag"] == 1.0

    def test_rand_deterministic(self):
        script = "X = rand(rows=10, cols=5, seed=3)\ns = sum(X)"
        first = run_script(script)
        second = run_script(script)
        assert first["s"] == second["s"]
        assert first["X"].shape == (10, 5)

    def test_matrix_constructor(self):
        result = run_script("Z = matrix(1.5, rows=3, cols=2)")
        np.testing.assert_array_equal(result["Z"].to_dense(), np.full((3, 2), 1.5))

    def test_as_scalar(self, rng):
        data = rng.random((4, 4))
        result = run_script("v = as.scalar(sum(X) + 1)", inputs={"X": data})
        assert result["v"] == pytest.approx(data.sum() + 1)

    def test_nrow_ncol(self, rng):
        result = run_script("r = nrow(X)\nc = ncol(X)", inputs={"X": rng.random((7, 3))})
        assert (result["r"], result["c"]) == (7.0, 3.0)

    def test_undefined_variable(self):
        with pytest.raises(LanguageError):
            run_script("y = nope + 1")

    def test_mlogreg_pattern_via_script(self, rng):
        """Expression (2) end-to-end through the scripting front end."""
        X = rng.random((50, 10))
        v = rng.random((10, 3))
        P = rng.random((50, 4))
        script = """
        k = 3
        Q = P[, 1:k] * (X %*% v)
        H = t(X) %*% (Q - P[, 1:k] * rowSums(Q))
        """
        for mode in ("base", "gen"):
            result = run_script(
                script, inputs={"X": X, "v": v, "P": P}, engine=make_engine(mode)
            )
            q = P[:, :3] * (X @ v)
            expected = X.T @ (q - P[:, :3] * q.sum(axis=1, keepdims=True))
            np.testing.assert_allclose(result["H"].to_dense(), expected, rtol=1e-9)

    def test_engine_stats_count_dags(self, rng):
        engine = make_engine("gen")
        script = """
        for (i in 1:4) {
            X = X * 0.5 + 1
            s = sum(X)
        }
        """
        run_script(script, inputs={"X": rng.random((10, 10))}, engine=engine)
        # Four statement blocks reached the engine; they share one DAG
        # shape, so the optimizer ran for the first only.
        stats = engine.stats
        assert stats.n_specialization_hits + stats.n_specialization_misses >= 4
        assert 1 <= stats.n_dags_optimized <= stats.n_specialization_misses
