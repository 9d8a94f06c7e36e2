"""Front-end parsing into the AST."""

import pytest

from repro.compiler.astnodes import (Aref, BinOp, FLOAT, Fork, If, IfExpr,
                                     INT, Num, SetVar, Sync, UnOp, While)
from repro.compiler.frontend import parse_expr, parse_program, parse_stmt
from repro.compiler.sexpr import read_one
from repro.errors import CompileError


def expr(text):
    return parse_expr(read_one(text))


def stmt(text):
    return parse_stmt(read_one(text))


class TestExpressions:
    def test_variadic_fold(self):
        node = expr("(+ a b c)")
        assert isinstance(node, BinOp) and node.op == "+"
        assert isinstance(node.left, BinOp)

    def test_aref_flavors(self):
        assert expr("(aref A i)").flavor == "normal"
        assert expr("(aref-ff A i)").flavor == "ff"
        assert expr("(aref-fe A i)").flavor == "fe"

    def test_ternary_if(self):
        node = expr("(if (< a b) 1.0 2.0)")
        assert isinstance(node, IfExpr)

    def test_unary(self):
        assert isinstance(expr("(sqrt x)"), UnOp)
        assert isinstance(expr("(float x)"), UnOp)

    def test_unknown_operator(self):
        with pytest.raises(CompileError):
            expr("(frobnicate x)")

    def test_two_arg_minimum(self):
        with pytest.raises(CompileError):
            expr("(+ x)")


class TestStatements:
    def test_let_and_set(self):
        node = stmt("(let ((x 1) (y 2.0)) (set! x (+ x 1)))")
        assert node.bindings[0] == ("x", Num(1))
        assert isinstance(node.body.body[0], SetVar)

    def test_aset_flavors(self):
        assert stmt("(aset! A 0 1.0)").flavor == "normal"
        assert stmt("(aset-ef! A 0 1.0)").flavor == "ef"
        assert stmt("(aset-ff! A 0 1.0)").flavor == "ff"

    def test_while(self):
        node = stmt("(while (< i 10) (set! i (+ i 1)))")
        assert isinstance(node, While)

    def test_if_with_else(self):
        node = stmt("(if c (set! x 1) (set! x 2))")
        assert isinstance(node, If) and node.els is not None

    def test_sync(self):
        node = stmt("(sync (aref-ff done 0))")
        assert isinstance(node, Sync)

    def test_fork_with_cluster_hint(self):
        node = stmt("(fork (work i j) :cluster 2)")
        assert isinstance(node, Fork)
        assert node.kernel == "work" and node.cluster == 2

    def test_bare_expression_statement(self):
        node = stmt("(aref A 0)")
        assert isinstance(node.expr, Aref)


class TestProgram:
    SOURCE = """
(program
  (const N 4)
  (global A (* N N))
  (global flags N :int :empty)
  (kernel work (i (x :float))
    (aset! A i x))
  (main
    (fork (work 0 1.5))))
"""

    def test_parses_all_sections(self):
        ast = parse_program(self.SOURCE)
        assert [c.name for c in ast.consts] == ["N"]
        assert [g.name for g in ast.globals] == ["A", "flags"]
        assert set(ast.kernels) == {"work"}

    def test_global_options(self):
        ast = parse_program(self.SOURCE)
        flags = ast.globals[1]
        assert flags.elem_type is INT
        assert flags.initially_full is False
        assert ast.globals[0].elem_type is FLOAT

    def test_typed_kernel_params(self):
        ast = parse_program(self.SOURCE)
        assert ast.kernels["work"].params == [("i", INT), ("x", FLOAT)]

    def test_missing_main_rejected(self):
        with pytest.raises(CompileError):
            parse_program("(program (const N 1))")

    def test_duplicate_kernel_rejected(self):
        with pytest.raises(CompileError):
            parse_program("(program (kernel k () (set! x 1))"
                          " (kernel k () (set! x 1)) (main (+ 1 2)))")

    def test_unknown_top_level_rejected(self):
        with pytest.raises(CompileError):
            parse_program("(program (procedure p) (main (+ 1 2)))")
