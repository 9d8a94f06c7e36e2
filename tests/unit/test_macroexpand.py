"""Macro expansion: constants, unrolling, forall, inlining."""

import pytest

from repro.compiler.astnodes import Fork, Let, Num, Seq, SetVar, While
from repro.compiler.frontend import parse_program, parse_stmt
from repro.compiler.macroexpand import (expand_thread, fold_binop,
                                        fold_unop, resolve_consts)
from repro.compiler.sexpr import read_one
from repro.errors import CompileError


def expand(text, kernels=None, consts=None):
    return expand_thread(parse_stmt(read_one(text)), kernels or {},
                         consts or {})


class TestFolding:
    def test_binop_uses_isa_semantics(self):
        assert fold_binop("/", -7, 2) == -3     # truncating division
        assert fold_binop("/", 1.0, 4.0) == 0.25
        assert fold_binop("<", 1, 2) == 1

    def test_mixed_types_widen(self):
        assert fold_binop("+", 1, 0.5) == 1.5

    def test_integer_only_operator_rejects_floats(self):
        with pytest.raises(CompileError):
            fold_binop("mod", 1.0, 2)

    def test_unop_widening(self):
        assert fold_unop("sqrt", 9) == 3.0
        assert fold_unop("abs", -2) == 2.0
        assert fold_unop("neg", 2.5) == -2.5
        assert fold_unop("int", 3.7) == 3

    def test_division_by_zero_is_compile_error(self):
        with pytest.raises(CompileError):
            fold_binop("/", 1, 0)


class TestConsts:
    def test_consts_fold_in_order(self):
        ast = parse_program(
            "(program (const A 3) (const B (* A A)) (main (+ 1 1)))")
        assert resolve_consts(ast.consts) == {"A": 3, "B": 9}

    def test_nonconstant_rejected(self):
        ast = parse_program("(program (const A x) (main (+ 1 1)))")
        with pytest.raises(CompileError):
            resolve_consts(ast.consts)


class TestUnroll:
    def test_unroll_duplicates_body(self):
        node = expand("(unroll (i 0 3) (aset! A i (float i)))")
        assert isinstance(node, Seq) and len(node.body) == 3
        assert node.body[2].body[0].index == Num(2)

    def test_unroll_with_step(self):
        node = expand("(unroll (i 0 10 4) (aset! A i 0.0))")
        assert [s.body[0].index.value for s in node.body] == [0, 4, 8]

    def test_unroll_requires_constant_bounds(self):
        with pytest.raises(CompileError):
            expand("(unroll (i 0 n) (aset! A i 0.0))")

    def test_unrolled_variable_folds_into_expressions(self):
        node = expand("(unroll (i 2 3) (aset! A (* i 8) 0.0))")
        assert node.body[0].body[0].index == Num(16)

    def test_set_of_unrolled_variable_rejected(self):
        with pytest.raises(CompileError):
            expand("(unroll (i 0 2) (set! i 5))")

    def test_zero_step_rejected(self):
        with pytest.raises(CompileError):
            expand("(unroll (i 0 2 0) (aset! A i 0.0))")


class TestForLowering:
    def test_for_becomes_let_while(self):
        node = expand("(for (i 0 4) (aset! A i 0.0))")
        assert isinstance(node, Let)
        loop = node.body.body[0]
        assert isinstance(loop, While)

    def test_for_step(self):
        node = expand("(for (i 0 8 2) (aset! A i 0.0))")
        increment = node.body.body[0].body.body[-1]
        assert isinstance(increment, SetVar)
        assert increment.expr.right == Num(2)


class TestForall:
    def kernels(self):
        ast = parse_program(
            "(program (kernel w (i)) (main (+ 1 1)))"
            .replace("(kernel w (i))", "(kernel w (i) (aset! A i 0.0))"))
        return ast.kernels

    def test_forall_expands_to_forks(self):
        node = expand("(forall (i 0 4) (w i))", kernels=self.kernels())
        assert len(node.body) == 4
        assert all(isinstance(f, Fork) for f in node.body)
        assert node.body[3].args[0] == Num(3)

    def test_forall_checks_arity(self):
        with pytest.raises(CompileError):
            expand("(forall (i 0 4) (w i i))", kernels=self.kernels())


class TestInlining:
    def make_kernels(self, source):
        return parse_program(source).kernels

    def test_call_inlines_with_renamed_locals(self):
        kernels = self.make_kernels("""
(program
  (kernel helper (a)
    (let ((t (* a 2)))
      (aset! A a (float t))))
  (main (+ 1 1)))
""")
        node = expand("(begin (let ((t 9)) (call helper t)))",
                      kernels=kernels)
        # The callee's local 't' must have been renamed away from the
        # caller's 't'.
        inlined = node.body[0]
        names = _collect_let_names(inlined)
        assert len(names) == len(set(names))

    def test_float_parameter_coerced(self):
        kernels = self.make_kernels("""
(program
  (kernel helper ((x :float)) (aset! A 0 x))
  (main (+ 1 1)))
""")
        node = expand("(call helper 3)", kernels=kernels)
        binding_value = node.bindings[0][1]
        assert binding_value == Num(3.0)
        assert isinstance(binding_value.value, float)

    def test_recursive_call_rejected(self):
        ast = parse_program("""
(program
  (kernel loop (i) (call loop i))
  (main (call loop 0)))
""")
        with pytest.raises(CompileError, match="deep"):
            expand_thread(ast.main, ast.kernels,
                          resolve_consts(ast.consts))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(CompileError):
            expand("(call ghost 1)")


def _collect_let_names(node):
    names = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Let):
            names.extend(name for name, __ in current.bindings)
            stack.append(current.body)
        elif isinstance(current, Seq):
            stack.extend(current.body)
    return names
