"""Differential property testing: random programs must produce the same
memory image under (compile -> simulate) as under the reference
interpreter, in every machine mode, bit for bit (identical operation
order and shared ISA semantics make exact float equality achievable).
The scan, event and fused kernels, and lane 0 of a batch bundle where
numpy is installed, must also agree on every random program, in fused
code as well as interpreted."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro import compile_program, interpret, run_program
from repro.machine import baseline, single_cluster, unit_mix
from tests.conftest import run_every_tier

INT_VARS = ("i0", "i1", "i2")
FLOAT_VARS = ("f0", "f1")
ARRAY_SIZE = 8


@st.composite
def int_exprs(draw, depth=0, loop_vars=()):
    choices = ["lit", "var"]
    if depth < 3:
        choices += ["add", "sub", "mul", "and", "or", "minmax", "cmp"]
    kind = draw(st.sampled_from(choices))
    if kind == "lit":
        return str(draw(st.integers(-8, 8)))
    if kind == "var":
        return draw(st.sampled_from(INT_VARS + tuple(loop_vars)))
    left = draw(int_exprs(depth=depth + 1, loop_vars=loop_vars))
    right = draw(int_exprs(depth=depth + 1, loop_vars=loop_vars))
    if kind == "add":
        return "(+ %s %s)" % (left, right)
    if kind == "sub":
        return "(- %s %s)" % (left, right)
    if kind == "mul":
        return "(* %s %s)" % (left, right)
    if kind == "and":
        return "(& %s %s)" % (left, right)
    if kind == "or":
        return "(| %s %s)" % (left, right)
    if kind == "minmax":
        op = draw(st.sampled_from(["min", "max"]))
        return "(%s %s %s)" % (op, left, right)
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    return "(%s %s %s)" % (op, left, right)


@st.composite
def index_exprs(draw, loop_vars=()):
    inner = draw(int_exprs(depth=2, loop_vars=loop_vars))
    return "(& %s %d)" % (inner, ARRAY_SIZE - 1)


@st.composite
def float_exprs(draw, depth=0, loop_vars=()):
    choices = ["lit", "var", "load", "widen"]
    if depth < 3:
        choices += ["add", "sub", "mul"]
    kind = draw(st.sampled_from(choices))
    if kind == "lit":
        value = draw(st.floats(min_value=-4, max_value=4,
                               allow_nan=False))
        return repr(float(value))
    if kind == "var":
        return draw(st.sampled_from(FLOAT_VARS))
    if kind == "load":
        return "(aref FARR %s)" % draw(index_exprs(loop_vars=loop_vars))
    if kind == "widen":
        return "(float %s)" % draw(int_exprs(depth=depth + 1,
                                             loop_vars=loop_vars))
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    left = draw(float_exprs(depth=depth + 1, loop_vars=loop_vars))
    right = draw(float_exprs(depth=depth + 1, loop_vars=loop_vars))
    return "(%s %s %s)" % (op, left, right)


@st.composite
def statements(draw, depth=0, loop_vars=(), loop_counter=[0]):
    choices = ["iset", "fset", "istore", "fstore"]
    if depth < 2:
        choices += ["if", "if", "for", "begin"]
    kind = draw(st.sampled_from(choices))
    if kind == "iset":
        return "(set! %s %s)" % (draw(st.sampled_from(INT_VARS)),
                                 draw(int_exprs(loop_vars=loop_vars)))
    if kind == "fset":
        return "(set! %s %s)" % (draw(st.sampled_from(FLOAT_VARS)),
                                 draw(float_exprs(loop_vars=loop_vars)))
    if kind == "istore":
        return "(aset! IARR %s %s)" % (
            draw(index_exprs(loop_vars=loop_vars)),
            draw(int_exprs(loop_vars=loop_vars)))
    if kind == "fstore":
        return "(aset! FARR %s %s)" % (
            draw(index_exprs(loop_vars=loop_vars)),
            draw(float_exprs(loop_vars=loop_vars)))
    if kind == "if":
        cond = draw(int_exprs(depth=2, loop_vars=loop_vars))
        then = draw(statements(depth=depth + 1, loop_vars=loop_vars))
        if draw(st.booleans()):
            els = draw(statements(depth=depth + 1, loop_vars=loop_vars))
            return "(if %s %s %s)" % (cond, then, els)
        return "(if %s %s)" % (cond, then)
    if kind == "for":
        loop_counter[0] += 1
        var = "k%d" % loop_counter[0]
        bound = draw(st.integers(1, 5))
        body = draw(st.lists(
            statements(depth=depth + 1, loop_vars=loop_vars + (var,)),
            min_size=1, max_size=3))
        return "(for (%s 0 %d) %s)" % (var, bound, " ".join(body))
    body = draw(st.lists(statements(depth=depth + 1,
                                    loop_vars=loop_vars),
                         min_size=1, max_size=3))
    return "(begin %s)" % " ".join(body)


@st.composite
def programs(draw):
    body = draw(st.lists(statements(), min_size=1, max_size=6))
    inits = ["(i0 1) (i1 -2) (i2 3)",
             "(f0 0.5) (f1 -1.25)"]
    return """
(program
  (global IARR %d :int)
  (global FARR %d)
  (main
    (let (%s %s)
      %s
      (aset! IARR 0 (+ i0 (+ i1 i2)))
      (aset! FARR 0 (+ f0 f1)))))
""" % (ARRAY_SIZE, ARRAY_SIZE, inits[0], inits[1], "\n      ".join(body))


# Straight-line, so its one superblock is the whole program; the two
# stores to FARR[0] are a same-address pair, so that block bails at its
# run-time guard and the program runs interpreted on every kernel.
GUARD_BAIL_PROGRAM = """
(program
  (global IARR 8 :int)
  (global FARR 8)
  (main
    (let ((i0 1) (i1 -2) (i2 3) (f0 0.5) (f1 -1.25))
      (set! f0 (aref FARR (& (+ -1 i1) 7)))
      (aset! FARR (& 0 7) 0.0)
      (aset! FARR (& 0 7) (aref FARR (& -3 7)))
      (aset! IARR 0 (+ i0 (+ i1 i2)))
      (aset! FARR 0 (+ f0 f1)))))
"""


CONFIGS = {
    "baseline": baseline(),
    "single": single_cluster(),
    "mix": unit_mix(2, 1),
}


class TestCompiledMatchesInterpreter:
    @given(source=programs(),
           mode=st.sampled_from(["seq", "sts"]),
           config_name=st.sampled_from(sorted(CONFIGS)))
    @example(source=GUARD_BAIL_PROGRAM, mode="sts", config_name="baseline")
    @settings(max_examples=60, deadline=None)
    def test_random_programs(self, source, mode, config_name):
        config = CONFIGS[config_name]
        expected = interpret(source)
        compiled = compile_program(source, config, mode=mode)
        result = run_every_tier(compiled.program, config)
        # Every program enters compiled superblock code.  Each entry
        # either completes a dispatch or fails a run-time guard before
        # touching state and runs that block interpreted.
        stats = result.stats
        assert stats.fused_dispatches \
            or stats.defuse_reasons["st_guard_bail"], source
        for symbol in ("IARR", "FARR"):
            assert result.read_symbol(symbol) == \
                expected.read_symbol(symbol), (mode, config_name, source)

    @given(source=programs())
    @settings(max_examples=25, deadline=None)
    def test_optimizer_preserves_semantics(self, source):
        config = CONFIGS["baseline"]
        optimized = compile_program(source, config, mode="sts")
        raw = compile_program(source, config, mode="sts", optimize=False)
        a = run_program(optimized.program, config)
        b = run_program(raw.program, config)
        for symbol in ("IARR", "FARR"):
            assert a.read_symbol(symbol) == b.read_symbol(symbol), source

    @given(source=programs())
    @settings(max_examples=20, deadline=None)
    def test_round_robin_arbitration_preserves_results(self, source):
        config = CONFIGS["baseline"].with_arbitration("round-robin")
        expected = interpret(source)
        compiled = compile_program(source, config, mode="sts")
        result = run_program(compiled.program, config)
        assert result.read_symbol("IARR") == expected.read_symbol("IARR")
