"""Differential property testing of *threaded* programs: random
parallel-map workloads (disjoint strided writes + flag joins) must
match the reference interpreter in TPE and Coupled modes, under random
memory latencies, and the scan, event and fused kernels and a batch
lane must agree on them."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import compile_program, interpret, run_program
from repro.machine import baseline
from repro.machine.memory import MemorySpec
from tests.conftest import run_every_tier

ARRAY = 12


@st.composite
def _exprs(draw, depth=0):
    """A float expression over the worker's index variable ``i``, its
    thread id ``t``, and the input array IN."""
    choices = ["lit", "i", "t", "load"]
    if depth < 3:
        choices += ["add", "sub", "mul"]
    kind = draw(st.sampled_from(choices))
    if kind == "lit":
        return repr(float(draw(st.floats(min_value=-4, max_value=4,
                                         allow_nan=False))))
    if kind == "i":
        return "(float i)"
    if kind == "t":
        return "(float t)"
    if kind == "load":
        return "(aref IN (& (+ i %d) %d))" % (draw(st.integers(0, 4)),
                                              ARRAY - 1)
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    return "(%s %s %s)" % (op, draw(_exprs(depth=depth + 1)),
                           draw(_exprs(depth=depth + 1)))


@st.composite
def worker_bodies(draw):
    # Guarantee the output depends on the index so bugs in striding or
    # joining are visible.
    return "(+ (aref IN i) (* 0.5 %s))" % draw(_exprs())


@st.composite
def threaded_programs(draw):
    n_workers = draw(st.integers(2, 4))
    body = draw(worker_bodies())
    post = draw(st.sampled_from([
        "",                                        # plain join
        "(for (i 0 %d) (aset! OUT i (* (aref OUT i) 2.0)))" % ARRAY,
    ]))
    return """
(program
  (const N %d)
  (const NW %d)
  (global IN N)
  (global OUT N)
  (global done NW :int :empty)
  (kernel work (t)
    (let ((i t))
      (while (< i N)
        (aset! OUT i %s)
        (set! i (+ i NW))))
    (aset-ef! done t 1))
  (main
    (forall (t 0 NW) (work t))
    (for (t 0 NW)
      (sync (aref-fe done t)))
    %s))
""" % (ARRAY, n_workers, body, post)


INPUT = {"IN": [0.5 * i - 2.0 for i in range(ARRAY)]}


class TestThreadedDifferential:
    @given(source=threaded_programs(),
           mode=st.sampled_from(["tpe", "coupled"]))
    @settings(max_examples=40, deadline=None)
    def test_threaded_matches_interpreter(self, source, mode):
        config = baseline()
        expected = interpret(source, overrides=INPUT)
        compiled = compile_program(source, config, mode=mode)
        result = run_every_tier(compiled.program, config,
                                   overrides=INPUT)
        assert result.stats.fused_dispatches > 0, source
        assert result.read_symbol("OUT") == expected.read_symbol("OUT"), \
            source

    @given(source=threaded_programs(), seed=st.integers(0, 999))
    @settings(max_examples=15, deadline=None)
    def test_threaded_correct_under_misses(self, source, seed):
        spec = MemorySpec("m", miss_rate=0.15, miss_penalty_min=3,
                          miss_penalty_max=30)
        config = baseline().with_memory(spec).with_seed(seed)
        expected = interpret(source, overrides=INPUT)
        compiled = compile_program(source, config, mode="coupled")
        result = run_program(compiled.program, config, overrides=INPUT)
        assert result.read_symbol("OUT") == expected.read_symbol("OUT")
