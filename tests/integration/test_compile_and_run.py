"""Differential tests: compiled + simulated programs must reproduce the
reference interpreter's memory state exactly."""

import pytest

from repro.machine import unit_mix
from tests.conftest import assert_matches_interp

ALL_SINGLE_MODES = ("seq", "sts", "ideal")


class TestScalarPrograms:
    def test_arithmetic_kitchen_sink(self, config):
        assert_matches_interp("""
(program
  (global out 10 :int)
  (main
    (aset! out 0 (+ 3 4))
    (aset! out 1 (- 3 4))
    (aset! out 2 (* 3 4))
    (aset! out 3 (/ -9 2))
    (aset! out 4 (mod -9 2))
    (aset! out 5 (<< 3 2))
    (aset! out 6 (>> 12 2))
    (aset! out 7 (& 12 10))
    (aset! out 8 (| 12 10))
    (aset! out 9 (^ 12 10))))
""", config, modes=ALL_SINGLE_MODES)

    def test_float_kitchen_sink(self, config):
        assert_matches_interp("""
(program
  (global out 8)
  (main
    (aset! out 0 (+ 0.5 0.25))
    (aset! out 1 (* 3.0 -0.5))
    (aset! out 2 (/ 1.0 8.0))
    (aset! out 3 (sqrt 2.25))
    (aset! out 4 (abs -3.5))
    (aset! out 5 (neg 1.5))
    (aset! out 6 (min 1.5 2.5))
    (aset! out 7 (max 1.5 2.5))))
""", config, modes=("sts",))

    def test_comparisons(self, config):
        assert_matches_interp("""
(program
  (global out 6 :int)
  (main
    (aset! out 0 (< 1 2))
    (aset! out 1 (<= 2 2))
    (aset! out 2 (> 1 2))
    (aset! out 3 (>= 1 2))
    (aset! out 4 (== 2.5 2.5))
    (aset! out 5 (!= 2.5 2.5))))
""", config, modes=("seq", "sts"))


class TestControlFlow:
    def test_nested_loops(self, config):
        assert_matches_interp("""
(program
  (global out 1 :int)
  (main
    (let ((total 0))
      (for (i 0 5)
        (for (j 0 5)
          (if (< j i)
              (set! total (+ total 1)))))
      (aset! out 0 total))))
""", config, modes=ALL_SINGLE_MODES[:2])

    def test_while_with_complex_condition(self, config):
        assert_matches_interp("""
(program
  (global out 1 :int)
  (main
    (let ((i 0))
      (while (< (* i i) 50)
        (set! i (+ i 1)))
      (aset! out 0 i))))
""", config, modes=("sts",))

    def test_if_else_chains(self, config):
        assert_matches_interp("""
(program
  (global out 4 :int)
  (main
    (for (i 0 4)
      (if (== i 0) (aset! out i 10)
        (if (== i 1) (aset! out i 20)
          (if (== i 2) (aset! out i 30)
            (aset! out i 40)))))))
""", config, modes=("seq", "sts"))

    def test_ternary_expression(self, config):
        assert_matches_interp("""
(program
  (global out 8)
  (main
    (for (i 0 8)
      (aset! out i (if (< i 4) (float i) (float (- i 8)))))))
""", config, modes=("sts",))


class TestArrays:
    def test_indirect_indexing(self, config):
        assert_matches_interp("""
(program
  (global index 4 :int)
  (global out 4)
  (main
    (for (i 0 4)
      (aset! out (aref index i) (float i)))))
""", config, modes=("sts",),
            overrides={"index": [2, 0, 3, 1]})

    def test_in_place_update(self, config):
        assert_matches_interp("""
(program
  (global data 8)
  (main
    (for (i 0 8)
      (aset! data i (* (aref data i) 2.0)))))
""", config, modes=("seq", "sts"),
            overrides={"data": [float(i) for i in range(8)]})

    def test_prefix_sums(self, config):
        assert_matches_interp("""
(program
  (global data 8 :int)
  (main
    (for (i 1 8)
      (aset! data i (+ (aref data i) (aref data (- i 1)))))))
""", config, modes=("sts",),
            overrides={"data": [1, 2, 3, 4, 5, 6, 7, 8]})


class TestThreadedPrograms:
    THREADED = """
(program
  (const N 6)
  (global A N)
  (global B N)
  (global done N :int :empty)
  (kernel work (i (bias :float))
    (aset! B i (+ (* (aref A i) 2.0) bias))
    (aset-ef! done i 1))
  (main
    (forall (i 0 N) (work i 0.5))
    (for (i 0 N)
      (sync (aref-ff done i)))))
"""

    @pytest.mark.parametrize("mode", ["tpe", "coupled"])
    def test_fork_join(self, config, mode):
        assert_matches_interp(
            self.THREADED, config, modes=(mode,),
            overrides={"A": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})

    def test_producer_consumer_pipeline(self, config):
        """A genuinely interleaved pattern the inline interpreter cannot
        run: producer refills one cell, consumer drains it, with st_ef /
        ld_fe forcing strict alternation."""
        from repro import compile_program, run_program
        source = """
(program
  (global cell 1 :empty)
  (global out 4)
  (kernel producer ((seed :float))
    (let ((x seed))
      (for (i 0 4)
        (aset-ef! cell 0 (* x (float (+ i 1)))))))
  (main
    (fork (producer 1.5))
    (for (i 0 4)
      (aset! out i (aref-fe cell 0)))))
"""
        compiled = compile_program(source, config, mode="coupled")
        result = run_program(compiled.program, config)
        assert result.read_symbol("out") == [1.5, 3.0, 4.5, 6.0]

    def test_atomic_counter(self, config):
        """Four threads atomically increment a shared counter via the
        fe/set idiom; the total must be exact despite interleaving."""
        from repro import compile_program, run_program
        source = """
(program
  (const NW 4)
  (global counter 1 :int)
  (global done NW :int :empty)
  (kernel bump (t)
    (for (k 0 10)
      (let ((v (aref-fe counter 0)))
        (aset! counter 0 (+ v 1))))
    (aset-ef! done t 1))
  (main
    (forall (t 0 NW) (bump t))
    (for (t 0 NW)
      (sync (aref-ff done t)))))
"""
        compiled = compile_program(source, config, mode="coupled")
        result = run_program(compiled.program, config)
        assert result.read_symbol("counter") == [40]


class TestOtherMachines:
    def test_single_cluster_machine(self, small_config):
        assert_matches_interp("""
(program
  (global out 4 :int)
  (main (for (i 0 4) (aset! out i (* i 3)))))
""", small_config, modes=("seq", "sts"))

    def test_unit_mix_machines(self):
        for n_iu, n_fpu in ((1, 1), (2, 1), (1, 2), (4, 4)):
            assert_matches_interp("""
(program
  (global out 6)
  (main
    (for (i 0 6)
      (aset! out i (* (float i) 1.5)))))
""", unit_mix(n_iu, n_fpu), modes=("sts",))

    def test_two_iu_cluster(self):
        from repro.machine import ClusterSpec, MachineConfig, \
            branch_cluster, fpu, iu, mem
        config = MachineConfig((
            ClusterSpec(units=(iu(), iu(), fpu(), mem())),
            branch_cluster()))
        assert_matches_interp("""
(program
  (global out 4 :int)
  (main
    (aset! out 0 (+ 1 2))
    (aset! out 1 (+ 3 4))
    (aset! out 2 (+ 5 6))
    (aset! out 3 (+ 7 8))))
""", config, modes=("sts",))

    def test_deep_pipeline_units(self):
        from repro.machine import ClusterSpec, MachineConfig, \
            branch_cluster, fpu, iu, mem
        config = MachineConfig((
            ClusterSpec(units=(iu(latency=2), fpu(latency=4),
                               mem(latency=2))),
            branch_cluster(latency=2)))
        assert_matches_interp("""
(program
  (global out 2)
  (main
    (let ((x 0.0))
      (for (i 0 5)
        (set! x (+ x (* (float i) 0.5))))
      (aset! out 0 x)
      (aset! out 1 (* x 2.0)))))
""", config, modes=("sts",))
