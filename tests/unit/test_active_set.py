"""Bounded active-set extension: forks wait for a slot."""

import pytest

from repro import baseline, compile_program, run_program
from repro.errors import ConfigError, DeadlockError
from repro.programs import get_benchmark

SOURCE = """
(program
  (const N 6)
  (global out N :int)
  (global done N :int :empty)
  (kernel work (i)
    (aset! out i (* i 7))
    (aset-ef! done i 1))
  (main
    (forall (i 0 N) (work i))
    (for (i 0 N)
      (sync (aref-ff done i)))))
"""


class TestBoundedActiveSet:
    def test_limit_enforced_and_results_correct(self):
        config = baseline().with_max_active_threads(3)
        compiled = compile_program(SOURCE, config, mode="coupled")
        result = run_program(compiled.program, config)
        assert result.read_symbol("out") == [0, 7, 14, 21, 28, 35]
        assert result.stats.peak_active_threads <= 3
        assert result.stats.spawn_queue_waits > 0
        assert result.stats.threads_spawned == 7

    def test_smaller_sets_cost_cycles(self):
        bench = get_benchmark("matrix")
        inputs = bench.make_inputs(seed=1)
        compiled = compile_program(bench.source("coupled"), baseline(),
                                   mode="coupled")
        cycles = {}
        for limit in (2, 5, None):
            config = baseline().with_max_active_threads(limit)
            result = run_program(compiled.program, config,
                                 overrides=inputs)
            assert not bench.check(result, inputs)
            cycles[limit] = result.cycles
        assert cycles[2] > cycles[5] >= cycles[None]

    def test_too_small_set_deadlocks_visibly(self):
        """With a single slot the parent occupies, its children can
        never run; the paper's (out-of-scope) thread swapping would be
        needed.  The simulator reports this as a diagnosed deadlock."""
        config = baseline().with_max_active_threads(1)
        compiled = compile_program(SOURCE, config, mode="coupled")
        with pytest.raises(DeadlockError, match="active-set slot"):
            run_program(compiled.program, config)

    def test_validation(self):
        with pytest.raises(ConfigError):
            baseline(max_active_threads=0)

    def test_derivations_preserve_limit(self):
        config = baseline().with_max_active_threads(4).with_seed(3)
        assert config.max_active_threads == 4
