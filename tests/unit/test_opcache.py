"""Operation caches (the relaxed no-I-cache-miss assumption)."""

import pytest

from repro import baseline, compile_program, run_program
from repro.errors import ConfigError
from repro.sim.opcache import OpCacheSpec, OperationCache
from repro.sim.stats import Stats

SOURCE = """
(program
  (global out 4 :int)
  (main
    (for (i 0 4)
      (aset! out i (+ i 1)))))
"""


class FakeThread:
    def __init__(self, name, ip):
        class P:
            pass
        self.program = P()
        self.program.name = name
        self.ip = ip


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            OpCacheSpec(capacity=0)
        with pytest.raises(ConfigError):
            OpCacheSpec(fill_penalty=0)


class TestCacheBehaviour:
    def test_miss_then_fill_then_hit(self):
        cache = OperationCache(OpCacheSpec(capacity=4, fill_penalty=3),
                               Stats())
        thread = FakeThread("main", 0)
        assert not cache.ready(thread, 0)      # miss, fill starts
        assert not cache.ready(thread, 1)      # filling
        assert not cache.ready(thread, 2)
        assert cache.ready(thread, 3)          # fill complete
        assert cache.ready(thread, 4)          # now resident

    def test_lru_eviction(self):
        cache = OperationCache(OpCacheSpec(capacity=2, fill_penalty=1),
                               Stats())
        for word in range(3):
            thread = FakeThread("main", word)
            cache.ready(thread, 0)
            assert cache.ready(thread, 1)
        assert cache.resident_words() == 2
        # Word 0 was evicted; touching it misses again.
        stats_before = cache.stats.opcache_misses
        assert not cache.ready(FakeThread("main", 0), 10)
        assert cache.stats.opcache_misses == stats_before + 1

    def test_threads_share_lines_by_program(self):
        cache = OperationCache(OpCacheSpec(capacity=4, fill_penalty=1),
                               Stats())
        a = FakeThread("work@0", 3)
        b = FakeThread("work@0", 3)
        cache.ready(a, 0)
        assert cache.ready(a, 1)
        assert cache.ready(b, 2)        # same program+word: warm


class TestFillBoard:
    """The node-wide fill board dedupes in-flight fills across units.

    Regression: a fault-rerouted thread bouncing between surviving
    units used to start an independent fill — and count an independent
    miss, and pay an independent penalty — on every unit it visited for
    the same (program, word)."""

    def _pair(self, penalty=4):
        stats = Stats()
        board = {}
        spec = OpCacheSpec(capacity=8, fill_penalty=penalty)
        return (OperationCache(spec, stats, fill_board=board),
                OperationCache(spec, stats, fill_board=board),
                stats, board)

    def test_second_unit_joins_inflight_fill(self):
        a, b, stats, board = self._pair(penalty=4)
        thread = FakeThread("main", 0)
        assert not a.ready(thread, 0)           # miss: fill starts
        assert stats.opcache_misses == 1
        assert not b.ready(thread, 1)           # rerouted mid-fill: joins
        assert stats.opcache_misses == 1        # one fetch, one miss
        assert not b.ready(thread, 3)
        assert a.ready(thread, 4)               # shared ready cycle
        assert b.ready(thread, 4)

    def test_board_cleared_after_fill_completes(self):
        a, b, stats, board = self._pair(penalty=2)
        thread = FakeThread("main", 5)
        a.ready(thread, 0)
        b.ready(thread, 0)
        assert board                            # fill in flight
        assert a.ready(thread, 2) and b.ready(thread, 2)
        assert not board

    def test_completed_fill_not_joined(self):
        # A third unit arriving after the fill landed starts its own:
        # the word is in the other units' caches, not in flight.
        a, b, stats, board = self._pair(penalty=2)
        thread = FakeThread("main", 0)
        a.ready(thread, 0)
        assert a.ready(thread, 2)
        assert not b.ready(thread, 3)           # fresh fill
        assert stats.opcache_misses == 2

    def test_distinct_words_do_not_collide(self):
        a, b, stats, board = self._pair(penalty=4)
        a.ready(FakeThread("main", 0), 0)
        b.ready(FakeThread("main", 1), 0)
        assert stats.opcache_misses == 2
        assert len(board) == 2

    def test_unshared_caches_fill_independently(self):
        stats = Stats()
        spec = OpCacheSpec(capacity=8, fill_penalty=4)
        a = OperationCache(spec, stats)
        b = OperationCache(spec, stats)
        thread = FakeThread("main", 0)
        a.ready(thread, 0)
        b.ready(thread, 1)
        assert stats.opcache_misses == 2


class TestEndToEnd:
    def test_results_unaffected(self):
        config = baseline().with_op_cache(OpCacheSpec(capacity=8,
                                                      fill_penalty=5))
        compiled = compile_program(SOURCE, config, mode="sts")
        result = run_program(compiled.program, config)
        assert result.read_symbol("out") == [1, 2, 3, 4]
        assert result.stats.opcache_misses > 0

    def test_cold_misses_cost_cycles(self):
        perfect = baseline()
        cold = baseline().with_op_cache(OpCacheSpec(capacity=64,
                                                    fill_penalty=8))
        a = run_program(compile_program(SOURCE, perfect,
                                        mode="sts").program, perfect)
        b = run_program(compile_program(SOURCE, cold,
                                        mode="sts").program, cold)
        assert b.cycles > a.cycles

    def test_reroute_with_opcache_correct_and_deterministic(self):
        # Fault reroute x operation cache: the rerouted thread's fills
        # dedupe through the node-wide fill board instead of
        # double-counting on every unit visited.
        from repro.sim.faults import FaultEvent, FaultPlan
        plan = FaultPlan([FaultEvent("unit_offline", start=2,
                                     duration=400, unit="c0.iu0")])
        config = baseline().with_op_cache(
            OpCacheSpec(capacity=64, fill_penalty=6)).with_faults(plan)
        compiled = compile_program(SOURCE, config, mode="sts")
        first = run_program(compiled.program, config)
        again = run_program(compiled.program, config)
        assert first.read_symbol("out") == [1, 2, 3, 4]
        assert first.outcome() == again.outcome()
        assert first.stats.opcache_misses > 0

    def test_derivation_preserves_op_cache(self):
        spec = OpCacheSpec(capacity=16)
        config = baseline().with_op_cache(spec).with_memory(
            baseline().memory).with_seed(9)
        assert config.op_cache is spec
