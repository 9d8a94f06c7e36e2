"""The event kernel's clock jump (repro.sim.event).

When every active thread is stalled until a timed event — memory reply,
pipeline completion, deferred presence bit, or operation-cache fill —
the intervening cycles are provably empty and the event kernel jumps
the clock.  Every test here checks the jumping kernel against the scan
kernel, which simulates every cycle: results, statistics, and boundary
errors must be bit-identical.
"""

import pytest

from repro import WatchdogError, baseline, compile_program, run_program
from repro.machine import MEMORY_MODELS
from repro.machine.memory import MemorySpec
from repro.sim.node import Node, make_node
from repro.sim.opcache import OpCacheSpec

SOURCE = """
(program
  (const N 6)
  (global A N)
  (global B N)
  (global done N :int :empty)
  (kernel work (i)
    (let ((x (aref A i)))
      (aset! B i (+ (* x x) 1.0)))
    (aset-ef! done i 1))
  (main
    (forall (i 0 N) (work i))
    (for (i 0 N)
      (sync (aref-ff done i)))))
"""

INPUT = {"A": [0.5, -1.5, 2.0, 3.25, -0.75, 4.5]}


def slow_config():
    """High, deterministic memory latency: long provably-empty stalls,
    so the event kernel actually has cycles to jump."""
    spec = MemorySpec("slow", hit_latency=1, miss_rate=1.0,
                      miss_penalty_min=40, miss_penalty_max=40)
    return baseline().with_memory(spec)


def pair(config, **kwargs):
    """Run the default kernel and the scan kernel on ``config``."""
    compiled = compile_program(SOURCE, config, mode="coupled")
    fast = run_program(compiled.program, config, overrides=INPUT,
                       **kwargs)
    slow = run_program(compiled.program, config.with_engine("scan"),
                       overrides=INPUT, **kwargs)
    return compiled, fast, slow


class TestBitIdentity:
    def test_results_and_stats_identical(self):
        __, fast, slow = pair(slow_config())
        assert fast.outcome() == slow.outcome()

    def test_fast_path_actually_skips(self):
        config = slow_config()
        compiled = compile_program(SOURCE, config, mode="coupled")
        node = make_node(config)
        node.run(compiled.program, overrides=INPUT)
        assert node.ffwd_jumps > 0
        assert node.ffwd_cycles > 0

    def test_identical_with_round_robin_arbitration(self):
        __, fast, slow = pair(slow_config()
                              .with_arbitration("round-robin"))
        assert fast.outcome() == slow.outcome()

    def test_identical_with_opcache_fills(self):
        config = slow_config().with_op_cache(
            OpCacheSpec(capacity=4, fill_penalty=9))
        __, fast, slow = pair(config)
        assert fast.outcome() == slow.outcome()

    def test_identical_with_opcache_fills_event_engine(self):
        # Regression: the event kernel's jump assembled its wake
        # candidates from the pipeline heap, the memory system, and the
        # wake queue only.  An in-flight operation-cache fill lives in
        # none of them, yet it can pin a thread awake (a park vetoed by
        # an arbitration loss, or a shared fill the thread did not
        # start) — leaving the fill's completion as the only upcoming
        # event.  Without the fill candidate the jump overshoots it;
        # the jumping run must stay bit-identical and must still
        # actually jump.
        config = slow_config().with_engine("event").with_op_cache(
            OpCacheSpec(capacity=4, fill_penalty=9))
        compiled, fast, slow = pair(config)
        assert fast.outcome() == slow.outcome()
        node = make_node(config)
        node.run(compiled.program, overrides=INPUT)
        assert node.ffwd_jumps > 0

    def test_identical_with_statistical_memory(self):
        # Random latencies: quiet cycles draw nothing from the RNG, so
        # the stream stays aligned across jumps.
        config = baseline().with_memory(MEMORY_MODELS["mem2"]()) \
                           .with_seed(7)
        __, fast, slow = pair(config)
        assert fast.outcome() == slow.outcome()


class TestBoundaries:
    """The jump target is clamped so max-cycles, watchdog, and pause
    checks fire at exactly the cycle the scan kernel reports."""

    def test_max_cycles_cut_at_same_cycle(self):
        config = slow_config()
        compiled = compile_program(SOURCE, config, mode="coupled")
        errors = []
        for kernel in (config, config.with_engine("scan")):
            with pytest.raises(WatchdogError) as info:
                run_program(compiled.program, kernel, overrides=INPUT,
                            max_cycles=100)
            errors.append(info.value)
        assert errors[0].cycle == errors[1].cycle == 100

    def test_watchdog_cut_at_same_cycle(self):
        spec = MemorySpec("glacial", hit_latency=1, miss_rate=1.0,
                          miss_penalty_min=500, miss_penalty_max=500)
        config = baseline().with_memory(spec)
        compiled = compile_program(SOURCE, config, mode="coupled")
        errors = []
        for kernel in (config, config.with_engine("scan")):
            with pytest.raises(WatchdogError) as info:
                run_program(compiled.program, kernel, overrides=INPUT,
                            watchdog_cycles=60)
            errors.append(info.value)
        assert errors[0].cycle == errors[1].cycle
        assert errors[0].last_progress_cycle == \
            errors[1].last_progress_cycle
        assert "livelock" in str(errors[0])

    def test_pause_resume_matches_uninterrupted(self):
        config = slow_config()
        compiled = compile_program(SOURCE, config, mode="coupled")
        reference = run_program(compiled.program,
                                config.with_engine("scan"),
                                overrides=INPUT)
        node = make_node(config)
        paused = node.run(compiled.program, overrides=INPUT,
                          pause_at=reference.cycles // 2)
        assert paused is None
        assert node.cycle == reference.cycles // 2   # not overshot
        result = Node.restore(node.snapshot()).resume()
        assert result.outcome() == reference.outcome()

    def test_pause_resume_round_robin_snapshot(self):
        # The arbiter's rotation pointer is part of the snapshot; a
        # restored run must continue the rotation where it left off.
        config = slow_config().with_arbitration("round-robin")
        compiled = compile_program(SOURCE, config, mode="coupled")
        reference = run_program(compiled.program,
                                config.with_engine("scan"),
                                overrides=INPUT)
        node = make_node(config)
        node.run(compiled.program, overrides=INPUT,
                 pause_at=reference.cycles // 3)
        result = Node.restore(node.snapshot()).resume()
        assert result.outcome() == reference.outcome()
