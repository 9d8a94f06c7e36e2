"""End-to-end resilience: graceful degradation under injected faults,
watchdog/livelock detection, wait-for deadlock reports, and
checkpoint/restore — the acceptance surface of the fault subsystem."""

import pytest

from repro import (DeadlockError, FaultEvent, FaultPlan, Node,
                   WatchdogError, baseline, compile_program, run_program)
from repro.errors import SimulationError
from repro.programs import get_benchmark
from repro.programs.suite import BENCHMARK_ORDER


def compiled_benchmark(name, config, mode="coupled"):
    bench = get_benchmark(name)
    compiled = compile_program(bench.source(mode), config, mode=mode)
    return bench, compiled, bench.make_inputs(seed=1)


ALU_OFFLINE = FaultPlan([FaultEvent("unit_offline", start=50,
                                    duration=1000, unit="c0.iu0")])


class TestGracefulDegradation:
    """A seeded plan disabling one ALU for 1000 cycles mid-run: every
    benchmark still produces correct results (degraded cycles, no
    error), and a replay is bit-identical."""

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_alu_offline_still_correct_and_deterministic(self, name):
        config = baseline().with_faults(ALU_OFFLINE)
        bench, compiled, inputs = compiled_benchmark(name, config)
        first = run_program(compiled.program, config, overrides=inputs)
        again = run_program(compiled.program, config, overrides=inputs)
        assert not bench.check(first, inputs)
        assert first.outcome() == again.outcome()

    def test_faults_cost_cycles_and_reroute(self):
        config = baseline()
        bench, compiled, inputs = compiled_benchmark("matrix", config)
        clean = run_program(compiled.program, config, overrides=inputs)
        faulted_config = config.with_faults(ALU_OFFLINE)
        faulted = run_program(compiled.program, faulted_config,
                              overrides=inputs)
        assert faulted.cycles >= clean.cycles
        assert faulted.stats.fault_reroutes > 0
        assert not bench.check(faulted, inputs)

    def test_no_reroute_waits_out_the_window(self):
        """With rerouting disabled the machine stalls through the
        window instead of deadlocking, then finishes correctly."""
        plan = FaultPlan([FaultEvent("unit_offline", start=50,
                                     duration=400, unit=uid)
                          for uid in ("c0.iu0", "c1.iu0", "c2.iu0",
                                      "c3.iu0")], reroute=False)
        config = baseline().with_faults(plan)
        bench, compiled, inputs = compiled_benchmark("matrix", config)
        result = run_program(compiled.program, config, overrides=inputs)
        assert result.cycles >= 450
        assert result.stats.fault_issue_stalls > 0
        assert result.stats.fault_reroutes == 0
        assert not bench.check(result, inputs)

    def test_memory_faults_still_correct(self):
        plan = FaultPlan([
            FaultEvent("mem_delay", start=0, duration=2000, extra=9),
            FaultEvent("bank_blackout", start=100, duration=150,
                       lo=0, hi=128),
            FaultEvent("presence_stall", start=0, duration=2000,
                       extra=6),
        ])
        config = baseline().with_faults(plan)
        bench, compiled, inputs = compiled_benchmark("matrix", config)
        result = run_program(compiled.program, config, overrides=inputs)
        assert not bench.check(result, inputs)
        assert result.stats.fault_mem_stall_cycles > 0


class TestWatchdog:
    def test_livelock_raises_watchdog_not_max_cycles(self):
        """Permanently blocked writebacks spin forever; the watchdog
        cuts the run long before --max-cycles and says why."""
        config = baseline()
        plan = FaultPlan([FaultEvent("writeback_block", start=20,
                                     duration=10**9, unit=slot.uid)
                          for slot in config.units])
        faulted = config.with_faults(plan)
        bench, compiled, inputs = compiled_benchmark("matrix", faulted)
        with pytest.raises(WatchdogError) as info:
            run_program(compiled.program, faulted, overrides=inputs,
                        max_cycles=5_000_000, watchdog_cycles=300)
        err = info.value
        assert "livelock" in str(err)
        assert err.cycle < 5000
        assert err.last_progress_cycle is not None
        assert err.cycle - err.last_progress_cycle >= 300
        assert err.blocked                      # per-thread reasons

    def test_max_cycles_is_a_structured_watchdog_error(self):
        config = baseline()
        bench, compiled, inputs = compiled_benchmark("lud", config)
        with pytest.raises(WatchdogError) as info:
            run_program(compiled.program, config, overrides=inputs,
                        max_cycles=500)
        err = info.value
        assert isinstance(err, SimulationError)  # old catch sites work
        assert "exceeded 500 cycles" in str(err)
        assert err.cycle == 500
        assert err.last_progress_cycle is not None
        assert "last forward progress" in str(err)


DEADLOCK_SOURCE = """
(program
  (global X 1)
  (global Y 1)
  (global out 2)
  (kernel grab-x ()
    (let ((v (aref-fe X 0)))
      (sync (aref-ff Y 0))
      (aset! out 0 v)))
  (kernel grab-y ()
    (let ((v (aref-fe Y 0)))
      (sync (aref-ff X 0))
      (aset! out 1 v)))
  (main
    (forall (i 0 1) (grab-x))
    (forall (i 0 1) (grab-y))
    (sync (aref-ff out 0))
    (sync (aref-ff out 1))))
"""


class TestDeadlockWaitForCycle:
    def test_cross_wait_names_the_cycle(self):
        """Two threads each empty a flag and wait for the other's: the
        report names the wait-for cycle through both threads and both
        addresses."""
        config = baseline()
        compiled = compile_program(DEADLOCK_SOURCE, config,
                                   mode="coupled")
        with pytest.raises(DeadlockError) as info:
            run_program(compiled.program, config,
                        overrides={"X": [7], "Y": [9]})
        err = info.value
        assert "wait-for cycle:" in str(err)
        assert err.wait_for                     # structured cycle
        assert err.wait_for[0] == err.wait_for[-1]
        text = " ".join(err.wait_for)
        assert "grab-x" in text and "grab-y" in text
        assert "addr 0" in text and "addr 1" in text
        assert err.blocked

    def test_dangling_wait_reports_no_cycle(self):
        """A load that nothing will ever satisfy deadlocks without a
        wait-for cycle; the report still lists the parked reference."""
        source = """
(program
  (global flag 1 :int :empty)
  (main (sync (aref-ff flag 0))))
"""
        config = baseline()
        compiled = compile_program(source, config, mode="coupled")
        with pytest.raises(DeadlockError) as info:
            run_program(compiled.program, config)
        err = info.value
        assert err.wait_for == []
        assert "addr 0" in str(err)


class TestCheckpointRestore:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_round_trip_matches_uninterrupted_run(self, name):
        config = baseline()
        bench, compiled, inputs = compiled_benchmark(name, config)
        reference = run_program(compiled.program, config,
                                overrides=inputs)

        node = Node(config)
        paused = node.run(compiled.program, overrides=inputs,
                          pause_at=reference.cycles // 2)
        assert paused is None
        snap = node.snapshot()

        restored = Node.restore(snap)
        result = restored.resume()
        assert result.outcome() == reference.outcome()
        assert not bench.check(result, inputs)

        # The original node can continue too, and the snapshot is
        # reusable for a second restore.
        original = node.resume()
        assert original.outcome() == reference.outcome()
        second = Node.restore(snap).resume()
        assert second.outcome() == reference.outcome()

    def test_round_trip_under_faults(self):
        config = baseline().with_faults(ALU_OFFLINE)
        bench, compiled, inputs = compiled_benchmark("matrix", config)
        reference = run_program(compiled.program, config,
                                overrides=inputs)
        node = Node(config)
        node.run(compiled.program, overrides=inputs, pause_at=400)
        result = Node.restore(node.snapshot()).resume()
        assert result.outcome() == reference.outcome()
        assert not bench.check(result, inputs)

    def test_snapshot_before_run_rejected(self):
        node = Node(baseline())
        with pytest.raises(SimulationError, match="resume"):
            node.resume()
