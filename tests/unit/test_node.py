"""Node engine behaviour on hand-written assembly programs."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.isa import asmtext
from repro.machine import baseline
from repro.machine.memory import MemorySpec
from repro.sim import run_program
from repro.sim.trace import TraceRecorder


def run_asm(text, config=None, **kwargs):
    program = asmtext.parse(text)
    return run_program(program, config or baseline(), **kwargs)


class TestStraightLine:
    def test_alu_chain(self):
        result = run_asm("""
.symbol out 1 full
.thread main
{ c0.iu0: iadd c0.r0, #2, #3 }
{ c0.iu0: imul c0.r1, c0.r0, #4 }
{ c0.mem0: st c0.r1, #0, #0 }
{ c4.bru0: halt }
""")
        assert result.read_symbol("out") == [20]

    def test_cycle_counting_dependent_chain(self):
        """Three dependent single-latency ops + halt: one issue per
        cycle, plus pipeline drain."""
        result = run_asm("""
.thread main
{ c0.iu0: iadd c0.r0, #1, #1 }
{ c0.iu0: iadd c0.r0, c0.r0, #1 }
{ c0.iu0: iadd c0.r0, c0.r0, #1 }
{ c4.bru0: halt }
""")
        assert result.cycles <= 6

    def test_parallel_ops_issue_same_cycle(self):
        wide = run_asm("""
.thread main
{
  c0.iu0: iadd c0.r0, #1, #1
  c1.iu0: iadd c1.r0, #2, #2
  c2.iu0: iadd c2.r0, #3, #3
  c3.iu0: iadd c3.r0, #4, #4
}
{ c4.bru0: halt }
""")
        narrow = run_asm("""
.thread main
{ c0.iu0: iadd c0.r0, #1, #1 }
{ c0.iu0: iadd c0.r1, #2, #2 }
{ c0.iu0: iadd c0.r2, #3, #3 }
{ c0.iu0: iadd c0.r3, #4, #4 }
{ c4.bru0: halt }
""")
        assert wide.cycles < narrow.cycles

    def test_dual_destination_write(self):
        result = run_asm("""
.symbol out 2 full
.thread main
{ c0.iu0: iadd c0.r0 & c1.r0, #5, #6 }
{
  c0.mem0: st c0.r0, #0, #0
  c1.mem0: st c1.r0, #1, #0
}
{ c4.bru0: halt }
""")
        assert result.read_symbol("out") == [11, 11]


class TestControlFlow:
    def test_taken_branch_skips_code(self):
        result = run_asm("""
.symbol out 1 full
.thread main
{ c4.bru0: br skip }
{ c0.mem0: st #1, #0, #0 }
skip:
{ c0.mem0: st #2, #0, #0 }
{ c4.bru0: halt }
""")
        assert result.read_symbol("out") == [2]

    def test_conditional_loop(self):
        result = run_asm("""
.symbol out 1 full
.thread main
{ c0.iu0: imov c0.r0, #0 }
loop:
{ c0.iu0: iadd c0.r0, c0.r0, #1 }
{ c0.iu0: ilt c0.r1 & c4.r0, c0.r0, #10 }
{ c4.bru0: brt c4.r0, loop }
{ c0.mem0: st c0.r0, #0, #0 }
{ c4.bru0: halt }
""")
        assert result.read_symbol("out") == [10]

    def test_falling_off_the_end_raises(self):
        with pytest.raises(SimulationError, match="fell off"):
            run_asm("""
.thread main
{ c0.iu0: iadd c0.r0, #1, #1 }
""")


class TestPresenceBits:
    def test_consumer_stalls_on_slow_producer(self):
        """A load with a long miss penalty delays its consumer but not
        independent work."""
        config = baseline().with_memory(MemorySpec(
            "always-miss", miss_rate=1.0, miss_penalty_min=30,
            miss_penalty_max=30))
        result = run_asm("""
.symbol data 1 full
.symbol out 2 full
.thread main
{ c0.mem0: ld c0.r0, #0, #0 }
{ c1.iu0: iadd c1.r0, #1, #1 }
{ c0.iu0: iadd c0.r1, c0.r0, #1 }
{
  c0.mem0: st c0.r1, #1, #1
  c1.mem0: st c1.r0, #0, #1
}
{ c4.bru0: halt }
""", config=config, overrides={"data": [7]})
        assert result.read_symbol("out") == [2, 8]
        assert result.cycles > 30


class TestMultithreading:
    def test_fork_runs_child_with_arguments(self):
        result = run_asm("""
.symbol out 1 full
.thread main
{ c0.iu0: iadd c0.r0, #20, #22 }
{ c4.bru0: fork child [c0.r0=c0.r0] }
{ c4.bru0: halt }
.thread child params=c0.r0
{ c0.mem0: st c0.r0, #0, #0 }
{ c4.bru0: halt }
""")
        assert result.read_symbol("out") == [42]
        assert result.stats.threads_spawned == 2

    def test_priority_arbitration_favors_older_thread(self):
        """Two threads competing for one IU: the lower tid wins more
        grants under priority arbitration."""
        text = """
.symbol out 2 full
.thread main
{ c4.bru0: fork child [c0.r9=#1] }
{ c0.iu0: imov c0.r0, #0 }
loop:
{ c0.iu0: iadd c0.r0, c0.r0, #1 }
{ c0.iu0: ilt c0.r1 & c4.r0, c0.r0, #30 }
{ c4.bru0: brt c4.r0, loop }
{ c0.mem0: st c0.r0, #0, #0 }
{ c4.bru0: halt }
.thread child params=c0.r9
{ c0.iu0: imov c0.r0, #0 }
cloop:
{ c0.iu0: iadd c0.r0, c0.r0, #1 }
{ c0.iu0: ilt c0.r1 & c5.r0, c0.r0, #30 }
{ c5.bru0: brt c5.r0, cloop }
{ c0.mem0: st c0.r0, #1, #0 }
{ c5.bru0: halt }
"""
        result = run_asm(text)
        assert result.read_symbol("out") == [30, 30]
        main_thread, child = result.threads[0], result.threads[1]
        assert main_thread.finish_cycle < child.finish_cycle
        assert result.stats.arbitration_losses > 0

    def test_round_robin_shares_evenly(self):
        config = baseline().with_arbitration("round-robin")
        result = run_asm("""
.thread main
{ c4.bru0: fork child [c0.r9=#1] }
{ c4.bru0: halt }
.thread child params=c0.r9
{ c0.iu0: iadd c0.r0, c0.r9, #1 }
{ c4.bru0: halt }
""", config=config)
        assert result.stats.threads_finished == 2


class TestDeadlockDetection:
    def test_parked_load_with_no_writer(self):
        with pytest.raises(DeadlockError, match="addr 0"):
            run_asm("""
.symbol flag 1 empty
.thread main
{ c0.mem0: ld_ff c0.r0, #0, #0 }
{ c0.iu0: sink c0.r0 }
{ c4.bru0: halt }
""")

    def test_max_cycles_guard(self):
        with pytest.raises(SimulationError, match="exceeded"):
            run_asm("""
.thread main
loop:
{ c4.bru0: br loop }
{ c4.bru0: halt }
""", max_cycles=200)


class TestValidation:
    def test_remote_source_rejected(self):
        with pytest.raises(SimulationError, match="remote register"):
            run_asm("""
.thread main
{ c0.iu0: iadd c0.r0, c1.r0, #1 }
{ c4.bru0: halt }
""")

    def test_unknown_unit_rejected(self):
        with pytest.raises(SimulationError, match="absent"):
            run_asm("""
.thread main
{ c9.iu0: iadd c9.r0, #1, #1 }
{ c4.bru0: halt }
""")

    def test_unknown_override_rejected(self):
        with pytest.raises(SimulationError, match="unknown symbol"):
            run_asm("""
.thread main
{ c4.bru0: halt }
""", overrides={"ghost": [1]})


class TestWAWInterlock:
    def test_stale_writeback_cannot_clobber(self):
        """Under a single write port, an older delayed writeback must
        not land after a newer write to the same register."""
        config = baseline().with_interconnect("single-port")
        result = run_asm("""
.symbol out 1 full
.thread main
{
  c0.iu0: iadd c1.r0, #1, #1
  c0.fpu0: itof c1.r1, #9
}
{ c1.iu0: iadd c1.r0, #5, #5 }
{ c1.mem0: st c1.r0, #0, #0 }
{ c4.bru0: halt }
""", config=config)
        assert result.read_symbol("out") == [10]

    @pytest.mark.parametrize("engine", ["scan", "event"])
    def test_same_word_writes_serialize_on_full_interconnect(self, engine):
        """Two slots of one word write c0.r0 and the next word writes
        it again.  Each write waits for the one before it to land, so
        no register ever has two writes in flight: the direct-writeback
        path cannot meet a same-cycle WAW pair."""
        source = """
.symbol out 1 full
.thread main
{
  c0.iu0: iadd c0.r0, #1, #1
  c1.iu0: iadd c0.r0, #5, #5
}
{ c0.iu0: iadd c0.r0, #7, #7 }
{ c0.mem0: st c0.r0, #0, #0 }
{ c4.bru0: halt }
"""
        config = baseline().with_interconnect("full")
        recorder = TraceRecorder()
        result = run_asm(source, config=config.with_engine(engine),
                         observer=recorder)
        assert [event.cycle for event in recorder.issues
                if event.op == "iadd"] == [0, 1, 2]
        assert result.read_symbol("out") == [14]
        other = run_asm(source, config=config.with_engine(
            "event" if engine == "scan" else "scan"))
        assert result.outcome() == other.outcome()
