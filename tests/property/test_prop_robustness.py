"""Robustness properties: determinism, correctness under random memory
latencies, restricted interconnects, thread interleavings, and injected
faults."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import ReproError, compile_program, run_program
from repro.machine import CommScheme, baseline
from repro.machine.memory import MemorySpec
from repro.programs import get_benchmark
from repro.sim.faults import FaultEvent, FaultPlan

THREADED_SOURCE = """
(program
  (const N 5)
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

INPUT = {"A": [0.5, -1.5, 2.0, 3.25, -0.75]}
EXPECTED = [x * x + 1.0 for x in INPUT["A"]]


def run_threaded(config):
    compiled = compile_program(THREADED_SOURCE, config, mode="coupled")
    return run_program(compiled.program, config, overrides=INPUT)


class TestDeterminism:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_cycles(self, seed):
        spec = MemorySpec("m", miss_rate=0.2, miss_penalty_min=5,
                          miss_penalty_max=40)
        config = baseline().with_memory(spec).with_seed(seed)
        a = run_threaded(config)
        b = run_threaded(config)
        assert a.outcome() == b.outcome()


class TestLatencyRobustness:
    @given(seed=st.integers(0, 10_000),
           miss_rate=st.floats(min_value=0.0, max_value=0.5),
           penalty=st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_results_independent_of_latency(self, seed, miss_rate,
                                            penalty):
        spec = MemorySpec("rand", miss_rate=miss_rate,
                          miss_penalty_min=1, miss_penalty_max=penalty)
        config = baseline().with_memory(spec).with_seed(seed)
        result = run_threaded(config)
        assert result.read_symbol("B") == EXPECTED


class TestInterconnectRobustness:
    @given(scheme=st.sampled_from(list(CommScheme)),
           arbitration=st.sampled_from(["priority", "round-robin"]))
    @settings(max_examples=10, deadline=None)
    def test_results_independent_of_ports(self, scheme, arbitration):
        config = baseline().with_interconnect(scheme) \
            .with_arbitration(arbitration)
        result = run_threaded(config)
        assert result.read_symbol("B") == EXPECTED

    @given(scheme=st.sampled_from([CommScheme.SINGLE_PORT,
                                   CommScheme.SHARED_BUS]),
           seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_benchmark_correct_under_congestion_and_misses(self, scheme,
                                                           seed):
        bench = get_benchmark("matrix")
        inputs = bench.make_inputs(seed=2)
        spec = MemorySpec("m", miss_rate=0.1, miss_penalty_min=2,
                          miss_penalty_max=25)
        config = baseline().with_interconnect(scheme) \
            .with_memory(spec).with_seed(seed)
        compiled = compile_program(bench.source("coupled"), config,
                                   mode="coupled")
        result = run_program(compiled.program, config, overrides=inputs)
        assert not bench.check(result, inputs)


_UNIT_IDS = tuple(sorted(baseline().unit_by_id))

_fault_events = st.lists(
    st.one_of(
        st.builds(FaultEvent,
                  kind=st.just("unit_offline"),
                  unit=st.sampled_from(_UNIT_IDS),
                  start=st.integers(0, 2000),
                  duration=st.integers(1, 500)),
        st.builds(FaultEvent,
                  kind=st.just("writeback_block"),
                  unit=st.sampled_from(_UNIT_IDS),
                  start=st.integers(0, 2000),
                  duration=st.integers(1, 200)),
        st.builds(FaultEvent,
                  kind=st.just("mem_delay"),
                  start=st.integers(0, 2000),
                  duration=st.integers(1, 500),
                  extra=st.integers(1, 30)),
        st.builds(FaultEvent,
                  kind=st.just("bank_blackout"),
                  start=st.integers(0, 2000),
                  duration=st.integers(1, 200),
                  lo=st.integers(0, 32),
                  hi=st.integers(64, 1024)),
        st.builds(FaultEvent,
                  kind=st.just("presence_stall"),
                  start=st.integers(0, 2000),
                  duration=st.integers(1, 300),
                  extra=st.integers(1, 20)),
    ),
    max_size=6)


class TestFaultResilience:
    @given(seed=st.integers(0, 2**31), rate=st.floats(0.5, 6.0))
    @settings(max_examples=10, deadline=None)
    def test_same_fault_seed_same_cycles(self, seed, rate):
        """Same FaultPlan seed => identical cycle count and stats."""
        plan = FaultPlan.random(seed, baseline(), rate=rate,
                                horizon=3000)
        config = baseline().with_faults(plan)
        a = run_threaded(config)
        b = run_threaded(config)
        assert a.outcome() == b.outcome()
        assert a.read_symbol("B") == EXPECTED

    @given(events=_fault_events, reroute=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_any_plan_completes_or_raises_structured_error(self, events,
                                                           reroute):
        """An arbitrary fault plan either finishes with correct output
        or raises a structured ReproError — never a hang (the watchdog
        bounds the run) or a bare exception."""
        config = baseline().with_faults(FaultPlan(events,
                                                  reroute=reroute))
        compiled = compile_program(THREADED_SOURCE, config,
                                   mode="coupled")
        try:
            result = run_program(compiled.program, config,
                                 overrides=INPUT, max_cycles=100_000,
                                 watchdog_cycles=3_000)
        except ReproError:
            pass                        # structured failure is allowed
        else:
            assert result.read_symbol("B") == EXPECTED
