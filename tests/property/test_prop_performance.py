"""Performance-layer properties: the parallel harness and the event
kernel's clock jump are pure accelerations — neither may change a
single reported number.

* serial vs ``workers=4`` process-pool fan-out: identical cycle counts
  and statistics for every paper benchmark in coupled mode;
* the default (jumping) kernel vs the scan kernel, which simulates
  every cycle: identical cycle counts and statistics, across randomly
  drawn machine configurations (hypothesis).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import baseline, compile_program, run_program
from repro.experiments.runner import Harness, RunSpec
from repro.machine.memory import MemorySpec
from repro.programs.suite import BENCHMARK_ORDER
from repro.sim.opcache import OpCacheSpec

COUPLED_SUITE = [RunSpec(name, "coupled") for name in BENCHMARK_ORDER]


class TestSerialParallelEquivalence:
    def test_workers4_bit_identical_to_serial(self):
        serial = Harness(compile_cache=False).run_many(COUPLED_SUITE)
        parallel = Harness(compile_cache=False).run_many(COUPLED_SUITE,
                                                         workers=4)
        for expected, got in zip(serial, parallel):
            assert got.benchmark == expected.benchmark
            assert got.cycles == expected.cycles
            assert got.stats.summary() == expected.stats.summary()

    def test_disk_cache_does_not_change_results(self, tmp_path):
        from repro.compiler import CompileCache
        cold = Harness(compile_cache=CompileCache(str(tmp_path)))
        warm = Harness(compile_cache=CompileCache(str(tmp_path)))
        plain = Harness(compile_cache=False)
        specs = COUPLED_SUITE[:2]
        for harness in (cold, warm):
            for expected, got in zip(plain.run_many(specs),
                                     harness.run_many(specs)):
                assert got.cycles == expected.cycles
                assert got.stats.summary() == expected.stats.summary()
        assert warm.disk_cache.hits > 0


class TestFastForwardEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        hit_latency=st.integers(min_value=1, max_value=8),
        miss_rate=st.sampled_from([0.0, 0.25, 1.0]),
        penalty=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
        arbitration=st.sampled_from(["priority", "round-robin"]),
        opcache_penalty=st.sampled_from([None, 3, 11]),
    )
    def test_random_configs_identical(self, hit_latency, miss_rate,
                                      penalty, seed, arbitration,
                                      opcache_penalty):
        spec = MemorySpec("rand", hit_latency=hit_latency,
                          miss_rate=miss_rate, miss_penalty_min=1,
                          miss_penalty_max=penalty)
        config = baseline().with_memory(spec).with_seed(seed) \
                           .with_arbitration(arbitration)
        if opcache_penalty is not None:
            config = config.with_op_cache(
                OpCacheSpec(capacity=8, fill_penalty=opcache_penalty))
        compiled = compile_program(THREADED_SOURCE, config,
                                   mode="coupled")
        fast = run_program(compiled.program, config, overrides=INPUT)
        slow = run_program(compiled.program, config.with_engine("scan"),
                           overrides=INPUT)
        assert fast.outcome() == slow.outcome()


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
