"""Decoded words and compiled superblocks are shared between runs of
one program (``repro.sim.predecode.decode_program``).  The sharing
must be invisible: a program object run again behaves exactly like a
freshly compiled copy, engine counters included, per-run block handles
stay per run, and the shared entries die with the program."""

import gc
import weakref

import pytest

from repro import compile_program, run_program
from repro.experiments.runner import Harness, RunSpec
from repro.machine import baseline
from repro.programs import get_benchmark
from repro.sim import make_node, predecode


def _compile(name, mode, config):
    bench = get_benchmark(name)
    return compile_program(bench.source(mode), config, mode=mode).program


def _outcome(result):
    stats = result.stats
    return (result.cycles, stats.summary(), stats.fused_dispatches,
            dict(stats.defuse_reasons))


@pytest.mark.parametrize("name,mode", [("lud", "seq"), ("lud", "coupled")])
def test_rerunning_one_program_matches_fresh_copies(name, mode):
    config = baseline()
    inputs = get_benchmark(name).make_inputs(1)
    program = _compile(name, mode, config)
    reruns = [_outcome(run_program(program, config, overrides=inputs))
              for __ in range(3)]
    fresh = [_outcome(run_program(_compile(name, mode, config), config,
                                  overrides=inputs))
             for __ in range(3)]
    assert reruns == fresh
    assert reruns[0][2] > 0, "nothing fused: the test shares nothing"


def test_peeled_batch_lanes_match_fresh_scalar_runs():
    pytest.importorskip("numpy")
    seeds = (1, 2, 3, 4)
    got = Harness(compile_cache=None).run_many(
        [RunSpec("model", "seq", seed=seed) for seed in seeds],
        backend="batch")
    peeled = [result for result in got if result.backend == "batch-peeled"]
    assert len(peeled) >= 2, "fewer than two peeled lanes share a decode"
    for seed, result in zip(seeds, got):
        want = Harness(compile_cache=None).run("model", "seq", seed=seed)
        if result.backend == "batch-peeled":
            assert _outcome(result) == _outcome(want)
        else:
            # The lockstep tier never fuses, so only its engine
            # counters may differ from a scalar run.
            assert result.cycles == want.cycles
            assert result.stats.summary() == want.stats.summary()


def test_block_handles_stay_per_run():
    config = baseline()
    program = _compile("lud", "seq", config)
    inputs = get_benchmark("lud").make_inputs(1)
    first = make_node(config)
    first.run(program, overrides=inputs)
    blocks = first._decoded["main"].blocks.compiled_blocks()
    assert blocks, "lud/seq compiled no superblocks"
    calls = []
    originals = {}
    for ip, block in blocks.items():
        originals[ip] = real = block.fn

        def wrapped(*args, _real=real):
            calls.append(args)
            return _real(*args)

        block.fn = wrapped
    second = make_node(config)
    result = second.run(program, overrides=inputs)
    assert result.stats.fused_dispatches > 0
    assert calls == []
    again = second._decoded["main"].blocks.compiled_blocks()
    assert set(again) == set(blocks)
    for ip, block in again.items():
        assert block is not blocks[ip]
        assert block.fn is originals[ip]     # shared code, fresh handle


def test_shared_entries_die_with_their_program():
    config = baseline()
    program = _compile("lud", "seq", config)
    result = run_program(program, config,
                         overrides=get_benchmark("lud").make_inputs(1))
    assert result.stats.fused_dispatches > 0
    shared = predecode._SHARED.get(program)
    assert any(len(key) == 3 and code for key, code in shared.items()), \
        "no compiled code was shared"
    ref = weakref.ref(program)
    count = len(predecode._SHARED)
    del program, result, shared
    gc.collect()
    assert ref() is None
    assert len(predecode._SHARED) <= count - 1
