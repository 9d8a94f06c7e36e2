"""Decoded words and compiled superblocks are shared between runs of
one program (``repro.sim.predecode.decode_program``).  The sharing
must not change any answer: a program object run again matches a
freshly compiled copy in ``SimResult.outcome()``, and per-run block
handles stay per run.  It does
change how a re-run gets there: warm-up gates compilation, not
dispatch, so an entry whose code the slot already holds dispatches at
first sight, and a re-run's engine counters may exceed a fresh copy's.
A first run is unchanged, so fresh copies still agree with each other
exactly, engine counters included.  The sharing is also short-lived:
only the last program decoded keeps its plans, so decoding another
program frees them, and a lane bundle's peeled re-runs and a
sanitizer's shadow node decode each thread once."""

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


def _engine(result):
    stats = result.stats
    return stats.fused_dispatches, dict(stats.defuse_reasons)


@pytest.mark.parametrize("name,mode", [("lud", "seq"), ("lud", "coupled")])
def test_rerunning_one_program_matches_fresh_copies(name, mode):
    config = baseline()
    inputs = get_benchmark(name).make_inputs(1)
    program = _compile(name, mode, config)
    reruns = [run_program(program, config, overrides=inputs)
              for __ in range(3)]
    fresh = [run_program(_compile(name, mode, config), config,
                         overrides=inputs)
             for __ in range(3)]
    # First runs are pinned: fresh copies agree in everything.
    for run in fresh[1:]:
        assert (run.outcome(), _engine(run)) \
            == (fresh[0].outcome(), _engine(fresh[0]))
    assert [run.outcome() for run in reruns] \
        == [run.outcome() for run in fresh]
    assert _engine(reruns[0]) == _engine(fresh[0])
    assert fresh[0].stats.fused_dispatches > 0, \
        "nothing fused: the test shares nothing"


def test_rerun_dispatches_compiled_entries_at_first_sight():
    """A fresh run interprets the first ``_WARMUP_DISPATCHES - 1``
    sightings of every entry it then compiles; a re-run finds the code
    in the slot and fuses them.  An entry inside another compiled run
    gains nothing: its warm-up sightings were the interpreted passes
    through that run, which the re-run fuses over."""
    config = baseline()
    inputs = get_benchmark("lud").make_inputs(1)
    program = _compile("lud", "seq", config)
    node = make_node(config)
    fresh = node.run(program, overrides=inputs)
    entries = 0
    for thread in node._decoded.values():
        blocks = thread.blocks.compiled_blocks()
        entries += sum(not any(ip in other.word_ips[1:]
                               for other in blocks.values())
                       for ip in blocks)
    assert entries, "lud/seq compiled no superblocks"
    rerun = run_program(program, config, overrides=inputs)
    assert rerun.outcome() == fresh.outcome()
    assert rerun.stats.fused_dispatches - fresh.stats.fused_dispatches \
        == entries * (predecode._WARMUP_DISPATCHES - 1)


def test_scalar_run_many_reruns_dispatch_sooner():
    seeds = (1, 2, 3, 4)
    got = Harness(compile_cache=None).run_many(
        [RunSpec("model", "seq", seed=seed) for seed in seeds])
    assert len({id(result.compiled.program) for result in got}) == 1
    for seed, result in zip(seeds, got):
        want = Harness(compile_cache=None).run("model", "seq", seed=seed)
        assert result.cycles == want.cycles
        assert result.stats.summary() == want.stats.summary()
        if seed == seeds[0]:
            assert _engine(result) == _engine(want)
        else:
            assert result.stats.fused_dispatches \
                > want.stats.fused_dispatches


def _count_decodes(monkeypatch):
    """The thread names ``predecode._decode_words`` is called with from
    now on."""
    calls = []
    decode = predecode._decode_words

    def counted(name, *args):
        calls.append(name)
        return decode(name, *args)

    monkeypatch.setattr(predecode, "_decode_words", counted)
    return calls


def test_peeled_batch_lanes_match_fresh_scalar_runs(monkeypatch):
    pytest.importorskip("numpy", exc_type=ImportError)
    seeds = (1, 2, 3, 4)
    calls = _count_decodes(monkeypatch)
    got = Harness(compile_cache=None).run_many(
        [RunSpec("model", "seq", seed=seed) for seed in seeds],
        backend="batch")
    peeled = [result for result in got if result.backend == "batch-peeled"]
    assert len(peeled) >= 2, "fewer than two peeled lanes share a decode"
    # The lockstep node and every peeled re-run share one decode.
    assert sorted(calls) == sorted(got[0].compiled.program.threads)
    for seed, result in zip(seeds, got):
        want = Harness(compile_cache=None).run("model", "seq", seed=seed)
        assert result.cycles == want.cycles
        assert result.stats.summary() == want.stats.summary()
        # The lockstep tier never fuses, so the first peeled lane is
        # the program's first fused run and warms up like a fresh one;
        # the later ones dispatch its code at first sight.
        if result is peeled[0]:
            assert _engine(result) == _engine(want)
        elif result.backend == "batch-peeled":
            assert result.stats.fused_dispatches \
                > want.stats.fused_dispatches


@pytest.mark.parametrize("name,mode", [("lud", "seq"), ("model", "sts")])
def test_hot_rerun_under_the_deep_sanitizer(name, mode):
    """The shadow tier checks a re-run's first-sight dispatches against
    the unfused kernel, which would catch one the guards let through
    wrongly."""
    config = baseline()
    inputs = get_benchmark(name).make_inputs(1)
    program = _compile(name, mode, config)
    first = run_program(program, config, overrides=inputs)
    second = run_program(program, config, overrides=inputs,
                         sanitize="deep")
    assert second.sanitizer.trips == 0
    assert second.sanitizer.shadow_checks > 0
    assert second.outcome() == first.outcome()
    cold = run_program(_compile(name, mode, config), config,
                       overrides=inputs, sanitize="deep")
    assert second.stats.fused_dispatches > cold.stats.fused_dispatches


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


def _live_plans(program=None):
    """How many ``SlotPlan``s are alive: all of them, or those decoded
    from ``program``'s operations."""
    gc.collect()
    plans = [obj for obj in gc.get_objects()
             if type(obj) is predecode.SlotPlan]
    if program is None:
        return len(plans)
    ops = {id(op) for thread in program.threads.values()
           for word in thread.instructions for __, op in word}
    return sum(id(plan.op) in ops for plan in plans)


def test_decoding_another_program_frees_the_plans():
    config = baseline()
    first = _compile("lud", "seq", config)
    second = _compile("matrix", "seq", config)
    result = run_program(first, config,
                         overrides=get_benchmark("lud").make_inputs(1))
    assert result.stats.fused_dispatches > 0
    del result
    assert _live_plans(first), "no plan outlived the run: nothing to free"
    run_program(second, config,
                overrides=get_benchmark("matrix").make_inputs(1))
    assert _live_plans(first) == 0
    kept = _live_plans(second)
    assert kept
    live = _live_plans()
    refs = [weakref.ref(first), weakref.ref(second)]
    del first, second
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert _live_plans() == live - kept


def test_shadow_node_decodes_each_thread_once(monkeypatch):
    config = baseline()
    program = _compile("matrix", "coupled", config)
    calls = _count_decodes(monkeypatch)
    result = run_program(program, config, sanitize="deep",
                         overrides=get_benchmark("matrix").make_inputs(1))
    assert result.sanitizer.shadow_checks > 0
    assert sorted(calls) == sorted(program.threads)
