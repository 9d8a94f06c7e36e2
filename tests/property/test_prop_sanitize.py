"""End-to-end sanitizer properties: a sanitized run that never trips
is bit-identical to a plain run at every level; a deliberately
miscompiled superblock is caught by the shadow-differential tier,
quarantined, reported with a replayable reproducer bundle, and the run
still completes bit-identical to the unfused event kernel."""

import json
import os

import pytest

from repro import compile_program
from repro.isa import asmtext
from repro.machine import baseline
from repro.programs import get_benchmark
from repro.sim import predecode, run_program
from repro.sim.sanitize import SanitizerPolicy, replay_bundle, run_sanitized

#: Cells covering ST fusion (lud/seq), MT interleaved fusion
#: (lud/coupled), and the multithreaded general case (fft/tpe).
CELLS = [("matrix", "coupled"), ("fft", "tpe"), ("lud", "seq"),
         ("lud", "coupled")]


def _cell(bench_name, mode):
    bench = get_benchmark(bench_name)
    config = baseline().with_engine("event").with_fusion(True)
    compiled = compile_program(bench.source(mode), config, mode=mode)
    return bench, compiled, config, bench.make_inputs(1)


@pytest.mark.parametrize("bench_name,mode", CELLS)
def test_deep_sanitized_run_is_bit_identical(bench_name, mode):
    bench, compiled, config, inputs = _cell(bench_name, mode)
    plain = run_program(compiled.program, config, overrides=inputs)
    sanitized = run_sanitized(compiled.program, config,
                              overrides=inputs, policy="deep")
    assert sanitized.outcome() == plain.outcome()
    assert sanitized.sanitizer.trips == 0
    assert sanitized.sanitizer.audits > 0
    if plain.stats.fused_dispatches:
        assert sanitized.sanitizer.shadow_checks > 0


def _tamper_all_blocks(state):
    """A run_sanitized tamper hook wrapping every compiled superblock
    so each successful span also corrupts memory word 0 — the model of
    a miscompiled block whose spans silently drift from the reference.
    """
    def tamper(node):
        thread = node.active[0]
        decoded = node._decoded[thread.name]
        table = decoded.blocks
        for ip in sorted(predecode._entry_points(decoded.words)):
            table._heat[ip] = 10 ** 9        # force past warmup
            block = table.get(ip)
            if block is None:
                continue
            real = block.fn

            def corrupt(*args, _real=real, _node=node, **kwargs):
                out = _real(*args, **kwargs)
                values = _node.memory._values
                values[0] = values.get(0, 0) + 999
                return out

            block.fn = corrupt
            state["wrapped"].append((thread.name, ip))
    return tamper


class TestMiscompiledBlock:
    def _run(self, tmp_path):
        bench, compiled, config, inputs = _cell("lud", "seq")
        reference = run_program(compiled.program,
                                config.with_fusion(False),
                                overrides=inputs)
        state = {"wrapped": []}
        policy = SanitizerPolicy(level="shadow",
                                 report_dir=str(tmp_path))
        result = run_sanitized(compiled.program, config,
                               overrides=inputs, policy=policy,
                               tamper=_tamper_all_blocks(state))
        assert state["wrapped"], "tamper hook found no blocks"
        return reference, result, state

    def test_detected_quarantined_and_bit_identical(self, tmp_path):
        reference, result, state = self._run(tmp_path)
        summary = result.sanitizer
        # Tier 2 tripped and triaged instead of dying or silently
        # completing wrong.
        assert summary.trips >= 1
        assert summary.requarantines >= 1
        assert summary.quarantined
        wrapped = set(state["wrapped"])
        assert set(map(tuple, summary.quarantined)) <= wrapped
        # Graceful de-optimization: the corrupted spans are barred and
        # the run completes bit-identical to the unfused event kernel.
        assert result.outcome() == reference.outcome()
        # The quarantine surfaces in Stats and in the de-fusion
        # counters (quarantined entries decline future dispatches).
        assert result.stats.quarantined_blocks == len(summary.quarantined)
        assert result.stats.defuse_reasons.get("quarantined", 0) > 0

    def test_trip_writes_replayable_bundle(self, tmp_path):
        __, result, __ = self._run(tmp_path)
        summary = result.sanitizer
        assert len(summary.reports) == 1
        bundle = summary.reports[0]
        meta = json.load(open(os.path.join(bundle, "meta.json")))
        assert meta["kind"] == "divergence"
        report = meta["report"]
        assert report["components"]
        assert report["suspects"]
        assert report["window"][1] > report["window"][0]
        # Replay restores the pre-divergence snapshot and re-runs
        # fused vs unfused.  This tamper corrupts closures in memory
        # only — pickling recompiles them clean — so the honest
        # verdict is "not reproduced"; a deterministic miscompile
        # (the real target) would reproduce.
        lines = []
        verdict = replay_bundle(bundle, out=lines.append)
        assert verdict["kind"] == "divergence"
        assert verdict["reproduced"] is False
        assert any("not reproduced" in line for line in lines)


def _miscompile_every_block(monkeypatch, address):
    """Make every superblock compiled from now on also add 999 to
    memory word ``address``: a miscompile the shadow tier must catch."""
    compile_run = predecode._compile_run

    def miscompile(*args):
        block = compile_run(*args)
        real = block.fn

        def corrupt(node, thread, cycle):
            out = real(node, thread, cycle)
            values = node.memory._values
            values[address] = values.get(address, 0) + 999
            return out

        block.fn = corrupt
        return block

    monkeypatch.setattr(predecode, "_compile_run", miscompile)


def test_trip_in_first_window_resumes_a_loaded_snapshot(monkeypatch,
                                                        tmp_path):
    """Every superblock this fresh program compiles also corrupts
    memory word 0, so the shadow tier trips inside its first window.
    Its last good snapshot must already hold the loaded program: the
    rollback resumes it, the run finishes bit-identical to the unfused
    kernel, and the bundle replays."""
    bench, compiled, config, inputs = _cell("lud", "seq")
    reference = run_program(compiled.program, config.with_fusion(False),
                            overrides=inputs)
    _miscompile_every_block(monkeypatch, 0)
    policy = SanitizerPolicy(level="shadow", report_dir=str(tmp_path))
    result = run_sanitized(compiled.program, config, overrides=inputs,
                           policy=policy)
    assert result.sanitizer.trips >= 1
    assert result.outcome() == reference.outcome()
    # The restored snapshot recompiles its blocks through the same
    # miscompiling hook, so the divergence reproduces.
    verdict = replay_bundle(result.sanitizer.reports[0], out=[].append)
    assert verdict["kind"] == "divergence"
    assert verdict["reproduced"] is True


#: A hand-written loop whose head is the program's first word and
#: compiles to a one-cycle superblock, the one span that the first
#: cycle's pause does not clamp.
_LOOP_AT_WORD_0 = """
.symbol OUT 2 full
.thread main
top:
{
  c0.iu0: iadd c0.r1, c0.r1, #1
  c4.bru0: brt c4.r3, done
}
{
  c0.iu0: ige c4.r3, c0.r1, #40
}
{
  c4.bru0: br top
}
done:
{
  c0.mem0: st c0.r1, #0, #0
}
{
  c4.bru0: halt
}
"""


def test_hot_rerun_fuses_nothing_before_the_first_snapshot(monkeypatch,
                                                          tmp_path):
    """A re-run dispatches code the reuse slot holds at first sight, so
    a corrupt block could run in the sanitizer's first cycle and sit in
    every snapshot its triage rolls back to.  The primary runs that
    cycle unfused: the trip comes later, and the run recovers."""
    program = asmtext.parse(_LOOP_AT_WORD_0)
    config = baseline()
    reference = run_program(program, config.with_fusion(False))
    _miscompile_every_block(monkeypatch, 1)
    first = run_program(program, config)
    assert first.memory._values != reference.memory._values, \
        "the slot holds no corrupt code"
    policy = SanitizerPolicy(level="shadow", report_dir=str(tmp_path))
    result = run_sanitized(program, config, policy=policy)
    assert result.sanitizer.trips >= 1
    assert result.outcome() == reference.outcome()


def test_shadow_mode_without_fusion_still_audits():
    # Shadow differential execution needs a fused primary; without one
    # the sanitizer degrades to the audit tier instead of failing.
    bench, compiled, config, inputs = _cell("matrix", "coupled")
    unfused = config.with_fusion(False)
    plain = run_program(compiled.program, unfused, overrides=inputs)
    result = run_sanitized(compiled.program, unfused,
                           overrides=inputs, policy="shadow")
    assert result.outcome() == plain.outcome()
    assert result.sanitizer.shadow_checks == 0
    assert result.sanitizer.audits > 0
    assert result.sanitizer.trips == 0
