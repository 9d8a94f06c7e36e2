"""Unit tests for the online state sanitizer (repro.sim.sanitize).

The mutation tests here are the sanitizer's reason to exist: each one
seeds a deliberate corruption of live simulator state — a flipped
presence bit, a dropped heap event, a stale fill-board entry, a lost
wakeup — and asserts the invariant-audit tier names it at the first
audited cycle.
"""

import json
import os
import types

import pytest

from repro import compile_program
from repro.errors import (CellFailure, InvariantViolation, SanitizerError,
                          SimulationError)
from repro.machine import baseline
from repro.programs import get_benchmark
from repro.sim import make_node, run_program, sanitize
from repro.sim.opcache import OpCacheSpec
from repro.sim.sanitize import (InvariantAuditor, SanitizerPolicy,
                                _audit_starvation, _build_report,
                                _producer_bits, audit_node, coerce_policy,
                                diff_components, replay_bundle,
                                state_delta, write_bundle)


def _paused(engine="event", bench="fft", mode="coupled", pause_at=120,
            mutate=None, seed=1):
    """A node paused mid-run at a clean cycle boundary."""
    config = baseline().with_engine(engine).with_seed(seed)
    if mutate is not None:
        config = mutate(config)
    benchmark = get_benchmark(bench)
    compiled = compile_program(benchmark.source(mode), config, mode=mode)
    node = make_node(config)
    paused = node.run(compiled.program,
                      overrides=benchmark.make_inputs(1),
                      pause_at=pause_at)
    assert paused is None, "program finished before the pause"
    return node


def _pause_with_producers(engine="event"):
    """A paused node with at least one in-flight register producer."""
    node = _paused(engine=engine, pause_at=40)
    for __ in range(200):
        producers = {key: mask for key, mask
                     in _producer_bits(node).items() if mask}
        if producers:
            return node, producers
        if node.resume(pause_at=node.cycle + 5) is not None:
            break
    pytest.fail("never observed an in-flight producer")


class TestPolicy:
    def test_coerce(self):
        assert coerce_policy(None) is None
        assert coerce_policy("off") is None
        assert coerce_policy("audit").level == "audit"
        deep = coerce_policy("deep")
        assert deep.audit_stride == 1
        policy = SanitizerPolicy(level="shadow")
        assert coerce_policy(policy) is policy
        with pytest.raises(ValueError):
            SanitizerPolicy(level="paranoid")
        with pytest.raises(TypeError):
            coerce_policy(42)

    def test_report_dir_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_DIR", "/tmp/elsewhere")
        assert SanitizerPolicy().report_dir == "/tmp/elsewhere"


class TestInvariantAudits:
    """Seeded corruptions, each caught by name at the next audit."""

    @pytest.mark.parametrize("engine", ["event", "scan"])
    def test_clean_run_audits_clean(self, engine):
        node = _paused(engine=engine)
        assert audit_node(node) == []

    @pytest.mark.parametrize("engine", ["event", "scan"])
    def test_flipped_presence_bit_orphan(self, engine):
        # A presence bit claiming an in-flight result that nobody is
        # computing: the canonical lost-writeback corruption.
        node = _paused(engine=engine)
        thread = node.active[0]
        frame = thread.frames[sorted(thread.frames)[0]]
        frame._invalid |= 1 << 30
        violations = audit_node(node)
        assert any("no in-flight producer" in v for v in violations)

    def test_flipped_presence_bit_ghost(self):
        # The opposite flip: a register marked present while its
        # producer is still in flight (a double write-back in waiting).
        node, producers = _pause_with_producers()
        (tid, cluster), mask = sorted(producers.items())[0]
        thread = {t.tid: t for t in node.active + node.finished}[tid]
        thread.frames[cluster]._invalid &= ~mask
        violations = audit_node(node)
        assert any("producer targets valid registers" in v
                   for v in violations)

    def test_dropped_completion_event(self):
        # Remove a due completion from the event kernel's pipe: its
        # destination presence bits instantly orphan.
        node, __ = _pause_with_producers()
        if not node._pipe:
            pytest.skip("producers were all memory refs at this pause")
        node._pipe.sort()
        node._pipe.pop(0)
        violations = audit_node(node)
        assert violations, "dropped pipe event went unnoticed"

    def test_overdue_heap_event(self):
        node, __ = _pause_with_producers()
        heap = node._pipe or node.memory._in_flight
        assert heap, "no timed events at pause"
        entry = heap[0]
        heap[0] = (node.cycle - 5,) + tuple(entry[1:])
        violations = audit_node(node)
        assert any("overdue event" in v for v in violations)

    def test_lost_thread_wakeup(self):
        # A parked thread with nothing left to wake it: the event
        # kernel would idle it forever.
        node = _paused(engine="event")
        thread = node.active[0]
        thread.parked = True
        del thread.pending_plans[:]
        violations = audit_node(node)
        assert any("lost wakeup" in v for v in violations)

    def test_memory_busy_set_skew(self):
        node = _paused()
        node.memory._busy.add(99_991)
        violations = audit_node(node)
        assert any("busy-set skew" in v for v in violations)

    def test_writeback_count_skew(self):
        node = _paused(engine="event")
        node._wb_count += 1
        violations = audit_node(node)
        assert any("writeback count skew" in v for v in violations)

    def test_stale_fill_board_entry(self):
        node = _paused(
            bench="lud", mode="seq", pause_at=300,
            mutate=lambda c: c.with_op_cache(OpCacheSpec(capacity=8,
                                                         fill_penalty=4)))
        unit = next(node.units[uid] for uid in node.unit_order
                    if node.units[uid].opcache is not None)
        unit.opcache._board[("main", 99_999)] = node.cycle + 3
        violations = audit_node(node)
        assert any("stale board entry" in v for v in violations)

    @pytest.mark.parametrize("engine", ["event", "scan"])
    def test_auditor_trips_through_resume(self, engine):
        # The kernels' in-loop hook, end to end: corrupt a paused run,
        # resume under a per-cycle auditor, and the violation surfaces
        # at the first audited cycle.
        node = _paused(engine=engine, pause_at=100)
        thread = node.active[0]
        frame = thread.frames[sorted(thread.frames)[0]]
        frame._invalid |= 1 << 30
        node.sanitizer = InvariantAuditor(SanitizerPolicy(level="deep"))
        with pytest.raises(InvariantViolation) as excinfo:
            node.resume()
        assert excinfo.value.cycle == 101
        assert any("no in-flight producer" in v
                   for v in excinfo.value.violations)


class TestStarvationAudit:
    """Round-robin fairness bound over a synthetic runnable set."""

    @staticmethod
    def _fake_node(issued):
        def thread(tid):
            plan = types.SimpleNamespace(single_wait=None, wait_groups=())
            return types.SimpleNamespace(
                tid=tid, name="t%d" % tid, parked=False, halted=False,
                control_inflight=False, pending_plans=[plan], pending={},
                frames={})
        return types.SimpleNamespace(
            arbiter=types.SimpleNamespace(name="round-robin"),
            active=[thread(0), thread(1)],
            stats=types.SimpleNamespace(issued_by_thread=dict(issued)))

    @staticmethod
    def _auditor(monkeypatch, bound=100):
        monkeypatch.setattr(sanitize, "STARVATION_CYCLES", bound)
        return InvariantAuditor(SanitizerPolicy(level="audit"))

    def test_starved_ready_thread_trips(self, monkeypatch):
        auditor = self._auditor(monkeypatch, bound=100)
        violations = []
        _audit_starvation(self._fake_node({0: 10, 1: 0}), 1000,
                          auditor, violations)
        assert violations == []          # first sight: mark, no trip
        _audit_starvation(self._fake_node({0: 25, 1: 0}), 1101,
                          auditor, violations)
        assert len(violations) == 1
        assert "starvation" in violations[0] and "t1" in violations[0]

    def test_issuing_thread_resets_the_clock(self, monkeypatch):
        auditor = self._auditor(monkeypatch, bound=100)
        violations = []
        _audit_starvation(self._fake_node({0: 10, 1: 0}), 1000,
                          auditor, violations)
        _audit_starvation(self._fake_node({0: 25, 1: 2}), 1101,
                          auditor, violations)
        assert violations == []

    def test_an_idle_machine_is_not_starvation(self, monkeypatch):
        # Nobody else issued either: that's a stall, not unfairness.
        auditor = self._auditor(monkeypatch, bound=100)
        violations = []
        _audit_starvation(self._fake_node({0: 10, 1: 0}), 1000,
                          auditor, violations)
        _audit_starvation(self._fake_node({0: 10, 1: 0}), 1101,
                          auditor, violations)
        assert violations == []

    def test_priority_arbitration_not_audited(self, monkeypatch):
        auditor = self._auditor(monkeypatch, bound=1)
        node = self._fake_node({0: 10, 1: 0})
        node.arbiter = types.SimpleNamespace(name="priority")
        violations = []
        _audit_starvation(node, 10_000, auditor, violations)
        assert violations == []


class TestDigests:
    def test_identical_runs_have_no_diff(self):
        a = _paused(pause_at=150)
        b = _paused(pause_at=150)
        assert diff_components(a, b) == []
        assert state_delta(a, b) == []

    def test_different_seeds_diverge(self):
        a = _paused(pause_at=150, seed=1)
        b = _paused(pause_at=150, seed=2)
        assert diff_components(a, b) != []
        assert state_delta(a, b)

    def test_delta_is_bounded(self):
        a = _paused(pause_at=150, seed=1)
        b = _paused(pause_at=150, seed=2)
        assert len(state_delta(a, b, limit=3)) <= 3


class TestBundles:
    def test_invariant_bundle_round_trip(self, tmp_path):
        # Corrupt state -> bundle -> replay reproduces the violation
        # deterministically on a fresh process-equivalent restore.
        node = _paused(engine="event", pause_at=100)
        thread = node.active[0]
        frame = thread.frames[sorted(thread.frames)[0]]
        frame._invalid |= 1 << 30
        policy = SanitizerPolicy(level="audit",
                                 report_dir=str(tmp_path))
        report = _build_report(
            kind="invariant", node=node, window=(36, 100),
            suspects=(), quarantined=(), components=(), delta=(),
            violations=audit_node(node))
        path = write_bundle(report, node.snapshot(), policy,
                            max_cycles=5_000_000, watchdog_cycles=None)
        meta = json.loads(
            open(os.path.join(path, "meta.json")).read())
        assert meta["kind"] == "invariant"
        assert meta["report"]["violations"]
        lines = []
        verdict = replay_bundle(path, out=lines.append)
        assert verdict == {"reproduced": True, "kind": "invariant",
                           "error": verdict["error"]}
        assert any("reproduced" in line for line in lines)

    def test_bundle_paths_never_collide(self, tmp_path):
        node = _paused(pause_at=100)
        policy = SanitizerPolicy(level="audit", report_dir=str(tmp_path))
        report = _build_report(kind="invariant", node=node,
                               window=(0, 100), suspects=(),
                               quarantined=(), components=(), delta=(),
                               violations=["x"])
        first = write_bundle(report, node.snapshot(), policy, 100, None)
        second = write_bundle(report, node.snapshot(), policy, 100, None)
        assert first != second


class TestErrorPlumbing:
    def test_cell_failure_carries_reproducer(self):
        exc = SanitizerError("boom", bundle_path="/tmp/b1")
        failure = CellFailure.from_exception("fft", "tpe", exc)
        assert failure.reproducer == "/tmp/b1"
        assert failure.as_record()["reproducer"] == "/tmp/b1"

    def test_plain_failures_omit_reproducer(self):
        failure = CellFailure.from_exception("fft", "tpe",
                                             SimulationError("x"))
        assert failure.reproducer is None
        assert "reproducer" not in failure.as_record()

    def test_invariant_violation_pickles_with_payload(self):
        import pickle
        exc = InvariantViolation("bad", cycle=7, violations=["a", "b"],
                                 bundle_path="/tmp/b2")
        back = pickle.loads(pickle.dumps(exc))
        assert back.cycle == 7
        assert back.violations == ["a", "b"]
        assert back.bundle_path == "/tmp/b2"


class TestReportSurface:
    def test_report_render_mentions_everything(self):
        node = _paused(pause_at=100)
        report = _build_report(
            kind="divergence", node=node, window=(50, 100),
            suspects=[("main", 3)], quarantined=[("main", 3)],
            components=["memory"], delta=["memory[0]: 1 != 2"],
            violations=())
        text = report.render()
        assert "divergence" in text
        assert "main@3" in text
        assert "memory" in text
        data = report.as_dict()
        json.dumps(data)                 # must be JSON-serializable
        assert data["suspects"] == [["main", 3]]

    def test_run_program_sanitize_kwarg(self):
        bench = get_benchmark("matrix")
        config = baseline()
        compiled = compile_program(bench.source("coupled"), config,
                                   mode="coupled")
        result = run_program(compiled.program, config,
                             overrides=bench.make_inputs(1),
                             sanitize="audit")
        assert result.sanitizer is not None
        assert result.sanitizer.level == "audit"
        assert result.sanitizer.audits > 0
        assert result.sanitizer.trips == 0
