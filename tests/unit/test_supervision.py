"""The supervised-sweep layer (repro.experiments.supervision):
failure policy, the journaled ledger, the result record and its
replay, and the serial collect path.  Pool-level crash isolation is
covered by tests/integration/test_supervised_sweep.py and the
property suite.
"""

import json

import pytest

from repro.errors import (CellFailure, CellTimeoutError, ConfigError,
                          SweepJournalError, VerificationError,
                          WatchdogError)
from repro.experiments import supervision
from repro.experiments.runner import Harness, RunResult, RunSpec
from repro.experiments.supervision import (ReplayedStats, SweepJournal,
                                           backoff, run_key_digest)
from repro.sim.batch import batch_supported
from tests.conftest import RECORD_KEYS

needs_numpy = pytest.mark.skipif(not batch_supported(),
                                 reason="the batch backend requires numpy")


class TestPolicy:
    def test_invalid_on_error_rejected(self):
        with pytest.raises(ConfigError):
            Harness().run_many([], on_error="ignore")

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ConfigError):
            Harness().run_many([], cell_timeout=0)
        with pytest.raises(ConfigError):
            Harness().run_many([], cell_timeout=-1.0)

    def test_backoff_doubles_and_caps(self, monkeypatch):
        monkeypatch.setattr(supervision, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(supervision, "BACKOFF_CAP", 0.5)
        assert backoff(1) == pytest.approx(0.1)
        assert backoff(2) == pytest.approx(0.2)
        assert backoff(3) == pytest.approx(0.4)
        assert backoff(4) == pytest.approx(0.5)   # capped
        assert backoff(10) == pytest.approx(0.5)


class TestCellFailure:
    def test_from_exception_shapes_fields(self):
        exc = WatchdogError("no progress", cycle=123)
        failure = CellFailure.from_exception("matrix", "coupled", exc,
                                             attempts=2,
                                             key_digest="abc123")
        assert not failure.ok
        assert failure.benchmark == "matrix"
        assert failure.mode == "coupled"
        assert failure.error_type == "WatchdogError"
        assert "no progress" in failure.message
        assert failure.attempts == 2
        assert failure.timed_out is False
        assert failure.key_digest == "abc123"

    def test_timeout_flagged(self):
        exc = CellTimeoutError("lud", "sts", 5.0)
        failure = CellFailure.from_exception("lud", "sts", exc)
        assert failure.timed_out is True
        assert failure.error_type == "CellTimeoutError"

    def test_record_is_json_serializable(self):
        failure = CellFailure("fft", "tpe", "OSError", "boom",
                              attempts=3, timed_out=False)
        record = json.loads(json.dumps(failure.as_record()))
        assert record["benchmark"] == "fft"
        assert record["attempts"] == 3


class TestVerificationError:
    def test_message_carries_reproduction_context(self):
        problems = ["out[%d] wrong" % i for i in range(7)]
        exc = VerificationError("matrix", "coupled", "baseline",
                                problems, signature="deadbeef1234",
                                seed=42)
        text = str(exc)
        assert "7 problem(s)" in text
        assert "(+4 more)" in text
        assert "run_signature=deadbeef1234" in text
        assert "seed=42" in text
        assert exc.problems == problems


class TestRunKeyDigest:
    def test_stable_and_discriminating(self):
        from repro.machine import baseline
        key_a = ("matrix", "coupled",
                 baseline().run_signature(), 1, 100)
        key_b = ("matrix", "coupled",
                 baseline().run_signature(), 2, 100)
        assert run_key_digest(key_a) == run_key_digest(key_a)
        assert run_key_digest(key_a) != run_key_digest(key_b)


class TestSweepJournal:
    HEADER = {"seed": 1, "max_cycles": 100}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path, self.HEADER)
        assert journal.completed_count == 0
        journal.record_ok("k1", {"benchmark": "matrix", "mode": "seq",
                                 "cycles": 10})
        journal.record_failed("k2", CellFailure("fft", "tpe", "X", "y"))
        journal.close()
        reloaded = SweepJournal(path, self.HEADER)
        assert reloaded.completed_count == 1
        assert reloaded.completed("k1")["cycles"] == 10
        assert reloaded.completed("k2") is None   # failures re-run

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        SweepJournal(path, self.HEADER).record_ok("k", {"cycles": 1})
        other = dict(self.HEADER, seed=99)
        with pytest.raises(SweepJournalError):
            SweepJournal(path, other)

    def test_retired_header_keys_ignored(self, tmp_path):
        # Only the current header's keys are compared, so a journal
        # whose header records a parameter the harness has since
        # dropped still resumes.
        path = tmp_path / "sweep.jsonl"
        older = dict(self.HEADER, retired_knob=True)
        SweepJournal(path, older).record_ok("k", {"cycles": 1})
        assert SweepJournal(path, self.HEADER).completed("k") is not None

    def test_older_version_rejected_with_clear_message(self, tmp_path,
                                                       monkeypatch):
        # A journal written under an older line format must be refused
        # with a message naming both versions, not replayed.
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setattr(supervision, "JOURNAL_VERSION", 1)
        SweepJournal(path, self.HEADER).record_ok("k", {"cycles": 1})
        monkeypatch.undo()
        with pytest.raises(SweepJournalError) as excinfo:
            SweepJournal(path, self.HEADER)
        message = str(excinfo.value)
        assert "version 1" in message and "version 2" in message
        assert "fresh journal" in message

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path, self.HEADER)
        journal.record_ok("k1", {"cycles": 10})
        journal.record_ok("k2", {"cycles": 20})
        journal.close()
        # Simulate a kill -9 mid-write: chop the last line in half.
        text = path.read_text()
        path.write_text(text[:len(text) - 15])
        reloaded = SweepJournal(path, self.HEADER)
        assert reloaded.completed("k1")["cycles"] == 10
        assert reloaded.completed("k2") is None

    def test_missing_file_is_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "absent.jsonl", self.HEADER)
        assert journal.completed_count == 0

    def test_append_preserves_existing_cells(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path, self.HEADER)
        journal.record_ok("k1", {"cycles": 10})
        journal.close()
        second = SweepJournal(path, self.HEADER)
        second.record_ok("k2", {"cycles": 20})
        second.close()
        reloaded = SweepJournal(path, self.HEADER)
        assert reloaded.completed_count == 2
        # Exactly one header line.
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert sum(1 for l in lines if l["kind"] == "header") == 1


class TestReplayedStats:
    def test_exposes_summary_and_operations(self):
        stats = ReplayedStats({"cycles": 42, "operations": 7,
                               "fpu_util": 0.5})
        assert stats.summary() == {"cycles": 42, "operations": 7,
                                   "fpu_util": 0.5}
        assert stats.total_operations == 7
        assert stats.cycles == 42


class TestRecord:
    """``RunResult.as_record`` is a cell's one serialized form and
    ``RunResult.from_record`` its inverse."""

    @staticmethod
    def _round_trip(result):
        record = result.as_record()
        assert set(record) == RECORD_KEYS
        assert json.loads(json.dumps(record)) == record
        replayed = RunResult.from_record(record, result.config)
        assert replayed.replayed and replayed.compiled is None
        assert replayed.as_record() == record

    def test_scalar_cell(self):
        self._round_trip(Harness(compile_cache=False).run("lud", "seq"))

    @needs_numpy
    def test_lockstep_and_peeled_lanes(self):
        # model loads through input-drawn indices, so some of its
        # lanes peel and re-run on the scalar kernel.
        results = Harness(compile_cache=False).run_many(
            [RunSpec("model", "coupled", seed=seed) for seed in (1, 2, 3, 4)],
            backend="batch")
        assert {r.backend for r in results} == {"batch", "batch-peeled"}
        for result in results:
            self._round_trip(result)


class TestSerialCollect:
    """run_many's in-process path under on_error="collect"."""

    def _failing_harness(self, fail_on):
        harness = Harness(compile_cache=False)
        original = Harness.run

        def run(self, benchmark, mode, config=None, seed=None):
            if (benchmark, mode) in fail_on:
                raise WatchdogError("injected hang", cycle=1)
            return original(self, benchmark, mode, config, seed)

        harness.run = run.__get__(harness)
        return harness

    def test_failure_collected_in_spec_order(self):
        harness = self._failing_harness({("matrix", "seq")})
        specs = [RunSpec("matrix", "seq"), RunSpec("matrix", "coupled")]
        results = harness.run_many(specs, on_error="collect")
        assert not results[0].ok
        assert results[0].error_type == "WatchdogError"
        assert results[1].ok and results[1].cycles > 0

    def test_raise_policy_propagates(self):
        harness = self._failing_harness({("matrix", "seq")})
        with pytest.raises(WatchdogError):
            harness.run_many([RunSpec("matrix", "seq")])

    def test_failure_not_cached_for_later_runs(self):
        # A collected failure must not poison the run cache: a direct
        # run() afterwards retries the cell.
        harness = self._failing_harness({("matrix", "seq")})
        results = harness.run_many([RunSpec("matrix", "seq")],
                                   on_error="collect")
        assert not results[0].ok
        harness.run = Harness.run.__get__(harness)   # heal
        assert harness.run("matrix", "seq").cycles > 0

    def test_journal_records_failures_but_replays_only_ok(self,
                                                         tmp_path):
        path = tmp_path / "sweep.jsonl"
        harness = self._failing_harness({("matrix", "seq")})
        specs = [RunSpec("matrix", "seq"), RunSpec("matrix", "coupled")]
        harness.run_many(specs, on_error="collect", journal=str(path))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        statuses = sorted(l["status"] for l in lines
                          if l.get("kind") == "cell")
        assert statuses == ["failed", "ok"]
        ok_line, = [l for l in lines if l.get("status") == "ok"]
        assert set(ok_line) == RECORD_KEYS | {"kind", "key", "status"}
        # Resume with a healthy harness: the ok cell replays, the
        # failed cell re-runs and now succeeds.
        healthy = Harness(compile_cache=False)
        results = healthy.run_many(specs, on_error="collect",
                                   journal=str(path))
        assert results[0].ok and not results[0].replayed
        assert results[1].ok and results[1].replayed


class TestJournalResume:
    def test_replayed_results_match_originals(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = [RunSpec("matrix", "seq"), RunSpec("matrix", "coupled")]
        first = Harness(compile_cache=False)
        originals = first.run_many(specs, journal=str(path))
        # A fresh harness resuming from the journal must not simulate
        # at all: poison run_program to prove it.
        import repro.experiments.runner as runner_module
        resumed_harness = Harness(compile_cache=False)

        def boom(*args, **kwargs):
            raise AssertionError("resume must not re-simulate")

        original_run_program = runner_module.run_program
        runner_module.run_program = boom
        try:
            resumed = resumed_harness.run_many(specs, journal=str(path))
        finally:
            runner_module.run_program = original_run_program
        for old, new in zip(originals, resumed):
            assert new.replayed and not old.replayed
            assert new.cycles == old.cycles
            assert new.stats.summary() == old.stats.summary()
            assert new.utilization == old.utilization
            assert new.stats.total_operations == \
                old.stats.total_operations

    def test_partial_journal_reruns_only_remainder(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = [RunSpec("matrix", "seq"), RunSpec("matrix", "coupled"),
                 RunSpec("fft", "coupled")]
        first = Harness(compile_cache=False)
        originals = first.run_many(specs, journal=str(path))
        # Keep the header and the first completed cell only — as if
        # the sweep was killed two cells in.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        executed = []
        original = Harness.run

        def counting_run(self, benchmark, mode, config=None, seed=None):
            executed.append((benchmark, mode))
            return original(self, benchmark, mode, config, seed)

        resumed_harness = Harness(compile_cache=False)
        resumed_harness.run = counting_run.__get__(resumed_harness)
        resumed = resumed_harness.run_many(specs, journal=str(path))
        assert len(executed) == 2                  # only the remainder
        assert ("matrix", "seq") not in executed
        assert [r.cycles for r in resumed] == \
            [r.cycles for r in originals]
        assert resumed[0].replayed
        assert not resumed[1].replayed and not resumed[2].replayed
        # The journal is whole again.
        reloaded = SweepJournal(path, first._journal_header())
        assert reloaded.completed_count == 3
