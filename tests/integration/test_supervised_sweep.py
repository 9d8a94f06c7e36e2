"""Chaos tests for the supervised sweep: workers killed mid-cell,
workers that hang, and sweeps resumed from a journal after being
killed halfway.  Crash injection rides the ``REPRO_CHAOS_WORKER``
flag, which only the pool worker entry point consults — see
repro.experiments.supervision.chaos_if_requested.
"""

import json
import multiprocessing

import pytest

from repro.experiments import supervision
from repro.experiments.runner import Harness, RunSpec

SPECS = [RunSpec("matrix", "seq"), RunSpec("matrix", "coupled"),
         RunSpec("fft", "coupled"), RunSpec("lud", "coupled")]


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    # Near-zero backoff: chaos tests rebuild pools repeatedly and must
    # not sit in real exponential-backoff sleeps.
    monkeypatch.setattr(supervision, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(supervision, "BACKOFF_CAP", 0.05)


def _harness():
    return Harness(compile_cache=False)


def _serial_baseline():
    results = _harness().run_many([s for s in SPECS])
    return [(r.benchmark, r.mode, r.cycles, r.stats.summary())
            for r in results]


@pytest.fixture(scope="module")
def baseline():
    return _serial_baseline()


class TestCrashRecovery:
    def test_kill_once_mid_cell_is_bit_identical(self, baseline,
                                                 monkeypatch, tmp_path):
        # First worker to pick up matrix/coupled SIGKILLs itself; the
        # sentinel makes the retry succeed.  The sweep must finish
        # with results identical to the serial run.
        sentinel = tmp_path / "fired"
        monkeypatch.setenv("REPRO_CHAOS_WORKER",
                           "matrix/coupled@%s" % sentinel)
        results = _harness().run_many(SPECS, workers=2)
        assert sentinel.exists()               # the chaos really fired
        assert [(r.benchmark, r.mode, r.cycles, r.stats.summary())
                for r in results] == baseline

    def test_kill_always_falls_back_to_serial(self, baseline,
                                              monkeypatch):
        # Every pooled attempt at matrix/coupled dies.  After the
        # retry budget the supervisor runs the cell in the parent
        # (where chaos never fires) — the sweep still completes and
        # matches the serial run bit for bit.
        monkeypatch.setenv("REPRO_CHAOS_WORKER", "matrix/coupled")
        monkeypatch.setattr(supervision, "MAX_RETRIES", 1)
        results = _harness().run_many(SPECS, workers=2)
        assert [(r.benchmark, r.mode, r.cycles, r.stats.summary())
                for r in results] == baseline

    def test_hung_worker_times_out_and_is_collected(self, baseline,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_WORKER", "matrix/coupled:hang")
        results = _harness().run_many(SPECS, workers=2, on_error="collect",
                                      cell_timeout=2.0)
        by_cell = {(SPECS[i].benchmark, SPECS[i].mode): results[i]
                   for i in range(len(SPECS))}
        failure = by_cell[("matrix", "coupled")]
        assert not failure.ok
        assert failure.timed_out
        assert failure.error_type == "CellTimeoutError"
        ok = [(r.benchmark, r.mode, r.cycles, r.stats.summary())
              for r in results if r.ok]
        expected = [cell for cell in baseline
                    if cell[:2] != ("matrix", "coupled")]
        assert ok == expected

    def test_hung_worker_raises_under_default_policy(self, monkeypatch):
        from repro.errors import CellTimeoutError
        monkeypatch.setenv("REPRO_CHAOS_WORKER", "matrix/coupled:hang")
        with pytest.raises(CellTimeoutError):
            _harness().run_many(
                [RunSpec("matrix", "coupled"), RunSpec("matrix", "seq")],
                workers=2, cell_timeout=2.0)


def test_pooled_sweep_joins_its_workers():
    _harness().run_many(SPECS[:3], workers=2)
    assert multiprocessing.active_children() == []


class TestJournalResumeAfterKill:
    def test_killed_halfway_sweep_resumes_remainder_only(self,
                                                         baseline,
                                                         tmp_path):
        journal = tmp_path / "sweep.journal.jsonl"
        _harness().run_many(SPECS, journal=str(journal))
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + len(SPECS)
        # Re-create the journal as the supervisor would have left it
        # had the process been killed after completing two cells.
        journal.write_text("\n".join(lines[:3]) + "\n")
        executed = []
        original = Harness.run

        def counting_run(self, benchmark, mode, config=None, seed=None):
            executed.append((benchmark, mode))
            return original(self, benchmark, mode, config, seed)

        resumed_harness = _harness()
        resumed_harness.run = counting_run.__get__(resumed_harness)
        resumed = resumed_harness.run_many(SPECS, journal=str(journal))
        assert sorted(executed) == sorted(
            [(s.benchmark, s.mode) for s in SPECS[2:]])
        assert [(r.benchmark, r.mode, r.cycles, r.stats.summary())
                for r in resumed] == baseline
        assert [r.replayed for r in resumed] == \
            [True, True, False, False]
        # The journal now holds the full sweep again for future runs.
        cells = [json.loads(line)
                 for line in journal.read_text().splitlines()
                 if json.loads(line).get("kind") == "cell"]
        assert len(cells) == len(SPECS)

    def test_chaos_run_with_journal_then_clean_resume(self, baseline,
                                                      monkeypatch,
                                                      tmp_path):
        # End to end: a journaled sweep survives a worker SIGKILL,
        # and a later resume replays everything without simulating.
        sentinel = tmp_path / "fired"
        journal = tmp_path / "sweep.journal.jsonl"
        monkeypatch.setenv("REPRO_CHAOS_WORKER",
                           "fft/coupled@%s" % sentinel)
        first = _harness().run_many(SPECS, workers=2,
                                    journal=str(journal))
        assert [(r.benchmark, r.mode, r.cycles, r.stats.summary())
                for r in first] == baseline
        monkeypatch.delenv("REPRO_CHAOS_WORKER")
        import repro.experiments.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("resume must not re-simulate")

        monkeypatch.setattr(runner_module, "run_program", boom)
        resumed = _harness().run_many(SPECS, journal=str(journal))
        assert all(r.replayed for r in resumed)
        assert [(r.benchmark, r.mode, r.cycles, r.stats.summary())
                for r in resumed] == baseline
