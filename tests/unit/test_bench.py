"""The bench report shape, aggregate metric, and cycle gate."""

import json

import pytest

from repro.bench import (QUICK_BENCHMARKS, aggregate_cycles_per_sec,
                         compare_reports, main, suite_specs)
from repro.machine import baseline
from repro.sim.batch import batch_supported
from tests.conftest import RECORD_KEYS

needs_numpy = pytest.mark.skipif(not batch_supported(),
                                 reason="the batch backend requires numpy")


def _report(cells, **top):
    report = {"schema": 6, "results": cells}
    report.update(top)
    return report


def _cell(benchmark, mode, cycles, wall_seconds):
    return {"benchmark": benchmark, "mode": mode, "cycles": cycles,
            "wall_seconds": wall_seconds}


class TestAggregate:
    def test_sums_cycles_over_wall(self):
        records = [_cell("a", "seq", 1000, 0.5),
                   _cell("b", "seq", 3000, 0.5)]
        assert aggregate_cycles_per_sec(records) == 4000.0

    def test_empty_is_zero(self):
        assert aggregate_cycles_per_sec([]) == 0.0

    def test_all_failed_is_zero(self):
        # Failure records carry no measurements; an all-failed sweep
        # must aggregate to 0.0, not divide by zero or KeyError.
        failed = [{"benchmark": "a", "mode": "seq",
                   "error_type": "WatchdogError", "message": "hung"}]
        assert aggregate_cycles_per_sec(failed) == 0.0

    def test_failed_records_are_skipped(self):
        records = [_cell("a", "seq", 1000, 0.5),
                   {"benchmark": "b", "mode": "seq",
                    "error_type": "WorkerCrashError", "message": "died"}]
        assert aggregate_cycles_per_sec(records) == 2000.0

    def test_zero_wall_cells_excluded_from_both_sums(self):
        # Counting a cell's cycles against no wall would inflate the
        # aggregate, so a cell without wall clock drops out entirely.
        records = [_cell("a", "seq", 1000, 2.0),
                   _cell("b", "seq", 10 ** 9, 0.0)]
        assert aggregate_cycles_per_sec(records) == 500.0

    def test_all_zero_wall_is_zero(self):
        records = [_cell("a", "seq", 100, 0.0)]
        assert aggregate_cycles_per_sec(records) == 0.0


class TestCompareReports:
    def setup_method(self):
        self.reference = _report([_cell("matrix", "seq", 100, 0.01),
                                  _cell("matrix", "coupled", 80, 0.01)])

    def test_identical_passes(self):
        assert compare_reports(self.reference, self.reference) == []

    def test_cycle_drift_fails(self):
        current = _report([_cell("matrix", "seq", 101, 0.01),
                           _cell("matrix", "coupled", 80, 0.01)])
        problems = compare_reports(current, self.reference)
        assert len(problems) == 1
        assert "matrix/seq" in problems[0]
        assert "100 to 101" in problems[0]

    def test_extra_cells_are_ignored(self):
        current = _report([_cell("matrix", "seq", 100, 0.01),
                           _cell("matrix", "coupled", 80, 0.01),
                           _cell("lud", "seq", 9999, 1.0)])
        assert compare_reports(current, self.reference) == []

    def test_no_shared_cells_fails(self):
        current = _report([_cell("lud", "seq", 9999, 1.0)])
        problems = compare_reports(current, self.reference)
        assert problems == ["no shared (benchmark, mode) cells to "
                            "compare"]

    def test_cell_failed_in_current_is_explicit_problem(self):
        # A cell the reference measured but the fresh run collected as
        # a failure is a regression — reported, never a KeyError.
        current = _report(
            [_cell("matrix", "seq", 100, 0.01)],
            failed=[{"benchmark": "matrix", "mode": "coupled",
                     "error_type": "WorkerCrashError",
                     "message": "worker died"}])
        problems = compare_reports(current, self.reference)
        assert len(problems) == 1
        assert "matrix/coupled" in problems[0]
        assert "failed in current report" in problems[0]
        assert "WorkerCrashError" in problems[0]

    def test_cell_failed_in_reference_is_skipped(self):
        reference = _report(
            [_cell("matrix", "seq", 100, 0.01)],
            failed=[{"benchmark": "matrix", "mode": "coupled",
                     "error_type": "CellTimeoutError",
                     "message": "timed out"}])
        current = _report([_cell("matrix", "seq", 100, 0.01),
                           _cell("matrix", "coupled", 80, 0.01)])
        assert compare_reports(current, reference) == []

    def test_malformed_failed_record_in_results_is_skipped(self):
        # Defensive: a failure record accidentally placed in
        # "results" must not crash the gate.
        current = _report([_cell("matrix", "seq", 100, 0.01),
                           {"benchmark": "matrix", "mode": "coupled",
                            "error_type": "X", "message": "y"}])
        problems = compare_reports(current, self.reference)
        assert all("KeyError" not in p for p in problems)

    def test_seeded_cells_compare_per_seed(self):
        # Batch reports carry one record per (benchmark, mode, seed);
        # the gate must key on all three, not collapse seeds into one
        # cell.
        ref_cells = [dict(_cell("matrix", "seq", 100, 0.01), seed=1),
                     dict(_cell("matrix", "seq", 120, 0.01), seed=2)]
        reference = _report(ref_cells)
        assert compare_reports(_report([dict(c) for c in ref_cells]),
                               reference) == []
        drifted = [dict(ref_cells[0]),
                   dict(ref_cells[1], cycles=121)]
        problems = compare_reports(_report(drifted), reference)
        assert len(problems) == 1
        assert "120 to 121" in problems[0]

    def test_schema5_reference_compares_on_cycles(self):
        # Schema 5 named the wall clocks wall_s/compile_s and carried
        # operations and cycles_per_sec; the gate reads only identity
        # and cycles, so an older reference still serves.
        old = lambda cycles: {"benchmark": "matrix", "mode": "seq",
                              "cycles": cycles, "operations": 7,
                              "wall_s": 0.01, "compile_s": 0.1,
                              "cycles_per_sec": cycles / 0.01}
        reference = {"schema": 5, "engine": "event",
                     "results": [old(100)], "failed": []}
        current = _report([_cell("matrix", "seq", 100, 0.02)])
        assert compare_reports(current, reference) == []
        drifted = _report([_cell("matrix", "seq", 101, 0.02)])
        assert compare_reports(drifted, reference) == \
            ["matrix/seq: simulated cycles drifted from 100 to 101"]

    def test_seedless_reference_matches_seedless_current(self):
        # A seeded current report shares no cells with a seedless
        # reference: the seed axis is part of identity.
        seeded = _report([dict(_cell("matrix", "seq", 100, 0.01),
                               seed=1)])
        problems = compare_reports(seeded, self.reference)
        assert problems == ["no shared (benchmark, mode) cells to "
                            "compare"]


class TestSuiteSpecs:
    def test_quick_subset(self):
        specs = suite_specs(quick=True)
        assert {s.benchmark for s in specs} == set(QUICK_BENCHMARKS)

    def test_config_threaded_through(self):
        config = baseline().with_engine("scan")
        specs = suite_specs(quick=True, config=config)
        assert all(s.config is config for s in specs)

    def test_default_specs_are_seedless(self):
        # The classic suite leaves spec.seed None (harness default),
        # keeping run keys and report cell identity unchanged.
        assert all(s.seed is None for s in suite_specs(quick=True))

    def test_seeds_expand_every_cell(self):
        base = suite_specs(quick=True)
        specs = suite_specs(quick=True, seeds=[1, 2, 3])
        assert len(specs) == 3 * len(base)
        cells = {(s.benchmark, s.mode) for s in base}
        for cell in cells:
            seeds = [s.seed for s in specs
                     if (s.benchmark, s.mode) == cell]
            assert seeds == [1, 2, 3]


class TestBenchCommand:
    @pytest.fixture(autouse=True)
    def no_compile_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")

    def _run(self, tmp_path, *extra):
        import io
        out = io.StringIO()
        path = tmp_path / "bench.json"
        code = main(["--quick", "-o", str(path)] + list(extra), out=out)
        report = json.load(open(path)) if path.exists() else None
        return code, out.getvalue(), report

    def test_report_schema_and_gate(self, tmp_path):
        code, text, report = self._run(tmp_path)
        assert code == 0
        assert report["schema"] == 6
        assert report["fusion"] is True
        assert report["sanitize"] == "off"
        assert report["on_error"] == "raise"
        assert report["cell_timeout"] is None
        assert report["backend"] == "pool"
        assert report["lanes"] == 1
        assert report["failed"] == []
        assert report["aggregate_cycles_per_sec"] > 0
        for cell in report["results"]:
            # Default-seed cells hold exactly RunResult.as_record():
            # no seed key, so cell identity for --compare stays
            # (benchmark, mode).
            assert set(cell) == RECORD_KEYS
            assert cell["cycles"] > 0
            assert cell["cache_hit"] is False    # cache disabled
            # Backend provenance rides outside "stats" (digests stay
            # engine-agnostic).
            assert cell["backend"] == "scalar"
            assert cell["lanes"] == 1
            assert cell["peeled_lanes"] == 0
            assert "backend" not in cell["stats"]
            # Per-cell dispatch count rides outside "stats", which
            # stays digest-identical across kernels.
            assert cell["fused_dispatches"] >= 0
            assert "fused_dispatches" not in cell["stats"]
            assert isinstance(cell["defuse_reasons"], dict)
            assert cell["quarantined_blocks"] == 0
            assert "defuse_reasons" not in cell["stats"]
        assert any(cell["fused_dispatches"] > 0
                   for cell in report["results"])
        # A second run compared against the first must pass the gate.
        reference = tmp_path / "bench.json"
        out_path = tmp_path / "bench2.json"
        import io
        out = io.StringIO()
        code = main(["--quick", "-o", str(out_path),
                     "--compare", str(reference)], out=out)
        assert code == 0
        assert "passed" in out.getvalue()

    def test_gate_fails_on_cycle_drift(self, tmp_path):
        code, __, report = self._run(tmp_path)
        assert code == 0
        report["results"][0]["cycles"] += 1
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(report))
        code, text, __ = self._run(tmp_path, "--compare", str(doctored))
        assert code == 1
        assert "cycles drifted" in text

    def test_no_fusion_flag_recorded(self, tmp_path):
        code, __, report = self._run(tmp_path, "--no-fusion")
        assert code == 0
        assert report["fusion"] is False
        assert all(cell["fused_dispatches"] == 0
                   for cell in report["results"])

    def test_resume_journal_written_and_replayed(self, tmp_path):
        journal = tmp_path / "sweep.journal.jsonl"
        code, __, report = self._run(tmp_path, "--resume", str(journal))
        assert code == 0
        assert journal.exists()
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        cells = [l for l in lines if l.get("kind") == "cell"]
        assert len(cells) == len(report["results"])
        assert all(cell["status"] == "ok" for cell in cells)
        # Each journal line is the report's record plus its ledger
        # keys.
        assert [{k: v for k, v in cell.items()
                 if k not in ("kind", "key", "status")}
                for cell in cells] == report["results"]
        # A second run resuming from the journal replays every cell
        # (nothing is re-simulated), so its report matches record for
        # record, wall clocks and aggregate included.
        import io
        out = io.StringIO()
        path2 = tmp_path / "bench2.json"
        code = main(["--quick", "-o", str(path2),
                     "--resume", str(journal)], out=out)
        assert code == 0
        report2 = json.load(open(path2))
        assert report2["results"] == report["results"]
        assert report2["aggregate_cycles_per_sec"] == \
            report["aggregate_cycles_per_sec"]
        # Journal unchanged: replayed cells are not re-recorded.
        assert len(journal.read_text().splitlines()) == len(lines)

    @needs_numpy
    def test_batch_backend_report(self, tmp_path):
        code, text, report = self._run(tmp_path, "--backend", "batch",
                                       "--lanes", "2")
        assert code == 0
        assert report["schema"] == 6
        assert report["backend"] == "batch"
        assert report["lanes"] == 2
        cells = report["results"]
        # Every cell expands into one record per seed, identity
        # carried in the record.
        assert len(cells) == 2 * len({(c["benchmark"], c["mode"])
                                      for c in cells})
        for cell in cells:
            assert set(cell) == RECORD_KEYS | {"seed"}
            assert cell["seed"] in (1, 2)
            assert cell["backend"] in ("batch", "batch-peeled",
                                       "scalar")
            assert cell["peeled_lanes"] < max(cell["lanes"], 1)
        # The lockstep engine must actually carry lanes (dormancy
        # guard: a backend that peeled everything would report every
        # cell as batch-peeled).
        assert any(cell["backend"] == "batch" for cell in cells)
        # Render marks the seed axis and peeled lanes.
        assert "backend=batch" in text
        assert "@1" in text

    @needs_numpy
    def test_batch_gate_against_own_reference(self, tmp_path):
        code, __, report = self._run(tmp_path, "--backend", "batch",
                                     "--lanes", "2")
        assert code == 0
        import io
        out = io.StringIO()
        path2 = tmp_path / "bench2.json"
        code = main(["--quick", "-o", str(path2),
                     "--backend", "batch", "--lanes", "2",
                     "--compare", str(tmp_path / "bench.json")],
                    out=out)
        assert code == 0
        assert "passed" in out.getvalue()

    def test_batch_sanitize_conflict_rejected(self, tmp_path):
        import pytest
        with pytest.raises(SystemExit):
            main(["--quick", "--backend", "batch", "--sanitize",
                  "-o", str(tmp_path / "x.json")])

    @needs_numpy
    def test_batch_resume_replays_lane_cells(self, tmp_path):
        journal = tmp_path / "sweep.journal.jsonl"
        code, __, report = self._run(tmp_path, "--backend", "batch",
                                     "--lanes", "2",
                                     "--resume", str(journal))
        assert code == 0
        lines = journal.read_text().splitlines()
        import io
        out = io.StringIO()
        path2 = tmp_path / "bench2.json"
        code = main(["--quick", "-o", str(path2),
                     "--backend", "batch", "--lanes", "2",
                     "--resume", str(journal)], out=out)
        assert code == 0
        report2 = json.load(open(path2))
        assert report2["results"] == report["results"]
        # Nothing re-simulated, nothing re-recorded.
        assert journal.read_text().splitlines() == lines
