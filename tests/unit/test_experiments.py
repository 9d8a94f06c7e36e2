"""Experiment harness plumbing: report rendering, runner caching, CLI."""

import gc
import io
import pickle
import weakref

import pytest

from repro.experiments import paper, runner, table2
from repro.experiments.cli import main as experiments_main
from repro.experiments.report import (format_bar_chart, format_grid,
                                      format_table)
from repro.experiments.runner import Harness, RunSpec
from repro.machine import baseline
from repro.sim import batch
from repro.sim.faults import FaultEvent, FaultPlan

needs_numpy = pytest.mark.skipif(not batch.batch_supported(),
                                 reason="the batch backend requires numpy")

#: Classes of the finished machine a result must not drag along.
_MACHINE_STATE = (b"ThreadContext", b"MemorySystem", b"RegisterFrame")


class TestReportFormatting:
    def test_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1], ["long-name", 2.5]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "long-name" in lines[4]
        # The value column starts at the same offset in every row.
        offset = lines[1].index("value")
        assert lines[3].index("1") == offset
        assert lines[4].index("2.50") == offset

    def test_floats_rendered_two_places(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.23" in text and "1.2345" not in text

    def test_bar_chart_scales_to_peak(self):
        text = format_bar_chart([("a", 10), ("b", 5)], width=20)
        a_line, b_line = text.splitlines()
        assert a_line.count("#") == 20
        assert b_line.count("#") == 10

    def test_bar_chart_empty(self):
        assert format_bar_chart([], title="t") == "t"

    def test_grid(self):
        text = format_grid({("r1", "c1"): 5, ("r1", "c2"): 6},
                           ["r1"], ["c1", "c2"])
        assert "r1" in text and "5" in text and "6" in text


class TestHarnessCaching:
    def test_run_is_cached(self):
        harness = Harness()
        config = baseline()
        first = harness.run("matrix", "seq", config)
        second = harness.run("matrix", "seq", config)
        assert first is second

    def test_compile_shared_across_interconnects(self):
        harness = Harness()
        config = baseline()
        a = harness.run("matrix", "seq", config)
        b = harness.run("matrix", "seq",
                        config.with_interconnect("tri-port"))
        assert a is not b
        assert a.compiled is b.compiled   # same schedule signature

    def test_inputs_stable_per_benchmark(self):
        harness = Harness(seed=3)
        assert harness.inputs_for("fft") is harness.inputs_for("fft")

    def test_validation_runs_by_default(self):
        result = Harness().run("model", "seq", baseline())
        assert result.verified

    def test_fault_plan_participates_in_run_key(self):
        # Regression: the run cache used to key on (benchmark, mode,
        # schedule signature) only, so a faulted config silently
        # returned the clean run's result.
        harness = Harness()
        clean_config = baseline()
        faulted_config = clean_config.with_faults(FaultPlan([
            FaultEvent("unit_offline", start=50, duration=1000,
                       unit="c0.iu0")]))
        clean = harness.run("matrix", "coupled", clean_config)
        faulted = harness.run("matrix", "coupled", faulted_config)
        assert clean is not faulted
        assert faulted.stats.fault_reroutes > 0
        assert clean.stats.fault_reroutes == 0
        # Cache still hits for a repeat of either.
        assert harness.run("matrix", "coupled", clean_config) is clean
        assert harness.run("matrix", "coupled", faulted_config) \
            is faulted

    def test_harness_seed_participates_in_run_key(self):
        a = Harness(seed=1).run("matrix", "seq")
        b = Harness(seed=2).run("matrix", "seq")
        assert a.cycles > 0 and b.cycles > 0    # distinct inputs both run

    def test_wall_clock_recorded(self):
        result = Harness().run("matrix", "seq")
        assert result.wall_seconds > 0.0
        assert result.cycles_per_second > 0.0

    @staticmethod
    def _watch_sims(monkeypatch):
        """Keep a weak reference to every SimResult the harness gets
        from ``run_program`` or ``run_batch``."""
        refs = []
        run_program, run_batch = runner.run_program, batch.run_batch

        def watched_run_program(*args, **kwargs):
            sim = run_program(*args, **kwargs)
            refs.append(weakref.ref(sim))
            return sim

        def watched_run_batch(*args, **kwargs):
            outcome = run_batch(*args, **kwargs)
            refs.extend(weakref.ref(sim) for sim in outcome.results
                        if sim is not None)
            return outcome

        monkeypatch.setattr(runner, "run_program", watched_run_program)
        monkeypatch.setattr(batch, "run_batch", watched_run_batch)
        return refs

    @staticmethod
    def _assert_no_machine(refs, results):
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        for result in results:
            blob = pickle.dumps(result)
            for name in _MACHINE_STATE:
                assert name not in blob, (result.benchmark, name)

    def test_result_holds_no_machine(self, monkeypatch):
        refs = self._watch_sims(monkeypatch)
        harness = Harness()
        results = [harness.run("lud", "coupled")]
        assert len(refs) == 1
        self._assert_no_machine(refs, results)

    @needs_numpy
    def test_lane_results_hold_no_machine(self, monkeypatch):
        refs = self._watch_sims(monkeypatch)
        harness = Harness()
        model = harness.run_many(
            [RunSpec("model", "coupled", seed=seed) for seed in (1, 2, 3, 4)],
            backend="batch")
        matrix = harness.run_many(
            [RunSpec("matrix", "coupled", seed=seed) for seed in (1, 2, 3)],
            backend="batch")
        # model peels some lanes (re-run on the scalar kernel) and keeps
        # others in lockstep; matrix stays in lockstep throughout.
        assert {r.backend for r in model} == {"batch", "batch-peeled"}
        assert {r.backend for r in matrix} == {"batch"}
        self._assert_no_machine(refs, model + matrix)


class TestRunMany:
    def test_serial_batch_matches_individual_runs(self):
        harness = Harness()
        specs = [RunSpec("matrix", "seq"), RunSpec("matrix", "coupled")]
        batch = harness.run_many(specs)
        assert batch[0] is harness.run("matrix", "seq")
        assert batch[1] is harness.run("matrix", "coupled")

    def test_tuple_specs_accepted(self):
        harness = Harness()
        batch = harness.run_many([("matrix", "seq")])
        assert batch[0].benchmark == "matrix"

    def test_duplicate_specs_share_one_run(self):
        harness = Harness()
        batch = harness.run_many([("matrix", "seq"), ("matrix", "seq")])
        assert batch[0] is batch[1]

    def test_parallel_results_merge_into_caches(self):
        harness = Harness()
        specs = [RunSpec("matrix", "seq"), RunSpec("matrix", "coupled")]
        batch = harness.run_many(specs, workers=2)
        assert [r.cycles for r in batch] == \
            [r.cycles for r in Harness().run_many(specs)]
        # Worker results landed in the parent caches: a repeat is a hit.
        assert harness.run("matrix", "seq") is batch[0]
        assert harness.run("matrix", "coupled") is batch[1]


class TestTable2Module:
    def test_rows_cover_all_modes(self):
        rows = table2.run(Harness())
        keys = {(r["benchmark"], r["mode"]) for r in rows}
        assert ("matrix", "ideal") in keys
        assert ("lud", "ideal") not in keys      # no ideal LUD
        assert len(keys) == 18

    def test_render_includes_paper_columns(self):
        rows = table2.run(Harness())
        text = table2.render(rows)
        assert "paper cycles" in text
        assert "1992" in text                    # paper's Matrix SEQ

    def test_figure4_renders_bars(self):
        rows = table2.run(Harness())
        text = table2.render_figure4(rows)
        assert "Figure 4" in text and "#" in text


class TestPaperData:
    def test_mode_order(self):
        assert paper.MODE_ORDER[0] == "seq"
        assert paper.MODE_ORDER[-1] == "ideal"

    def test_table2_is_consistent(self):
        # Every benchmark has a coupled entry to normalize against.
        benches = {b for b, __ in paper.TABLE2_CYCLES}
        for bench in benches:
            assert (bench, "coupled") in paper.TABLE2_CYCLES


class TestCli:
    def test_table3_target(self):
        out = io.StringIO()
        assert experiments_main(["table3"], out=out) == 0
        assert "Table 3" in out.getvalue()

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["table9"], out=io.StringIO())


class TestCacheHitReporting:
    def test_fresh_compile_is_a_miss(self):
        harness = Harness(compile_cache=False)
        result = harness.run("matrix", "seq", baseline())
        assert result.cache_hit is False

    def test_in_memory_hit(self):
        # Same schedule signature across interconnects: the second run
        # reuses the in-memory compile and reports a hit.
        harness = Harness(compile_cache=False)
        config = baseline()
        first = harness.run("matrix", "seq", config)
        second = harness.run("matrix", "seq",
                             config.with_interconnect("tri-port"))
        assert first.cache_hit is False
        assert second.cache_hit is True

    def test_disk_hit(self, tmp_path):
        from repro.compiler import CompileCache
        config = baseline()
        cold = Harness(compile_cache=CompileCache(str(tmp_path)))
        assert cold.run("matrix", "seq", config).cache_hit is False
        warm = Harness(compile_cache=CompileCache(str(tmp_path)))
        assert warm.run("matrix", "seq", config).cache_hit is True
