"""SimResult helpers and statistics plumbing."""

import json

import pytest

from repro import baseline, compile_program, run_program
from repro.isa.operations import UnitClass
from repro.sim import make_node

SOURCE = """
(program
  (global A 4)
  (global flag 1 :int :empty)
  (kernel child ((x :float))
    (aset! A 3 x)
    (aset-ef! flag 0 1))
  (main
    (aset! A 0 1.5)
    (fork (child 2.5))
    (sync (aref-ff flag 0))))
"""


def run():
    config = baseline()
    compiled = compile_program(SOURCE, config, mode="coupled")
    return run_program(compiled.program, config)


class TestSimResult:
    def test_read_symbol(self):
        result = run()
        values = result.read_symbol("A")
        assert values[0] == 1.5 and values[3] == 2.5

    def test_symbol_presence(self):
        result = run()
        assert result.symbol_presence("flag") == [True]
        assert all(result.symbol_presence("A"))

    def test_thread_stats_rows(self):
        result = run()
        rows = result.thread_stats()
        assert len(rows) == 2
        by_name = {row["name"]: row for row in rows}
        assert "main" in by_name
        child_row = next(r for r in rows if r["name"] != "main")
        assert child_row["spawn"] > 0
        assert child_row["finish"] >= child_row["spawn"]
        assert child_row["operations"] > 0

    def test_cycles_property(self):
        result = run()
        assert result.cycles == result.stats.cycles > 0


def _flip_presence(result):
    result.memory._empty ^= {result.program.data["flag"].base}


def _change_memory_value(result):
    result.memory._values[result.program.data["A"].base] += 1.0


def _change_unit_count(result):
    uid = sorted(result.stats.issued_by_unit)[0]
    result.stats.issued_by_unit[uid] += 1


def _change_finish_cycle(result):
    tid = sorted(result.stats.thread_finish_cycle)[-1]
    result.stats.thread_finish_cycle[tid] += 1


def _add_zero_count(result):
    result.stats.issued_by_unit["c9.iu0"] = 0


class TestOutcome:
    """What ``SimResult.outcome()`` sees, and what it ignores."""

    @pytest.mark.parametrize("change", [
        _flip_presence, _change_memory_value, _change_unit_count,
        _change_finish_cycle, _add_zero_count],
        ids=lambda change: change.__name__.lstrip("_"))
    def test_architectural_change_differs(self, change):
        config = baseline()
        compiled = compile_program(SOURCE, config, mode="coupled")
        first, second = (run_program(compiled.program, config)
                         for __ in range(2))
        assert first.outcome() == second.outcome()
        change(second)
        assert first.outcome() != second.outcome()

    def test_engine_counters_are_ignored(self):
        config = baseline().with_engine("event")
        compiled = compile_program(SOURCE, config, mode="coupled")
        first = run_program(compiled.program, config)
        node = make_node(config)
        second = node.run(compiled.program)
        second.stats.fused_dispatches += 1
        second.stats.defuse_reasons["st_partial_word"] += 1
        second.stats.quarantined_blocks += 1
        node.ffwd_jumps += 1
        assert first.outcome() == second.outcome()


class TestStats:
    def test_utilization_table_covers_all_kinds(self):
        result = run()
        table = result.stats.utilization_table()
        # Plain string keys (enum values), so the table serializes.
        assert set(table) == {kind.value for kind in UnitClass}
        assert all(0.0 <= v <= 4.0 for v in table.values())

    def test_summary_keys(self):
        summary = run().stats.summary()
        for key in ("cycles", "operations", "fpu_util", "threads",
                    "memory_accesses", "opcache_misses",
                    "memory_parked", "memory_queue_waits"):
            assert key in summary

    def test_summary_is_json_serializable(self):
        # Regression: enum keys and missing counters used to make the
        # summary unserializable.
        stats = run().stats
        round_tripped = json.loads(json.dumps(stats.summary()))
        assert round_tripped == stats.summary()
        json.dumps(stats.utilization_table())

    def test_str_renders(self):
        text = str(run().stats)
        assert "cycles=" in text and "threads=2" in text

    def test_operation_totals_consistent(self):
        stats = run().stats
        assert stats.total_operations == \
            sum(stats.issued_by_kind.values()) == \
            sum(stats.issued_by_unit.values()) == \
            sum(stats.issued_by_thread.values())
