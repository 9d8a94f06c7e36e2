"""Qualitative reproduction checks: the orderings and crossovers the
paper's evaluation reports must hold on our rebuild (absolute numbers
will differ — different compiler, same discipline)."""

import pytest

from repro.experiments import figure6, figure7, table2, table3
from repro.experiments.runner import Harness
from repro.machine import baseline


@pytest.fixture(scope="module")
def harness():
    return Harness(seed=1)


@pytest.fixture(scope="module")
def table2_rows(harness):
    return table2.run(harness)


def cycles_of(rows, benchmark, mode):
    for row in rows:
        if row["benchmark"] == benchmark and row["mode"] == mode:
            return row["cycles"]
    raise KeyError((benchmark, mode))


class TestTable2Shapes:
    def test_seq_is_always_slowest(self, table2_rows):
        for bench in ("matrix", "fft", "model", "lud"):
            seq = cycles_of(table2_rows, bench, "seq")
            for mode in ("sts", "tpe", "coupled"):
                assert seq > cycles_of(table2_rows, bench, mode), \
                    (bench, mode)

    def test_coupled_beats_sts_everywhere(self, table2_rows):
        for bench in ("matrix", "fft", "model", "lud"):
            assert cycles_of(table2_rows, bench, "coupled") < \
                cycles_of(table2_rows, bench, "sts")

    def test_ideal_is_fastest(self, table2_rows):
        for bench in ("matrix", "fft"):
            ideal = cycles_of(table2_rows, bench, "ideal")
            for mode in ("seq", "sts", "tpe", "coupled"):
                assert ideal < cycles_of(table2_rows, bench, mode)

    def test_tpe_and_coupled_close_on_balanced_benchmarks(self,
                                                          table2_rows):
        """Matrix/Model/LUD are evenly partitionable: TPE within ~15%
        of Coupled (paper: 0.99-1.07)."""
        for bench in ("matrix", "model", "lud"):
            tpe = cycles_of(table2_rows, bench, "tpe")
            coupled = cycles_of(table2_rows, bench, "coupled")
            assert tpe / coupled < 1.15

    def test_fft_sequential_section_punishes_tpe(self, table2_rows):
        """The paper's headline FFT result: TPE loses badly to Coupled
        (and even to STS) because its main thread runs the serial
        data-movement section on one cluster."""
        tpe = cycles_of(table2_rows, "fft", "tpe")
        coupled = cycles_of(table2_rows, "fft", "coupled")
        sts = cycles_of(table2_rows, "fft", "sts")
        assert tpe > 1.3 * coupled
        assert tpe > sts

    def test_matrix_ideal_fpu_utilization_near_four(self, harness):
        result = harness.run("matrix", "ideal", baseline())
        assert result.fpu_util > 3.5     # paper: 3.93

    def test_coupled_utilization_exceeds_sts(self, table2_rows, harness):
        config = baseline()
        for bench in ("matrix", "fft", "model", "lud"):
            coupled = harness.run(bench, "coupled", config)
            sts = harness.run(bench, "sts", config)
            assert coupled.fpu_util + coupled.iu_util > \
                sts.fpu_util + sts.iu_util


class TestTable3Shapes:
    @pytest.fixture(scope="class")
    def data(self):
        return table3.run()

    def test_results_verified(self, data):
        assert data["aggregate"]["verified"]

    def test_priority_threads_dilate_monotonically(self, data):
        coupled = [r for r in data["rows"] if r["mode"] == "coupled"]
        runtimes = [r["runtime_per_device"] for r in coupled]
        assert runtimes == sorted(runtimes)

    def test_even_top_thread_dilates_past_schedule(self, data):
        top = next(r for r in data["rows"]
                   if r["mode"] == "coupled" and r["thread"] == 1)
        assert top["runtime_per_device"] > top["schedule"] * 0.8
        low = next(r for r in data["rows"]
                   if r["mode"] == "coupled" and r["thread"] == 4)
        assert low["runtime_per_device"] > top["runtime_per_device"]

    def test_higher_priority_threads_evaluate_more_devices(self, data):
        coupled = [r for r in data["rows"] if r["mode"] == "coupled"]
        assert coupled[0]["devices"] >= coupled[-1]["devices"]
        assert sum(r["devices"] for r in coupled) == 20

    def test_aggregate_coupled_beats_sts(self, data):
        agg = data["aggregate"]
        assert agg["coupled_total"] < agg["sts_total"]


class TestFigure6Shapes:
    @pytest.fixture(scope="class")
    def data(self, harness):
        return figure6.run(harness)

    def test_triport_is_cheap(self, data):
        assert abs(figure6.overhead_vs_full(data, "tri-port")) < 0.10

    def test_single_port_and_shared_bus_are_expensive(self, data):
        assert figure6.overhead_vs_full(data, "single-port") > 0.30
        assert figure6.overhead_vs_full(data, "shared-bus") > 0.30

    def test_area_ordering(self, data):
        assert data["areas"]["tri-port"] < 1.0
        assert data["areas"]["dual-port"] < data["areas"]["tri-port"]


class TestFigure7Shapes:
    @pytest.fixture(scope="class")
    def cells(self, harness):
        return figure7.run(harness)

    def test_latency_slows_everything(self, cells):
        for key, base in cells.items():
            bench, mode, model = key
            if model == "min":
                assert cells[(bench, mode, "mem2")] >= base

    def test_sts_hurts_most(self, cells):
        sts = figure7.slowdown(cells, "sts")
        assert sts > figure7.slowdown(cells, "coupled")
        assert sts > figure7.slowdown(cells, "tpe")

    def test_ideal_matrix_nearly_immune(self, cells):
        """Paper: Ideal-mode Matrix keeps its data in registers, so long
        memory latency hardly moves it; Ideal-mode FFT is hammered."""
        matrix_ratio = cells[("matrix", "ideal", "mem2")] \
            / cells[("matrix", "ideal", "min")]
        fft_ratio = cells[("fft", "ideal", "mem2")] \
            / cells[("fft", "ideal", "min")]
        assert matrix_ratio < 2.0
        assert fft_ratio > 2.0
