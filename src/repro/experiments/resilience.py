"""Resilience sweep: performance under degradation (a workload axis
beyond the paper's Figures 5-8).

A seeded :class:`~repro.sim.faults.FaultPlan` of ``unit_offline``
windows is replayed against every mode of every benchmark at a range
of fault rates; the same plan is shared by every mode of a benchmark
so the modes face identical disturbances.  The arbiter re-routes the
pending operations of an offline unit to surviving units of the same
class — runtime rescheduling, the paper's thesis, exercised under
faults the compile-time scheduler could not have anticipated.  Every
run's numeric output is still validated against the Python reference,
so the table demonstrates *correct* degraded execution, not just
survival.

::

    python -m repro.experiments resilience [--quick]
"""

from ..machine import baseline
from ..programs import get_benchmark
from ..programs.suite import BENCHMARK_ORDER
from ..sim.faults import FaultPlan
from .report import format_grid
from .runner import Harness, RunSpec

MODES = ("sts", "tpe", "coupled")
#: Expected unit-offline windows per 1000 cycles.
RATES = (0.0, 1.0, 2.0, 4.0)
QUICK_RATES = (0.0, 4.0)
FAULT_SEED = 7

#: Sentinel cell value for a collected failure (render shows FAILED;
#: ratios against it come out None).
FAILED = "failed"


def run(harness=None, config=None, rates=RATES, benchmarks=BENCHMARK_ORDER,
        fault_seed=FAULT_SEED, workers=None, on_error="raise"):
    """Simulate every (benchmark, mode, rate) cell; returns a dict of
    ``(benchmark, mode, rate) -> cycles`` (:data:`FAILED` for cells
    collected as failures under ``on_error="collect"``)."""
    harness = harness or Harness()
    config = config or baseline()
    cells = {}
    # Fault-free baselines first: they size each benchmark's fault-plan
    # horizon, so they must complete before the faulted grid exists.
    per_benchmark = {}
    baseline_specs = []
    for benchmark in benchmarks:
        modes = [m for m in MODES
                 if m in get_benchmark(benchmark).modes]
        per_benchmark[benchmark] = modes
        baseline_specs.extend(RunSpec(benchmark, mode, config)
                              for mode in modes)
    baseline_results = dict(zip(
        [(s.benchmark, s.mode) for s in baseline_specs],
        harness.run_many(baseline_specs, workers=workers,
                         on_error=on_error)))
    fault_specs = []
    fault_rates = []
    for benchmark, modes in per_benchmark.items():
        survivors = [baseline_results[(benchmark, mode)]
                     for mode in modes
                     if baseline_results[(benchmark, mode)].ok]
        for mode in modes:
            result = baseline_results[(benchmark, mode)]
            cells[(benchmark, mode, 0.0)] = \
                result.cycles if result.ok else FAILED
        if not survivors:
            continue        # no horizon — skip this benchmark's faults
        # One plan horizon per benchmark (spanning its slowest mode)
        # so every mode replays the *same* fault windows.
        horizon = 2 * max(result.cycles for result in survivors)
        for rate in rates:
            if rate <= 0.0:
                continue
            plan = FaultPlan.random(fault_seed, config, rate=rate,
                                    horizon=horizon)
            fault_specs.extend(
                RunSpec(benchmark, mode, config.with_faults(plan))
                for mode in modes)
            fault_rates.extend(rate for __ in modes)
    for spec, rate, result in zip(fault_specs, fault_rates,
                                  harness.run_many(fault_specs,
                                                   workers=workers,
                                                   on_error=on_error)):
        cells[(spec.benchmark, spec.mode, rate)] = \
            result.cycles if result.ok else FAILED
    return cells


def slowdown(cells, benchmark, mode, rate):
    base = cells.get((benchmark, mode, 0.0))
    faulted = cells.get((benchmark, mode, rate))
    if not base or faulted is None or FAILED in (base, faulted):
        return None
    return faulted / base


def render(cells):
    benchmarks = sorted({key[0] for key in cells},
                        key=BENCHMARK_ORDER.index)
    rates = sorted({key[2] for key in cells})
    sections = []
    for benchmark in benchmarks:
        modes = [m for m in MODES if (benchmark, m, rates[0]) in cells]
        values = {}
        for mode in modes:
            for rate in rates:
                cell = cells.get((benchmark, mode, rate))
                ratio = slowdown(cells, benchmark, mode, rate)
                if cell is None or cell == FAILED:
                    values[(mode, "%g/kc" % rate)] = "FAILED"
                elif ratio is None:
                    values[(mode, "%g/kc" % rate)] = "%d" % cell
                else:
                    values[(mode, "%g/kc" % rate)] = \
                        "%d (%.2fx)" % (cell, ratio)
        sections.append(format_grid(
            values, modes, ["%g/kc" % rate for rate in rates],
            title="Resilience — %s (cycles under unit-offline faults, "
                  "slowdown vs fault-free)" % benchmark))
    top = max(rates)
    summary = ["average slowdown at %g faults/kilocycle:" % top]
    for mode in MODES:
        ratios = [slowdown(cells, benchmark, mode, top)
                  for benchmark in benchmarks
                  if (benchmark, mode, top) in cells]
        ratios = [ratio for ratio in ratios if ratio]
        if ratios:
            summary.append("  %-8s %.2fx" % (mode,
                                             sum(ratios) / len(ratios)))
    summary.append("(every cell is validated against the reference "
                   "output: degraded, never wrong)")
    return "\n\n".join(sections) + "\n" + "\n".join(summary)
