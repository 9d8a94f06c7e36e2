"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one compiler feature and measures Coupled-mode
(and where relevant STS/Ideal) cycles, verifying both that results stay
correct and that the feature actually pays for itself on the benchmark
it was introduced for.
"""

from conftest import one_shot

from repro import compile_program, run_program
from repro.compiler.options import ABLATIONS
from repro.machine import baseline
from repro.programs import get_benchmark


def run_with(options_name, bench_name, mode):
    config = baseline()
    bench = get_benchmark(bench_name)
    inputs = bench.make_inputs(seed=1)
    compiled = compile_program(bench.source(mode), config, mode=mode,
                               options=ABLATIONS[options_name])
    result = run_program(compiled.program, config, overrides=inputs)
    problems = bench.check(result, inputs)
    assert not problems, (options_name, problems[:3])
    return result.cycles


def sweep(bench_name, mode):
    return {name: run_with(name, bench_name, mode)
            for name in ABLATIONS}


def _show(title, cycles):
    print()
    print(title)
    for name in sorted(cycles, key=cycles.get):
        print("  %-16s %7d  (%+5.1f%% vs full)"
              % (name, cycles[name],
                 100.0 * (cycles[name] / cycles["full"] - 1.0)))


def test_ablation_matrix_ideal(benchmark):
    """Redundant-load elimination is what lets Ideal-mode Matrix keep
    its operands in registers (paper: FPU utilization 3.93)."""
    cycles = one_shot(benchmark, sweep, "matrix", "ideal")
    _show("matrix/ideal ablations", cycles)
    assert cycles["no-load-elim"] > 1.3 * cycles["full"]
    assert cycles["no-optimizer"] >= cycles["no-load-elim"]


def test_ablation_lud_sts(benchmark):
    """Affine alias analysis unlocks the hand-unrolled update loop;
    global constant propagation and two-pass home placement kill the
    per-iteration cross-cluster moves."""
    cycles = one_shot(benchmark, sweep, "lud", "sts")
    _show("lud/sts ablations", cycles)
    assert cycles["no-affine-alias"] > 1.1 * cycles["full"]
    assert cycles["no-optimizer"] > cycles["full"]
    assert cycles["one-pass-homes"] >= cycles["full"]
    assert cycles["no-global-const"] >= cycles["full"]


def test_ablation_dual_destinations(benchmark):
    """Without dual-destination result forwarding every cross-cluster
    value costs an explicit move operation."""
    def measure():
        return {
            "full": run_with("full", "matrix", "coupled"),
            "no-dual-dest": run_with("no-dual-dest", "matrix",
                                     "coupled"),
        }
    cycles = one_shot(benchmark, measure)
    _show("matrix/coupled dual-destination ablation", cycles)
    assert cycles["no-dual-dest"] >= cycles["full"]


def test_ablations_always_correct(benchmark):
    """Every ablation must still compute correct results on every
    benchmark (features are performance-only)."""
    def check_all():
        count = 0
        for bench_name in ("matrix", "fft", "model"):
            for name in ABLATIONS:
                run_with(name, bench_name, "coupled")
                count += 1
        return count
    assert one_shot(benchmark, check_all) == 21
