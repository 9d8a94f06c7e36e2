"""``repro bench``: the performance trajectory of the simulator itself.

Runs the paper suite (benchmark x mode on the baseline machine) on the
event kernel, records wall-clock seconds, simulated cycles, and
cycles/second per cell, and writes ``BENCH_<YYYYMMDD>.json``.

::

    python -m repro bench                  # full suite, serial
    python -m repro bench --quick          # CI smoke subset
    python -m repro bench --workers 4      # process-pool fan-out
    python -m repro bench --no-fusion      # event kernel, superblocks off
    python -m repro bench -o new.json --compare old.json   # cycle gate
    python -m repro bench --workers 4 --cell-timeout 120 \
        --on-error collect --resume        # supervised, resumable sweep

``--compare`` checks the fresh run against a recorded report: any
simulated-cycle drift on a shared cell is an error (the simulator's
architectural behavior changed), and so is a cell the reference
measured but the fresh run collected as failed.  The exit status is
non-zero on either, so CI can gate on it.  Throughput is not compared:
wall clock recorded on another day measures the host as much as the
commit, so speed is measured by perfbench's paired runs on one host.

Sweeps run under the supervised harness: ``--on-error collect``
isolates cell failures instead of aborting, ``--cell-timeout S``
bounds each cell's wall clock, and ``--resume [JOURNAL]`` keeps an
append-only ledger of completed cells so an interrupted bench re-runs
only the remainder (see docs/internals.md, "Supervised sweep
execution").

Output schema (version 6)::

    {
      "schema": 6,
      "date": "YYYYMMDD",
      "suite": "full" | "quick",
      "workers": N,
      "seed": N,
      "fusion": bool,               # superblock fusion (event kernel)
      "sanitize": "off" | "audit" | "shadow" | "deep",
      "backend": "pool" | "batch",  # sweep execution backend
      "lanes": N,                   # seeds per cell (1 = pool default)
      "on_error": "raise" | "collect",
      "cell_timeout": float | null,
      "total_wall_s": float,        # whole-suite wall clock
      "aggregate_cycles_per_sec": float,   # sum(cycles)/sum(wall_seconds)
      "results": [<RunResult.as_record()>, ...],
      "failed": [<CellFailure.as_record()>, ...]
    }

A cell whose spec set an input seed (``--lanes`` above 1) also carries
``seed``; the others do not, so a single-seed report keeps the
(benchmark, mode) cell identity that ``--compare`` keys on.
"""

import argparse
import json
import os
import sys
import time

from .experiments.paper import MODE_ORDER
from .experiments.runner import Harness, RunSpec
from .machine import baseline
from .programs import get_benchmark
from .programs.suite import BENCHMARK_ORDER

#: Benchmarks in the CI smoke subset (LUD dominates full-suite wall
#: clock, so --quick drops it).
QUICK_BENCHMARKS = ("matrix", "fft", "model")

SCHEMA_VERSION = 6


def suite_specs(quick=False, config=None, seeds=None):
    """The paper suite as RunSpecs: benchmark x supported mode.

    ``seeds`` expands every cell into one spec per input seed — the
    lane axis of ``--backend batch``.  None keeps the classic
    single-spec-per-cell suite (spec seed left None = harness seed,
    so run keys and report cell keys are unchanged)."""
    benchmarks = QUICK_BENCHMARKS if quick else BENCHMARK_ORDER
    specs = []
    for benchmark in benchmarks:
        modes = [m for m in MODE_ORDER
                 if m in get_benchmark(benchmark).modes]
        for mode in modes:
            if seeds is None:
                specs.append(RunSpec(benchmark, mode, config))
            else:
                specs.extend(RunSpec(benchmark, mode, config, seed=s)
                             for s in seeds)
    return specs


def run_suite(harness, specs, workers=None, on_error="raise",
              cell_timeout=None, journal=None, backend=None):
    """Run the specs under supervision; returns ``(records, failed)``
    — the ``as_record()`` of each completed cell and of each collected
    failure (always empty with ``on_error="raise"``), with ``seed``
    added where the spec set one."""
    results = harness.run_many(specs, workers=workers,
                               on_error=on_error,
                               cell_timeout=cell_timeout,
                               journal=journal, backend=backend)
    records, failed = [], []
    for spec, result in zip(specs, results):
        record = result.as_record()
        if spec.seed is not None:
            record["seed"] = spec.seed
        (records if result.ok else failed).append(record)
    return records, failed


def _measured(records):
    """The records carrying a cycle count (guards against failed or
    malformed cells riding along in a results list)."""
    return [r for r in records if isinstance(r.get("cycles"), int)]


def _cell_key(record):
    """Cell identity for cross-report comparison: (benchmark, mode,
    seed).  The seed key is absent on default-seed cells (None here)."""
    return (record["benchmark"], record["mode"], record.get("seed"))


def aggregate_cycles_per_sec(records):
    """Whole-suite throughput: total simulated cycles over total
    simulation wall clock (compile time excluded).  An empty or
    all-failed record list aggregates to 0.0 rather than dividing by
    zero, and cells without a real wall-clock measurement are
    excluded from *both* sums: counting their cycles against no wall
    would inflate the aggregate toward infinity."""
    records = [r for r in _measured(records) if r["wall_seconds"] > 0.0]
    if not records:
        return 0.0
    cycles = sum(r["cycles"] for r in records)
    wall = sum(r["wall_seconds"] for r in records)
    return cycles / wall


def compare_reports(report, reference):
    """Gate ``report``'s cycle counts against a recorded ``reference``.

    Returns a list of problem strings (empty = pass).  Simulated cycle
    counts must match exactly on every cell the two reports share:
    every kernel is required to be bit-identical, so any drift means
    the simulator's architectural behavior changed.  Only cell
    identity and ``cycles`` are read, so a reference of any schema
    serves.

    Failed cells never raise a KeyError: a cell the reference measured
    but the current report collected as failed is reported as an
    explicit problem (that *is* a regression); cells failed in the
    reference are skipped silently (there is nothing to compare).
    """
    problems = []
    current = {_cell_key(r): r for r in _measured(report["results"])}
    recorded = {_cell_key(r): r
                for r in _measured(reference["results"])}
    for failure in report.get("failed", ()):
        key = _cell_key(failure)
        if key in recorded:
            problems.append(
                "%s/%s: failed in current report (%s: %s) — skipped "
                "from cycle comparison"
                % (key[0], key[1], failure.get("error_type", "?"),
                   failure.get("message", "?")))
    shared = [key for key in recorded if key in current]
    if not shared:
        return problems + ["no shared (benchmark, mode) cells to "
                           "compare"]
    for key in shared:
        new, old = current[key], recorded[key]
        if new["cycles"] != old["cycles"]:
            problems.append(
                "%s/%s: simulated cycles drifted from %d to %d"
                % (key[0], key[1], old["cycles"], new["cycles"]))
    return problems


def bench_filename(date=None):
    date = date or time.strftime("%Y%m%d")
    return "BENCH_%s.json" % date


def render(report):
    """A human-readable digest of one bench report."""
    lines = ["bench %s: suite=%s workers=%s fusion=%s backend=%s lanes=%s"
             % (report["date"], report["suite"], report["workers"],
                "on" if report["fusion"] else "off", report["backend"],
                report["lanes"])]
    lines.append("%-10s %-12s %10s %9s %9s %5s %12s"
                 % ("benchmark", "mode", "cycles", "wall_s",
                    "compile_s", "cache", "cycles/sec"))
    for record in report["results"]:
        mode = record["mode"]
        if "seed" in record:
            mode = "%s@%d" % (mode, record["seed"])
        if record["backend"] == "batch-peeled":
            mode += "*"              # peeled out of its lane bundle
        wall = record["wall_seconds"]
        lines.append("%-10s %-12s %10d %9.3f %9.3f %5s %12.0f"
                     % (record["benchmark"], mode, record["cycles"], wall,
                        record["compile_seconds"],
                        "hit" if record["cache_hit"] else "miss",
                        record["cycles"] / wall if wall > 0 else 0.0))
    total_cycles = sum(r["cycles"] for r in report["results"])
    lines.append("total: %d cells, %d simulated cycles, %.2fs wall "
                 "(%.0f cycles/sec aggregate)"
                 % (len(report["results"]), total_cycles,
                    report["total_wall_s"],
                    report["aggregate_cycles_per_sec"]))
    failed = report["failed"]
    if failed:
        lines.append("FAILED cells: %d" % len(failed))
        for failure in failed:
            lines.append("  %-10s %-8s %s: %s (%d attempt(s)%s)"
                         % (failure["benchmark"], failure["mode"],
                            failure["error_type"], failure["message"],
                            failure["attempts"],
                            ", timed out" if failure["timed_out"] else ""))
    return "\n".join(lines)


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark the simulator on the paper suite and "
                    "record a BENCH_<date>.json trajectory point.")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke subset (drops LUD)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="fan the suite out over N worker processes")
    parser.add_argument("--seed", type=int, default=1,
                        help="input-data seed (default 1)")
    parser.add_argument("--no-fusion", action="store_true",
                        help="disable superblock fusion (event kernel "
                             "falls back to word-by-word dispatch)")
    parser.add_argument("--sanitize", nargs="?", const="audit",
                        choices=("audit", "shadow", "deep"),
                        default=None, metavar="LEVEL",
                        help="run every cell under the online state "
                             "sanitizer (audit = strided invariant "
                             "checks; shadow adds differential "
                             "execution against the unfused kernel; "
                             "deep audits every cycle); bare --sanitize "
                             "means audit")
    parser.add_argument("--backend", choices=("pool", "batch"),
                        default="pool",
                        help="sweep backend: per-cell scalar runs "
                             "(pool, default) or the numpy lockstep "
                             "lane engine over the seed axis (batch; "
                             "see --lanes)")
    parser.add_argument("--lanes", type=int, default=None, metavar="N",
                        help="input seeds per cell, seed..seed+N-1 "
                             "(default 16 under --backend batch, else "
                             "1); each seed is one lockstep lane")
    parser.add_argument("--on-error", choices=("raise", "collect"),
                        default="raise",
                        help="cell-failure policy: abort the sweep "
                             "(raise, default) or record the failure "
                             "and keep going (collect)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="S",
                        help="per-cell wall-clock budget in seconds "
                             "(pooled runs only); a hung cell is "
                             "killed and reported instead of blocking "
                             "the sweep forever")
    parser.add_argument("--resume", nargs="?", const="auto",
                        metavar="JOURNAL",
                        help="journal completed cells to JOURNAL "
                             "(default: <output>.journal.jsonl) and "
                             "replay any cells already recorded there "
                             "— an interrupted bench re-runs only the "
                             "remainder")
    parser.add_argument("--compare", metavar="BENCH_FILE",
                        help="gate against a recorded "
                             "BENCH_<date>.json; exits non-zero on "
                             "cycle drift or a failed cell")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="output path (default BENCH_<date>.json in "
                             "the current directory)")
    args = parser.parse_args(argv)

    if args.backend == "batch" and args.sanitize:
        parser.error("--backend batch cannot run under --sanitize "
                     "(the sanitizer shadows the scalar kernels)")
    lanes = args.lanes if args.lanes is not None \
        else (16 if args.backend == "batch" else 1)
    if lanes < 1:
        parser.error("--lanes must be >= 1")

    reference = None
    if args.compare:
        with open(args.compare) as handle:
            reference = json.load(handle)

    config = baseline()
    if args.no_fusion:
        config = config.with_fusion(False)
    harness = Harness(seed=args.seed, sanitize=args.sanitize)
    # lanes == 1 keeps specs seedless (seed=None = harness seed), so
    # cell keys and journal digests match single-seed reports exactly.
    seeds = [args.seed + i for i in range(lanes)] if lanes > 1 else None
    specs = suite_specs(quick=args.quick, config=config, seeds=seeds)
    date = time.strftime("%Y%m%d")
    path = args.output or bench_filename(date)
    journal = args.resume
    if journal == "auto":
        journal = str(path) + ".journal.jsonl"
    started = time.perf_counter()
    records, failed = run_suite(harness, specs, workers=args.workers,
                                on_error=args.on_error,
                                cell_timeout=args.cell_timeout,
                                journal=journal,
                                backend=args.backend)
    total_wall = time.perf_counter() - started

    report = {
        "schema": SCHEMA_VERSION,
        "date": date,
        "suite": "quick" if args.quick else "full",
        "workers": args.workers or 1,
        "seed": args.seed,
        "fusion": config.fusion,
        "sanitize": args.sanitize or "off",
        "backend": args.backend,
        "lanes": lanes,
        "on_error": args.on_error,
        "cell_timeout": args.cell_timeout,
        "total_wall_s": round(total_wall, 6),
        "aggregate_cycles_per_sec":
            round(aggregate_cycles_per_sec(records), 1),
        "results": records,
        "failed": failed,
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    out.write(render(report) + "\n")
    out.write("wrote %s\n" % os.path.abspath(path))
    if reference is not None:
        problems = compare_reports(report, reference)
        if problems:
            out.write("comparison against %s FAILED:\n" % args.compare)
            for problem in problems:
                out.write("  " + problem + "\n")
            return 1
        out.write("comparison against %s passed (no cycle drift)\n"
                  % args.compare)
    if failed:
        out.write("%d cell(s) FAILED (see report)\n" % len(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
