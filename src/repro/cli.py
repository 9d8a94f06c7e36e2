"""Top-level command line interface.

::

    python -m repro compile prog.sexp --mode coupled -o prog.s
    python -m repro run prog.sexp --mode coupled --set A=1,2,3,4
    python -m repro run prog.s --asm --trace --window 60
    python -m repro run prog.sexp --profile 20   # cProfile hotspots
    python -m repro run prog.sexp --engine scan
                                     # run the cycle-by-cycle reference kernel
    python -m repro run prog.sexp --sanitize shadow  # online sanitizer
    python -m repro replay sanitizer-reports/main-divergence-cycle4097
    python -m repro modes            # list machine modes
    python -m repro describe         # show the baseline machine
    python -m repro bench --quick    # benchmark the simulator itself
    python -m repro bench --quick --backend batch --lanes 16
                                     # 16-seed sweep in numpy lockstep
    python -m repro cache info       # on-disk compile cache footprint
    python -m repro cache prune --max-bytes 50000000

Programs are the mini-language (``.sexp``) or assembly (``--asm``).
"""

import argparse
import sys

from . import compile_program, run_program
from .compiler.schedule.modes import MODES
from .isa import asmtext
from .machine import MEMORY_MODELS, baseline
from .machine.config import ENGINES
from .machine.interconnect import CommScheme
from .sim import FaultPlan
from .sim.trace import TraceRecorder, render_timeline


def _build_config(args):
    config = baseline()
    if getattr(args, "interconnect", None):
        config = config.with_interconnect(args.interconnect)
    if getattr(args, "memory", None):
        config = config.with_memory(MEMORY_MODELS[args.memory]())
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    if getattr(args, "faults", None):
        config = config.with_faults(FaultPlan.from_file(args.faults))
    if getattr(args, "engine", None):
        config = config.with_engine(args.engine)
    if getattr(args, "no_fusion", False):
        config = config.with_fusion(False)
    return config


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        name, __, values = pair.partition("=")
        if not values:
            raise SystemExit("--set expects NAME=v1,v2,...")
        parsed = []
        for item in values.split(","):
            try:
                parsed.append(int(item))
            except ValueError:
                parsed.append(float(item))
        overrides[name] = parsed
    return overrides


def _load_program(args, config):
    text = open(args.program).read() if args.program != "-" \
        else sys.stdin.read()
    if args.asm:
        return asmtext.parse(text), None
    compiled = compile_program(text, config, mode=args.mode)
    return compiled.program, compiled


def cmd_compile(args, out):
    config = _build_config(args)
    program, compiled = _load_program(args, config)
    text = asmtext.emit(program)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        out.write("wrote %s (%d threads, %d operations)\n"
                  % (args.output, len(program.threads),
                     program.static_operation_count()))
    else:
        out.write(text)
    if compiled is not None and args.report:
        for name, report in sorted(compiled.reports.items()):
            out.write("; thread %-12s words=%-4d ops=%-4d moves=%-3d "
                      "peak-regs=%s\n"
                      % (name, report.words, report.operations,
                         report.moves, report.peak_registers))
    return 0


def cmd_run(args, out):
    config = _build_config(args)
    program, __ = _load_program(args, config)
    overrides = _parse_overrides(args.set)
    recorder = TraceRecorder() if args.trace else None
    profiler = None
    if args.profile is not None:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    result = run_program(program, config, overrides=overrides,
                         max_cycles=args.max_cycles, observer=recorder,
                         watchdog_cycles=args.watchdog_cycles,
                         sanitize=args.sanitize)
    if profiler is not None:
        profiler.disable()
    out.write("cycles: %d\n" % result.cycles)
    out.write("stats:  %s\n" % result.stats)
    summary = getattr(result, "sanitizer", None)
    if summary is not None:
        out.write("sanitizer: level=%s audits=%d shadow_checks=%d "
                  "trips=%d quarantined=%d%s\n"
                  % (summary.level, summary.audits,
                     summary.shadow_checks, summary.trips,
                     len(summary.quarantined),
                     " de-optimized" if summary.de_optimized else ""))
        for path in summary.reports:
            out.write("sanitizer report: %s (replay with: python -m "
                      "repro replay %s)\n" % (path, path))
    for symbol in (args.print or sorted(program.data.symbols)):
        values = result.read_symbol(symbol)
        preview = values if len(values) <= 16 else values[:16] + ["..."]
        out.write("%s = %s\n" % (symbol, preview))
    if recorder is not None:
        out.write("\n")
        out.write(render_timeline(recorder, config, last=args.window))
        out.write("\n")
    if profiler is not None:
        out.write("\n")
        out.write(_profile_report(profiler, args.profile))
    return 0


def _profile_report(profiler, top):
    """The top-N cumulative-time rows of a cProfile run, as text."""
    import io
    import pstats
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def cmd_replay(args, out):
    """Deterministically re-execute a sanitizer reproducer bundle."""
    from .sim.sanitize import replay_bundle
    replay_bundle(args.bundle, out=lambda line: out.write(line + "\n"),
                  max_cycles=args.max_cycles, trace=args.trace)
    return 0


def cmd_modes(args, out):
    for mode in MODES:
        out.write("%s\n" % mode)
    return 0


def _human_bytes(count):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return "%.1f %s" % (count, unit) if unit != "B" \
                else "%d B" % count
        count /= 1024.0


def cmd_cache(args, out):
    """Inspect and bound the on-disk compile cache."""
    from .compiler.cache import CompileCache, default_cache_dir
    cache = CompileCache(args.dir or default_cache_dir())
    if args.action == "info":
        stats = cache.stats()
        out.write("compile cache: %s\n" % stats["root"])
        out.write("entries:       %d\n" % stats["entries"])
        out.write("total size:    %s\n"
                  % _human_bytes(stats["total_bytes"]))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        out.write("removed %d entr%s from %s\n"
                  % (removed, "y" if removed == 1 else "ies",
                     cache.root))
        return 0
    # prune
    if args.max_bytes is None:
        raise SystemExit("cache prune requires --max-bytes N")
    removed, freed = cache.prune(args.max_bytes)
    stats = cache.stats()
    out.write("pruned %d entr%s (%s freed); %d left (%s)\n"
              % (removed, "y" if removed == 1 else "ies",
                 _human_bytes(freed), stats["entries"],
                 _human_bytes(stats["total_bytes"])))
    return 0


def cmd_describe(args, out):
    out.write(_build_config(args).describe() + "\n")
    return 0


def _add_program_options(parser):
    parser.add_argument("program", help="source file, or '-' for stdin")
    parser.add_argument("--mode", choices=MODES, default="coupled")
    parser.add_argument("--asm", action="store_true",
                        help="input is assembly, not mini-language")
    parser.add_argument("--interconnect",
                        choices=[s.value for s in CommScheme])
    parser.add_argument("--memory", choices=sorted(MEMORY_MODELS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--engine", choices=ENGINES,
                        help="simulator kernel (default %s)" % ENGINES[0])
    parser.add_argument("--no-fusion", action="store_true",
                        help="disable superblock fusion in the event "
                             "kernel (word-by-word dispatch)")


def main(argv=None, out=None):
    out = out or sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # ``bench`` owns its option surface; dispatch before parsing so its
    # flags aren't constrained by the shared program options.
    if argv and argv[0] == "bench":
        from . import bench
        return bench.main(argv[1:], out=out)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Processor coupling: compile and simulate programs "
                    "for a multi-cluster node.")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile",
                                    help="compile to wide-word assembly")
    _add_program_options(compile_parser)
    compile_parser.add_argument("-o", "--output")
    compile_parser.add_argument("--report", action="store_true",
                                help="append per-thread statistics")
    compile_parser.set_defaults(func=cmd_compile)

    run_parser = sub.add_parser("run", help="compile (or load) and "
                                            "simulate")
    _add_program_options(run_parser)
    run_parser.add_argument("--set", action="append", metavar="SYM=v,..",
                            help="initialize a memory symbol")
    run_parser.add_argument("--print", action="append", metavar="SYM",
                            help="symbols to dump (default: all)")
    run_parser.add_argument("--trace", action="store_true",
                            help="show a unit-occupancy timeline")
    run_parser.add_argument("--window", type=int, default=64,
                            help="timeline window in cycles")
    run_parser.add_argument("--max-cycles", type=int, default=5_000_000)
    run_parser.add_argument("--faults", metavar="PLAN.json",
                            help="replay a fault-injection plan "
                                 "(see repro.sim.faults)")
    run_parser.add_argument("--watchdog-cycles", type=int, default=100_000,
                            metavar="K",
                            help="raise WatchdogError after K cycles "
                                 "without forward progress "
                                 "(default 100000)")
    run_parser.add_argument("--profile", type=int, nargs="?", const=15,
                            default=None, metavar="N",
                            help="profile the simulation and print the "
                                 "top N functions by cumulative time "
                                 "(default 15)")
    run_parser.add_argument("--sanitize", nargs="?", const="audit",
                            choices=("audit", "shadow", "deep"),
                            default=None, metavar="LEVEL",
                            help="run under the online state sanitizer "
                                 "(audit = strided invariant checks; "
                                 "shadow adds differential execution "
                                 "against the unfused kernel; deep "
                                 "audits every cycle); bare --sanitize "
                                 "means audit")
    run_parser.set_defaults(func=cmd_run)

    replay_parser = sub.add_parser(
        "replay", help="re-execute a sanitizer reproducer bundle")
    replay_parser.add_argument("bundle",
                               help="bundle directory written by a "
                                    "sanitizer trip (see sanitizer "
                                    "report output)")
    replay_parser.add_argument("--max-cycles", type=int, default=None,
                               help="override the bundle's recorded "
                                    "cycle budget")
    replay_parser.add_argument("--trace", action="store_true",
                               help="show the reference schedule "
                                    "entering the divergence window")
    replay_parser.set_defaults(func=cmd_replay)

    # Listed for --help only; real dispatch happens above.
    sub.add_parser("bench", add_help=False,
                   help="benchmark the simulator on the paper suite")

    cache_parser = sub.add_parser(
        "cache", help="inspect or bound the on-disk compile cache")
    cache_parser.add_argument("action",
                              choices=("info", "clear", "prune"))
    cache_parser.add_argument("--dir", metavar="PATH",
                              help="cache directory (default: "
                                   "$REPRO_CACHE_DIR or "
                                   "~/.cache/repro/compile)")
    cache_parser.add_argument("--max-bytes", type=int, metavar="N",
                              help="prune: evict oldest entries until "
                                   "the cache fits in N bytes")
    cache_parser.set_defaults(func=cmd_cache)

    modes_parser = sub.add_parser("modes", help="list machine modes")
    modes_parser.set_defaults(func=cmd_modes)

    describe_parser = sub.add_parser("describe",
                                     help="show the machine")
    describe_parser.add_argument("--interconnect",
                                 choices=[s.value for s in CommScheme])
    describe_parser.add_argument("--memory",
                                 choices=sorted(MEMORY_MODELS))
    describe_parser.add_argument("--seed", type=int)
    describe_parser.set_defaults(func=cmd_describe)

    args = parser.parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":
    sys.exit(main())
