"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions at each layer boundary of
``repro`` with spans while it is installed, and restores them on exit.
A span's *self time* is its duration minus the durations of the spans
nested inside it, so self times add up to the traced wall time.  The
wrappers record counts at the same boundaries.

Layers and where they are cut:

* compiler phases: the functions ``compile_program`` reaches through
  ``repro.compiler.driver``, plus the driver's own glue;
* compile cache: ``CompileCache.get`` / ``put``;
* inputs and reference checks: ``Benchmark.make_inputs`` / ``check``;
* loader: ``validate_program`` and ``load_memory`` as ``Node.run`` calls
  them;
* predecode: ``decode_program``, ``BlockTable.get`` (single-thread
  superblock builds and lookups), ``compile_mt_run`` and
  ``MTBlockPlan.promote``;
* fused execution: the ``fn`` of every superblock those return;
* interpreted execution: ``EventNode.run`` minus everything above;
* batch lanes: ``run_batch`` (lockstep), ``merge_overrides`` and the
  scalar re-runs of peeled lanes that follow a lockstep run;
* harness: ``Harness.run_many`` minus everything above.
"""

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

from repro.compiler import cache, driver, liveness
from repro.compiler.schedule.scheduler import ThreadScheduler
from repro.experiments import runner, table3
from repro.programs.suite import Benchmark
from repro.sim import batch, event, node, predecode

#: Why fusion declined a dispatch (``Stats.defuse_reasons``); any other
#: reason is reported as ``event.defuse.other``.
DEFUSE_REASONS = (
    "st_partial_word", "st_mem_event", "st_clamp", "st_presence",
    "st_opcache_cold", "st_guard_bail", "mt_width", "mt_partial",
    "mt_warmup", "mt_build_budget", "mt_compile_fail", "mt_inert",
    "mt_clamp", "mt_mem_event", "mt_presence", "mt_guard_bail",
    "quarantined")
DEFUSE_METRICS = DEFUSE_REASONS + ("other",)

#: Why a lane left lockstep (``BatchOutcome.peeled``), by prefix.
PEEL_REASONS = ("mem-address", "branch", "arith", "error")

COMPILER_PHASES = ("parse", "expand", "lower", "optimize", "liveness",
                   "schedule", "codegen", "driver")

TIMES = (tuple("compiler.%s" % phase for phase in COMPILER_PHASES)
         + ("compiler.cache_get", "compiler.cache_put",
            "programs.inputs", "programs.check",
            "loader.validate", "loader.load",
            "predecode.decode", "predecode.st_table", "predecode.mt_build",
            "predecode.mt_promote",
            "event.fused_st", "event.fused_mt", "event.interp",
            "batch.lockstep", "batch.merge", "batch.rerun",
            "harness.overhead"))


#: (owner, attribute, span) for the boundaries timed without other
#: bookkeeping.  The driver, runner, node, event and batch entries patch
#: the name where the caller looks it up.
TIMED_BOUNDARIES = (
    (driver, "parse_program", "compiler.parse"),
    (driver, "expand_thread", "compiler.expand"),
    (driver, "expand_kernel", "compiler.expand"),
    (driver, "lower_thread", "compiler.lower"),
    (driver, "optimize_thread", "compiler.optimize"),
    (liveness, "analyze", "compiler.liveness"),
    (ThreadScheduler, "schedule", "compiler.schedule"),
    (driver, "generate_thread", "compiler.codegen"),
    (runner, "compile_program", "compiler.driver"),
    (table3, "compile_program", "compiler.driver"),
    (cache.CompileCache, "get", "compiler.cache_get"),
    (cache.CompileCache, "put", "compiler.cache_put"),
    (Benchmark, "make_inputs", "programs.inputs"),
    (Benchmark, "check", "programs.check"),
    (node, "validate_program", "loader.validate"),
    (node, "load_memory", "loader.load"),
    (event, "decode_program", "predecode.decode"),
    (batch, "merge_overrides", "batch.merge"),
)


def _peel_reason(reason):
    if reason in ("mem-address", "branch"):
        return reason
    if reason.startswith("arith") or reason in ("fdiv-by-zero",
                                                "fsqrt-negative"):
        return "arith"
    return "error"


class Tracer:
    """Spans and counts at the layer boundaries, over traced passes."""

    def __init__(self):
        self.self_s = defaultdict(float)    # span name -> self seconds
        self.calls = Counter()              # span name -> calls
        self.counts = Counter()             # named counters
        self._stack = []                    # child seconds per open span
        self._rerun_phase = False

    # -- spans -----------------------------------------------------------

    def _call(self, name, fn, *args, **kwargs):
        stack = self._stack
        stack.append(0.0)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.self_s[name] += elapsed - stack.pop()
            self.calls[name] += 1
            if stack:
                stack[-1] += elapsed

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            return self._call(name, fn, *args, **kwargs)
        return timed

    def _fused(self, name, fn):
        """A superblock's ``fn(node, thread(s), cycle)``, counting
        dispatches, guard bails and the cycles dispatches covered."""
        counts = self.counts

        def fused(node_, threads, cycle):
            end = self._call(name, fn, node_, threads, cycle)
            if end is None:
                counts["fused_bails"] += 1
            else:
                counts["fused_dispatches"] += 1
                counts["fused_cycles"] += end - cycle + 1
            return end
        fused.traced = True
        return fused

    def _wrap_block(self, name, block):
        if block is not None and not getattr(block.fn, "traced", False):
            block.fn = self._fused(name, block.fn)
        return block

    # -- wrappers with bookkeeping ---------------------------------------

    def _block_get(self, get):
        def traced_get(table, ip):
            block = self._call("predecode.st_table", get, table, ip)
            if block is not None and not getattr(block.fn, "traced", False):
                self.counts["st_blocks"] += 1
                block.fn = self._fused("event.fused_st", block.fn)
            return block
        return traced_get

    def _mt_build(self, build):
        def traced_build(*args, **kwargs):
            block = self._call("predecode.mt_build", build, *args, **kwargs)
            return self._wrap_block("event.fused_mt", block)
        return traced_build

    def _promote(self, promote):
        def traced_promote(block):
            self._call("predecode.mt_promote", promote, block)
            self._wrap_block("event.fused_mt", block)
        return traced_promote

    def _node_run(self, run):
        def traced_run(node_, *args, **kwargs):
            if isinstance(node_, batch.BatchNode):
                return self._call("batch.lockstep", run, node_, *args,
                                  **kwargs)
            name = "batch.rerun" if self._rerun_phase else "event.interp"
            try:
                return self._call(name, run, node_, *args, **kwargs)
            finally:
                counts = self.counts
                counts["event_cycles"] += node_.stats.cycles
                counts["ffwd_jumps"] += node_.ffwd_jumps
                counts["ffwd_cycles"] += node_.ffwd_cycles
                for reason, count in node_.stats.defuse_reasons.items():
                    if reason not in DEFUSE_REASONS:
                        reason = "other"
                    counts["defuse." + reason] += count
        return traced_run

    def _run_batch(self, run_batch):
        def traced_run_batch(*args, **kwargs):
            # Scalar runs between a lockstep run and the next one are
            # the harness re-running the lanes it peeled.
            self._rerun_phase = False
            outcome = self._call("batch.lockstep", run_batch, *args,
                                 **kwargs)
            self._rerun_phase = True
            self.counts["batch_lanes"] += outcome.lanes
            for reason, __ in outcome.peeled.values():
                self.counts["peel." + _peel_reason(reason)] += 1
            return outcome
        return traced_run_batch

    def _run_many(self, run_many):
        def traced_run_many(harness, *args, **kwargs):
            self._rerun_phase = False
            try:
                return self._call("harness.overhead", run_many, harness,
                                  *args, **kwargs)
            finally:
                self._rerun_phase = False
        return traced_run_many

    # -- installation ----------------------------------------------------

    def _patches(self):
        """(owner, attribute, wrapper factory) for every boundary."""
        return [(owner, name, functools.partial(self._timed, span))
                for owner, name, span in TIMED_BOUNDARIES] + [
            (predecode.BlockTable, "get", self._block_get),
            (event, "compile_mt_run", self._mt_build),
            (predecode.MTBlockPlan, "promote", self._promote),
            (event.EventNode, "run", self._node_run),
            (batch, "run_batch", self._run_batch),
            (runner.Harness, "run_many", self._run_many),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the ``with`` block."""
        undo = []
        try:
            for owner, name, factory in self._patches():
                own = name in vars(owner)
                original = getattr(owner, name)
                undo.append((owner, name, own, original))
                setattr(owner, name, factory(original))
            yield self
        finally:
            for owner, name, own, original in reversed(undo):
                if own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)     # it was inherited
            self._rerun_phase = False


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(tracer, traced, untraced):
    """Every per-layer metric but set-up's and the host probe's, as
    ``{name: (value, unit)}``: times and counts per traced pass, ratios
    over all traced passes."""
    n = len(traced)
    counts, calls = tracer.counts, tracer.calls
    out = {}
    for name in TIMES:
        out[name + "_s"] = (tracer.self_s[name] / n, "s")
    per_pass = {
        "compiler.compiles": calls["compiler.parse"],
        "compiler.cache_hits": sum(r.cache_hits for r in traced),
        "compiler.cache_misses": sum(r.cache_misses for r in traced),
        "predecode.st_blocks": counts["st_blocks"],
        "predecode.mt_builds": calls["predecode.mt_build"],
        "predecode.mt_promotions": calls["predecode.mt_promote"],
        "event.fused_dispatches": counts["fused_dispatches"],
        "event.ffwd_jumps": counts["ffwd_jumps"],
        "harness.deduped": sum(r.deduped for r in traced),
    }
    for reason in DEFUSE_METRICS:
        per_pass["event.defuse." + reason] = counts["defuse." + reason]
    for reason in PEEL_REASONS:
        per_pass["batch.peel." + reason] = counts["peel." + reason]
    for name, total in per_pass.items():
        out[name] = (total / n, "count")
    dispatches = counts["fused_dispatches"]
    declines = sum(counts["defuse." + reason]
                   for reason in DEFUSE_METRICS)
    peeled = sum(counts["peel." + reason] for reason in PEEL_REASONS)
    walls = [r.wall_s for r in traced]
    for name, value in (
            ("event.fused_bail_frac",
             _ratio(counts["fused_bails"],
                    counts["fused_bails"] + dispatches)),
            ("event.fused_cycle_frac",
             _ratio(counts["fused_cycles"], counts["event_cycles"])),
            ("event.fuse_decline_frac",
             _ratio(declines, declines + dispatches)),
            ("event.ffwd_cycle_frac",
             _ratio(counts["ffwd_cycles"], counts["event_cycles"])),
            ("batch.peeled_lane_frac",
             _ratio(peeled, counts["batch_lanes"])),
            ("trace.overhead_frac",
             statistics.median(walls)
             / statistics.median(r.wall_s for r in untraced) - 1.0),
            ("trace.coverage_frac",
             _ratio(sum(tracer.self_s.values()), sum(walls)))):
        out[name] = (value, "ratio")
    out["trace.pass_s"] = (sum(walls) / n, "s")
    return out
