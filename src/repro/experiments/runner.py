"""Shared experiment runner: compile and simulation caching, wall-clock
accounting, and a *supervised* process-pool fan-out for sweep grids.

The paper's evaluation is an embarrassingly parallel grid — benchmarks
x modes x machine configurations, every cell independent — so
:meth:`Harness.run_many` can dispatch cells to worker processes and
merge their compile/run caches back into the parent.  Parallel runs
are bit-identical to serial ones: each cell's result depends only on
its (benchmark, mode, config, seed), never on scheduling order, and
every worker derives its inputs from the same harness seed.

Pooled execution is crash-isolated (see
:mod:`repro.experiments.supervision`): a worker that raises, dies, or
hangs costs only its own cell — captured as a structured
:class:`~repro.errors.CellFailure` under ``on_error="collect"`` —
while pool breakage is retried with backoff and, once retries are
exhausted, re-executed serially in the parent.  Passing
``journal=path`` keeps an append-only JSONL ledger of completed
cells, so an interrupted sweep resumes by replaying the ledger and
re-running only the remainder.
"""

import time
from dataclasses import dataclass, replace

from ..compiler import CompileCache, compile_program, default_cache
from ..errors import CellFailure, ConfigError, VerificationError
from ..machine import baseline
from ..programs import get_benchmark
from ..sim import run_program
from .supervision import (ReplayedStats, Supervisor, SupervisorPolicy,
                          SweepCell, SweepJournal, chaos_if_requested,
                          run_key_digest)


@dataclass(frozen=True)
class RunSpec:
    """One (benchmark, mode, config) cell of a sweep grid.

    Picklable, so a batch of specs can fan out across processes.
    ``config=None`` means the baseline machine.  ``seed`` overrides
    the harness input seed for this cell only (None = harness seed) —
    the *lane axis* of the batch backend: specs that differ solely in
    ``seed`` share one compiled program and one machine timing, so
    ``run_many(backend="batch")`` simulates them in numpy lockstep.
    """

    benchmark: str
    mode: str
    config: object = None
    seed: object = None


@dataclass
class RunResult:
    """One benchmark x mode x machine simulation: its cycle count,
    unit utilization and statistics, the compiled program it ran, and
    how it was produced.

    It never holds the finished machine (the run's memory image,
    thread contexts and block tables): the harness lets each
    :class:`~repro.sim.node.SimResult` go once ``Benchmark.check`` has
    read it, so a sweep keeps results, not machines, and a pool worker
    hands back only this record.  To read final memory or threads,
    call :func:`repro.sim.run_program` on ``compiled.program``.
    ``compiled`` is shared with the harness compile cache; it is None
    on results replayed from a sweep journal.
    """

    benchmark: str
    mode: str
    config: object
    cycles: int
    utilization: dict               # unit-class name -> ops/cycle
    stats: object
    compiled: object
    verified: bool
    wall_seconds: float = 0.0       # simulation wall clock
    compile_seconds: float = 0.0    # compilation wall clock (0 on hit)
    cache_hit: bool = False         # compile served from a cache?
    replayed: bool = False          # rebuilt from a sweep journal?
    #: Which execution path produced this cell: "scalar" (a plain
    #: Harness.run), "batch" (one lane of a lockstep bundle, wall
    #: clock = bundle wall / lanes), or "batch-peeled" (diverged out
    #: of a bundle and re-run on the scalar kernel — wall clock is
    #: the re-run's own).
    backend: str = "scalar"
    lanes: int = 1                  # bundle width this cell rode in
    peeled_lanes: int = 0           # lanes peeled from that bundle

    #: Discriminates RunResult from CellFailure in a collected sweep.
    ok = True

    @property
    def fpu_util(self):
        return self.utilization["fpu"]

    @property
    def iu_util(self):
        return self.utilization["iu"]

    @property
    def cycles_per_second(self):
        """Simulated cycles per wall-clock second (perf trajectory).

        0.0 whenever the wall clock is zero, negative, or too small to
        be a real measurement — notably journal-replayed cells whose
        record predates wall-clock capture — so ``--resume`` aggregates
        can never divide by zero or report inf."""
        if self.wall_seconds <= 1e-9:
            return 0.0
        return self.cycles / self.wall_seconds


class Harness:
    """Caches compilations (per machine signature) and simulations so
    the table/figure generators can share runs.

    ``compile_cache`` controls the persistent on-disk compile cache:
    the default uses ``~/.cache/repro`` (or ``$REPRO_CACHE_DIR``;
    ``REPRO_NO_CACHE=1`` disables it), ``False``/``None`` disables it
    for this harness, and a :class:`~repro.compiler.cache.CompileCache`
    instance is used as-is.
    """

    def __init__(self, seed=1, check=True, max_cycles=5_000_000,
                 compile_cache="auto", sanitize=None):
        self.seed = seed
        self.check = check
        self.max_cycles = max_cycles
        self.sanitize = sanitize
        if compile_cache == "auto":
            compile_cache = default_cache()
        elif not compile_cache:
            compile_cache = None
        self.disk_cache = compile_cache
        self._compiled = {}
        self._runs = {}
        self._inputs = {}
        # Sweep dedupe accounting (see run_many): specs served from
        # the run cache vs. specs collapsed onto an identical cell
        # already in this batch (simulated once, fanned out).
        self.deduped_cached = 0
        self.deduped_in_flight = 0

    def inputs_for(self, benchmark, seed=None):
        eff_seed = self.seed if seed is None else seed
        key = (benchmark, eff_seed)
        if key not in self._inputs:
            self._inputs[key] = \
                get_benchmark(benchmark).make_inputs(eff_seed)
        return self._inputs[key]

    def compile(self, benchmark, mode, config):
        return self._compile_tracked(benchmark, mode, config)[0]

    def _compile_tracked(self, benchmark, mode, config):
        """Compile (or fetch) a cell's program; returns
        ``(compiled, cache_hit)`` where ``cache_hit`` is True when the
        program came from the in-memory or on-disk compile cache
        rather than a fresh compilation."""
        key = (benchmark, mode, config.schedule_signature())
        if key in self._compiled:
            return self._compiled[key], True
        bench = get_benchmark(benchmark)
        disk_hits = self.disk_cache.hits \
            if self.disk_cache is not None else 0
        compiled = compile_program(bench.source(mode), config, mode=mode,
                                   cache=self.disk_cache)
        hit = (self.disk_cache is not None
               and self.disk_cache.hits > disk_hits)
        self._compiled[key] = compiled
        return compiled, hit

    def _run_key(self, benchmark, mode, config, seed=None):
        """The run-cache key.  Everything a simulation's outcome
        depends on participates: the full config run signature (which
        covers the fault plan, seed, op cache, arbitration, ...) plus
        the input seed (the spec override, defaulting to the harness
        seed — so seedless keys are unchanged from older journals) and
        cycle budget."""
        eff_seed = self.seed if seed is None else seed
        return (benchmark, mode, config.run_signature(), eff_seed,
                self.max_cycles)

    def run(self, benchmark, mode, config=None, seed=None):
        config = config or baseline()
        key = self._run_key(benchmark, mode, config, seed)
        if key in self._runs:
            return self._runs[key]
        bench = get_benchmark(benchmark)
        started = time.perf_counter()
        compiled, cache_hit = self._compile_tracked(benchmark, mode,
                                                    config)
        compile_seconds = time.perf_counter() - started
        inputs = self.inputs_for(benchmark, seed)
        started = time.perf_counter()
        sim = run_program(compiled.program, config, overrides=inputs,
                          max_cycles=self.max_cycles,
                          sanitize=self.sanitize)
        wall_seconds = time.perf_counter() - started
        verified = True
        if self.check:
            problems = bench.check(sim, inputs)
            if problems:
                raise VerificationError(
                    benchmark, mode, config.name, problems,
                    signature=run_key_digest(
                        config.run_signature())[:12],
                    seed=self.seed if seed is None else seed)
        result = RunResult(benchmark, mode, config, sim.cycles,
                           sim.stats.utilization_table(), sim.stats,
                           compiled, verified,
                           wall_seconds=wall_seconds,
                           compile_seconds=compile_seconds,
                           cache_hit=cache_hit)
        self._runs[key] = result
        return result

    # -- supervised fan-out ----------------------------------------------

    def run_many(self, specs, workers=None, on_error="raise",
                 cell_timeout=None, retries=2, journal=None,
                 policy=None, backend=None):
        """Run a batch of specs, optionally across worker processes,
        under supervision.

        ``specs`` is an iterable of :class:`RunSpec` or
        ``(benchmark, mode[, config[, seed]])`` tuples.
        ``workers`` <= 1 (or None) runs serially in-process; otherwise
        a process pool of that size is used and each worker's compile
        and run results are merged back into this harness's caches, so
        subsequent :meth:`run` calls hit.  Falls back to serial
        execution when process pools are unavailable.  Results come
        back in spec order and are bit-identical to a serial run.

        ``backend="batch"`` additionally groups specs that share one
        compiled program and one machine timing — same
        (benchmark, mode, ``config.run_signature()``), differing only
        in input ``seed`` — into lockstep *lane bundles* executed by
        :mod:`repro.sim.batch`; groups of one fall back to the normal
        path, and a bundle rides the pool (and the journal, and the
        per-cell timeout — which then covers the whole bundle) as a
        single cell whose per-lane results are fanned back out.  Lanes
        that diverge are peeled and re-run on the scalar kernel, so
        every result is still bit-identical to a serial run.
        ``backend=None`` or ``"pool"`` is the plain per-cell path.

        Failure policy (see :mod:`repro.experiments.supervision`):
        ``on_error="raise"`` aborts on the first failed cell after
        cancelling the queue; ``"collect"`` puts a
        :class:`~repro.errors.CellFailure` in that cell's result slot
        and keeps sweeping.  ``cell_timeout`` bounds each cell's wall
        clock (pooled execution only); ``retries`` bounds
        re-dispatches after worker-pool breakage before the cell runs
        serially in the parent.  A prebuilt
        :class:`~repro.experiments.supervision.SupervisorPolicy` via
        ``policy`` overrides the three knobs.

        ``journal`` names an append-only JSONL ledger: completed cells
        are recorded as they finish, and cells already recorded there
        (from an interrupted earlier invocation) are *replayed* —
        rebuilt as :class:`RunResult` with ``replayed=True`` — instead
        of re-simulated.  Bundles journal per lane, so a resumed sweep
        replays individual lanes no matter which backend recorded
        them.
        """
        if backend not in (None, "pool", "batch"):
            raise ConfigError("backend must be 'pool' or 'batch', "
                              "got %r" % (backend,))
        if backend == "batch":
            from ..sim.batch import batch_supported
            if not batch_supported():
                raise ConfigError(
                    "backend='batch' requires numpy, which is "
                    "unavailable; use backend='pool'")
            if self.sanitize:
                raise ConfigError(
                    "backend='batch' cannot run under --sanitize "
                    "(the sanitizer shadows the scalar kernels); "
                    "use backend='pool'")
        specs = [self._coerce_spec(spec) for spec in specs]
        policy = policy or SupervisorPolicy(on_error=on_error,
                                            cell_timeout=cell_timeout,
                                            max_retries=retries)
        keyed = [(self._run_key(s.benchmark, s.mode,
                                s.config or baseline(), s.seed), s)
                 for s in specs]
        journal = self._open_journal(journal)
        if journal is not None:
            self._replay_from_journal(journal, keyed)
        failures = {}

        def on_lane_complete(cell, outcome):
            if outcome.ok:
                self._absorb(cell.key, outcome)
                if journal is not None:
                    journal.record_ok(run_key_digest(cell.key),
                                      _journal_record(outcome))
            else:
                failures[cell.key] = outcome
                if journal is not None:
                    journal.record_failed(run_key_digest(cell.key),
                                          outcome)

        def on_complete(cell, outcome):
            if isinstance(cell.spec, _BatchBundle):
                self._fan_out_bundle(cell.spec, outcome,
                                     on_lane_complete)
            else:
                on_lane_complete(cell, outcome)

        # Dedupe against the cache and within the batch: each distinct
        # run key simulates at most once; every duplicate requester is
        # served the same RunResult from the fan-out loop below.
        todo = {}
        for key, spec in keyed:
            if key in self._runs:
                self.deduped_cached += 1
            elif key in todo:
                self.deduped_in_flight += 1
            else:
                todo[key] = spec
        if backend == "batch":
            work = self._plan_bundles(todo, policy.on_error)
        else:
            work = todo
        try:
            if work:
                pooled = (workers is not None and workers > 1
                          and len(work) > 1)
                if pooled:
                    supervisor = Supervisor(
                        policy, workers, _run_spec_in_worker,
                        self._worker_payload(),
                        self._serial_cell,
                        on_complete=on_complete)
                    pooled = supervisor.run(list(work.items())) \
                        is not None
                if not pooled:
                    self._run_serial(work, policy, on_complete)
        finally:
            if journal is not None:
                journal.close()
        out = []
        for key, spec in keyed:
            out.append(self._runs[key] if key in self._runs
                       else failures[key])
        return out

    def _serial_cell(self, spec):
        """Run one schedulable unit — a plain spec or a lane bundle —
        in this process (the supervisor's serial fallback and the
        no-pool path)."""
        if isinstance(spec, _BatchBundle):
            return self._run_bundle(spec)
        return self.run(spec.benchmark, spec.mode, spec.config,
                        spec.seed)

    def _run_serial(self, todo, policy, on_complete):
        """In-process sweep execution under the same failure policy
        (timeouts cannot be enforced without a pool and are ignored
        here)."""
        for key, spec in todo.items():
            cell = SweepCell(key, spec)
            try:
                result = self._serial_cell(spec)
            except Exception as exc:
                failure = CellFailure.from_exception(
                    spec.benchmark, spec.mode, exc,
                    key_digest=run_key_digest(key))
                on_complete(cell, failure)
                if policy.on_error == "raise":
                    raise
            else:
                on_complete(cell, result)

    # -- batch-lane bundles ----------------------------------------------

    def _plan_bundles(self, todo, on_error):
        """Group the outstanding cells into lane bundles: specs sharing
        (benchmark, mode, run signature) — i.e. one compiled program
        *and* one machine timing, differing only in input seed —
        become one :class:`_BatchBundle` keyed by the tuple of its
        lane keys; singleton groups keep their plain per-cell entry."""
        groups = {}
        work = {}
        for key, spec in todo.items():
            config = spec.config or baseline()
            gkey = (spec.benchmark, spec.mode, config.run_signature())
            groups.setdefault(gkey, []).append((key, spec))
        for members in groups.values():
            if len(members) < 2:
                key, spec = members[0]
                work[key] = spec
                continue
            lane_keys = tuple(key for key, __ in members)
            work[lane_keys] = _BatchBundle(
                members[0][1].benchmark, members[0][1].mode,
                lane_keys, [spec for __, spec in members], on_error)
        return work

    def _run_bundle(self, bundle):
        """Execute one lane bundle: compile once, simulate every lane
        in lockstep, re-run peeled lanes on the scalar kernel.
        Returns per-lane outcomes (RunResult / CellFailure) in
        ``bundle.lane_specs`` order; under ``on_error="raise"`` the
        first lane failure raises instead."""
        from ..sim.batch import run_batch
        config = bundle.lane_specs[0].config or baseline()
        bench = get_benchmark(bundle.benchmark)
        started = time.perf_counter()
        compiled, cache_hit = self._compile_tracked(
            bundle.benchmark, bundle.mode, config)
        compile_share = (time.perf_counter() - started) \
            / len(bundle.lane_specs)
        lane_inputs = [self.inputs_for(bundle.benchmark, spec.seed)
                       for spec in bundle.lane_specs]
        started = time.perf_counter()
        outcome = run_batch(compiled.program, config, lane_inputs,
                            max_cycles=self.max_cycles)
        # Lockstep lanes split the bundle's wall clock evenly: the
        # shared simulation did each lane's work simultaneously, and
        # an even split keeps wall-clock *sums* (aggregate
        # throughput) honest.  Peeled lanes are charged their own
        # scalar re-run instead.
        wall_share = (time.perf_counter() - started) / outcome.lanes
        peeled = len(outcome.peeled)
        results = []
        for lane, spec in enumerate(bundle.lane_specs):
            sim = outcome.results[lane]
            try:
                if sim is None:
                    rerun = self.run(spec.benchmark, spec.mode,
                                     spec.config, spec.seed)
                    result = replace(rerun, backend="batch-peeled",
                                     lanes=outcome.lanes,
                                     peeled_lanes=peeled)
                else:
                    verified = True
                    if self.check:
                        problems = bench.check(sim, lane_inputs[lane])
                        if problems:
                            raise VerificationError(
                                spec.benchmark, spec.mode, config.name,
                                problems,
                                signature=run_key_digest(
                                    config.run_signature())[:12],
                                seed=self.seed if spec.seed is None
                                else spec.seed)
                    result = RunResult(
                        spec.benchmark, spec.mode, config, sim.cycles,
                        sim.stats.utilization_table(), sim.stats,
                        compiled, verified,
                        wall_seconds=wall_share,
                        compile_seconds=compile_share,
                        cache_hit=cache_hit, backend="batch",
                        lanes=outcome.lanes, peeled_lanes=peeled)
            except Exception as exc:
                if bundle.on_error == "raise":
                    raise
                result = CellFailure.from_exception(
                    spec.benchmark, spec.mode, exc,
                    key_digest=run_key_digest(bundle.lane_keys[lane]))
            results.append(result)
        return results

    def _fan_out_bundle(self, bundle, outcome, on_lane_complete):
        """Distribute a finished bundle's outcome to its lanes.  A
        list is per-lane outcomes from :meth:`_run_bundle`; anything
        else is a whole-bundle :class:`CellFailure` (worker crash,
        bundle timeout) copied to every lane with its own key
        digest."""
        if isinstance(outcome, list):
            for key, spec, lane_outcome in zip(
                    bundle.lane_keys, bundle.lane_specs, outcome):
                on_lane_complete(SweepCell(key, spec), lane_outcome)
            return
        for key, spec in zip(bundle.lane_keys, bundle.lane_specs):
            lane_failure = CellFailure(
                spec.benchmark, spec.mode, outcome.error_type,
                outcome.message, attempts=outcome.attempts,
                timed_out=outcome.timed_out,
                key_digest=run_key_digest(key),
                reproducer=outcome.reproducer)
            on_lane_complete(SweepCell(key, spec), lane_failure)

    # -- journal replay --------------------------------------------------

    def _journal_header(self):
        """Everything a cell's outcome depends on at the harness level
        (the config level is covered by the per-cell key digest).
        ``sanitize`` is deliberately absent: a sanitized run that does
        not trip is bit-identical to a plain one, so sanitized and
        unsanitized sweeps may share a journal."""
        return {"seed": self.seed, "check": self.check,
                "max_cycles": self.max_cycles}

    def _open_journal(self, journal):
        if journal is None or isinstance(journal, SweepJournal):
            return journal
        return SweepJournal(journal, header=self._journal_header())

    def _replay_from_journal(self, journal, keyed):
        """Rebuild RunResults for every cell of this sweep already
        recorded ok in the journal, so the dedupe pass skips them."""
        for key, spec in keyed:
            if key in self._runs:
                continue
            record = journal.completed(run_key_digest(key))
            if record is None:
                continue
            result = RunResult(
                record["benchmark"], record["mode"],
                spec.config or baseline(), record["cycles"],
                dict(record["utilization"]),
                ReplayedStats(record["stats"],
                              fused_dispatches=record.get(
                                  "fused_dispatches", 0),
                              defuse_reasons=record.get(
                                  "defuse_reasons"),
                              quarantined_blocks=record.get(
                                  "quarantined_blocks", 0)),
                None, record.get("verified", True),
                wall_seconds=record.get("wall_seconds", 0.0),
                compile_seconds=record.get("compile_seconds", 0.0),
                cache_hit=record.get("cache_hit", False),
                replayed=True,
                backend=record.get("backend", "scalar"),
                lanes=record.get("lanes", 1),
                peeled_lanes=record.get("peeled_lanes", 0))
            self._absorb(key, result)

    @staticmethod
    def _coerce_spec(spec):
        if isinstance(spec, RunSpec):
            return spec
        return RunSpec(*spec)

    def _worker_payload(self):
        cache_root = self.disk_cache.root if self.disk_cache is not None \
            else None
        return (self.seed, self.check, self.max_cycles, cache_root,
                self.sanitize)

    def _absorb(self, key, result):
        """Merge one worker result into the run and compile caches."""
        self._runs[key] = result
        if result.compiled is not None:
            ckey = (result.benchmark, result.mode,
                    result.config.schedule_signature())
            self._compiled.setdefault(ckey, result.compiled)


def _journal_record(result):
    """The JSON-serializable slice of a RunResult a journal keeps —
    enough to rebuild everything the report generators read."""
    return {"benchmark": result.benchmark, "mode": result.mode,
            "cycles": result.cycles,
            "utilization": dict(result.utilization),
            "stats": result.stats.summary(),
            "fused_dispatches":
                getattr(result.stats, "fused_dispatches", 0),
            "defuse_reasons":
                dict(getattr(result.stats, "defuse_reasons", None) or {}),
            "quarantined_blocks":
                getattr(result.stats, "quarantined_blocks", 0),
            "verified": result.verified,
            "wall_seconds": result.wall_seconds,
            "compile_seconds": result.compile_seconds,
            "cache_hit": result.cache_hit,
            "backend": result.backend,
            "lanes": result.lanes,
            "peeled_lanes": result.peeled_lanes}


class _BatchBundle:
    """One schedulable lane bundle: ≥2 specs sharing a
    compiled program and run signature, simulated in lockstep by
    :func:`repro.sim.batch.run_batch`.  Rides the supervisor (and the
    process pool) as a single cell — ``benchmark``/``mode`` are the
    shared ones, satisfying the supervisor's failure-reporting
    surface — keyed by the tuple of its lane run keys."""

    __slots__ = ("benchmark", "mode", "lane_keys", "lane_specs",
                 "on_error")

    def __init__(self, benchmark, mode, lane_keys, lane_specs,
                 on_error):
        self.benchmark = benchmark
        self.mode = mode
        self.lane_keys = lane_keys
        self.lane_specs = lane_specs
        self.on_error = on_error

    def __repr__(self):
        return "_BatchBundle(%s/%s x%d)" % (self.benchmark, self.mode,
                                            len(self.lane_specs))


def _run_spec_in_worker(payload, spec):
    """Process-pool entry point: rebuild a harness and run one spec
    (or one lane bundle, which returns a per-lane outcome list).  The
    chaos hook fires only here — never in the parent — so the
    serial-fallback path completes cells whose workers always die."""
    chaos_if_requested(spec.benchmark, spec.mode)
    seed, check, max_cycles, cache_root, sanitize = payload
    cache = CompileCache(cache_root) if cache_root is not None else None
    harness = Harness(seed=seed, check=check, max_cycles=max_cycles,
                      compile_cache=cache, sanitize=sanitize)
    if isinstance(spec, _BatchBundle):
        return harness._run_bundle(spec)
    return harness.run(spec.benchmark, spec.mode, spec.config, spec.seed)
