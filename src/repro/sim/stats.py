"""Execution statistics gathered by the node simulator.

The paper reports dynamic cycle count, operation count, and function
unit utilization (average operations executed per cycle per unit class);
this module collects those plus memory, interconnect, and arbitration
detail used by the later experiments.
"""

from collections import Counter

from ..isa.operations import UnitClass

#: Engine-bookkeeping counters on :class:`Stats` that are *not*
#: architectural quantities: they differ between the fused and unfused
#: kernels by design, and a re-run's depend on what ran before it.
#: :meth:`Stats.architectural` leaves them out, and :meth:`Stats.summary`
#: never reports them.
_ENGINE_FIELDS = ("fused_dispatches", "defuse_reasons",
                  "quarantined_blocks")


class Stats:
    """Mutable counters filled in during simulation.

    ``unit_counts`` maps unit-class names (``"iu"``, ``"fpu"``, ...) to
    the number of units of that class in the machine; :meth:`summary`
    uses it to normalize per-class utilization into [0, 1].  An empty
    dict (bare ``Stats()``) leaves the values unnormalized.
    """

    def __init__(self, unit_counts=None):
        self.unit_counts = dict(unit_counts or {})
        self.cycles = 0
        self.issued_by_kind = Counter()
        self.issued_by_unit = Counter()
        self.issued_by_thread = Counter()
        self.total_operations = 0
        self.arbitration_losses = 0
        self.writeback_conflicts = 0
        self.writeback_grants = 0
        self.memory_accesses = 0
        self.memory_misses = 0
        self.memory_parked = 0
        self.memory_queue_waits = 0
        self.opcache_misses = 0
        self.fault_reroutes = 0
        self.fault_issue_stalls = 0
        self.fault_writeback_stalls = 0
        self.fault_mem_stall_cycles = 0
        self.fault_blackout_stalls = 0
        self.fault_presence_stalls = 0
        self.spawn_queue_waits = 0
        # Superblock dispatches executed by the fused event kernel.  An
        # engine implementation detail, not an architectural quantity:
        # absent from summary() and architectural(), so fused and
        # unfused runs compare equal (see _ENGINE_FIELDS).
        self.fused_dispatches = 0
        # Why fusion declined to dispatch, by reason (same engine-only
        # status as fused_dispatches).  The counted sites are the
        # guards a block passed warmup for but failed at dispatch time;
        # the ubiquitous "thread not at a block entry" case is not
        # counted — it would dominate every profile with noise.
        self.defuse_reasons = Counter()
        # Superblock entries quarantined by the sanitizer (the count of
        # distinct (program, entry) pairs barred from dispatch).
        self.quarantined_blocks = 0
        self.threads_spawned = 0
        self.threads_finished = 0
        self.peak_active_threads = 0
        self.thread_spawn_cycle = {}
        self.thread_finish_cycle = {}

    # -- recording ------------------------------------------------------

    def record_issue(self, unit_slot, thread_id):
        self.issued_by_kind[unit_slot.kind] += 1
        self.issued_by_unit[unit_slot.uid] += 1
        self.issued_by_thread[thread_id] += 1
        self.total_operations += 1

    # -- reporting ------------------------------------------------------

    def architectural(self):
        """Every field but the engine counters, as a plain dict: what
        two runs of one program on one machine must agree on, whichever
        kernel ran them.  Counters become plain dicts, so a zero entry
        differs from a missing one."""
        return {key: dict(value) if isinstance(value, dict) else value
                for key, value in vars(self).items()
                if key not in _ENGINE_FIELDS}

    def utilization(self, kind):
        """Average operations of this unit class executed per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.issued_by_kind[kind] / float(self.cycles)

    def utilization_table(self):
        """Utilization per unit class, keyed by the class *name*
        (``"iu"``, ``"fpu"``, ``"mem"``, ``"bru"``) so the table — and
        everything built on it — serializes straight to JSON."""
        return {kind.value: self.utilization(kind) for kind in UnitClass}

    def summary(self):
        """A flat, JSON-serializable digest of the run (plain string
        keys, int/float values only — ``json.dumps(stats.summary())``
        must always work; ``repro bench`` and the experiment reports
        dump it raw).

        Per-class ``*_util`` values are *normalized*: average busy
        fraction per unit of the class, in [0, 1] (the raw ops/cycle
        table — which can exceed 1.0 with several units per class — is
        :meth:`utilization_table`).  The raw per-class issue counts are
        reported under ``*_issued``."""
        util = self.utilization_table()

        def norm(kind):
            count = self.unit_counts.get(kind.value, 1) or 1
            return util[kind.value] / count

        return {
            "cycles": self.cycles,
            "operations": self.total_operations,
            "fpu_util": norm(UnitClass.FPU),
            "iu_util": norm(UnitClass.IU),
            "mem_util": norm(UnitClass.MEM),
            "bru_util": norm(UnitClass.BRU),
            "fpu_issued": self.issued_by_kind[UnitClass.FPU],
            "iu_issued": self.issued_by_kind[UnitClass.IU],
            "mem_issued": self.issued_by_kind[UnitClass.MEM],
            "bru_issued": self.issued_by_kind[UnitClass.BRU],
            "threads": self.threads_spawned,
            "memory_accesses": self.memory_accesses,
            "memory_misses": self.memory_misses,
            "memory_parked": self.memory_parked,
            "memory_queue_waits": self.memory_queue_waits,
            "writeback_conflicts": self.writeback_conflicts,
            "arbitration_losses": self.arbitration_losses,
            "opcache_misses": self.opcache_misses,
            "fault_reroutes": self.fault_reroutes,
            "fault_stall_cycles": self.fault_mem_stall_cycles,
        }

    def __str__(self):
        pairs = sorted(self.summary().items())
        return ", ".join("%s=%s" % (k, round(v, 3) if isinstance(v, float)
                                    else v) for k, v in pairs)
