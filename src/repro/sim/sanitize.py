"""Online state sanitizer: runtime audits, shadow differential
execution, and graceful de-optimization.

The reproduction's whole premise is that compile-time schedules and
runtime scheduling agree cycle-for-cycle, yet that agreement is
normally checked only offline, by property tests over small programs.
This module makes it checkable *during* any run, in three tiers:

1. **Invariant audits** (:class:`InvariantAuditor`) — cheap strided
   checks of the architectural protocol itself: every register
   presence bit cleared for writeback has exactly one in-flight
   producer (and vice versa), the completion and memory heaps are
   monotone and hold no overdue events, no parked thread or memory
   reference has lost its wake condition, the opcache fill board is
   consistent with per-unit fills, and no ready thread starves past a
   bound under round-robin arbitration.

2. **Shadow differential execution** (:func:`run_sanitized` at level
   ``shadow``/``deep``) — the fused event kernel runs in strided
   lockstep against an unfused reference kernel; both pause at the
   same cycle boundaries and their canonical states are compared
   component by component (:func:`diff_components`).  The first
   mismatched component pins the divergence to a stride window and to
   the superblocks dispatched inside it.

3. **Triage and graceful de-optimization** — on any trip the suspect
   superblock entries are quarantined (:meth:`EventNode.
   quarantine_block` tombstones them in the BlockTable), the run rolls
   back to the last verified snapshot and continues *un-fused over
   those spans* instead of dying.  A structured :class:`SanitizerReport`
   and a replayable reproducer bundle (``Node.snapshot`` + config +
   seed; see :func:`write_bundle`) are extracted on the first trip;
   ``repro replay <bundle>`` re-executes it deterministically.

The sanitizer is opt-in and engine-neutral: an unsanitized run pays
one ``is None`` test per cycle, and a sanitized run that never trips
returns results bit-identical to a plain one.
"""

import json
import os
import pickle
from dataclasses import dataclass, field

from ..errors import (DivergenceError, InvariantViolation, SanitizerError,
                      SimulationError)
from .node import Node, make_node

#: Recognized sanitizer levels, weakest to strongest.
LEVELS = ("off", "audit", "shadow", "deep")

#: Default directory for reproducer bundles (overridable per policy or
#: via the REPRO_SANITIZE_DIR environment variable).
DEFAULT_REPORT_DIR = "sanitizer-reports"

_BUNDLE_FORMAT = 2

#: Per level, the cycle stride between invariant audits (1 = every
#: cycle) and the lockstep window between shadow state comparisons.
#: ``deep`` is the debugging configuration, not the always-on one.
STRIDES = {"audit": (64, 4096), "shadow": (64, 4096), "deep": (1, 256)}

#: Quarantine-and-retry rounds before a run de-optimizes outright
#: (fusion disabled wholesale).
MAX_REQUARANTINES = 4

#: The round-robin fairness bound: a thread observed continuously ready
#: for this many cycles while others issue trips the audit.
STARVATION_CYCLES = 100_000


@dataclass
class SanitizerPolicy:
    """One sanitized run's level, and where its reproducer bundles go.
    Every other setting follows from the level (:data:`STRIDES`)."""

    level: str = "audit"
    report_dir: str = None

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError("unknown sanitizer level %r (expected one "
                             "of %s)" % (self.level, ", ".join(LEVELS)))
        if self.report_dir is None:
            self.report_dir = os.environ.get("REPRO_SANITIZE_DIR",
                                             DEFAULT_REPORT_DIR)

    @property
    def audit_stride(self):
        return STRIDES[self.level][0]

    @property
    def shadow_stride(self):
        return STRIDES[self.level][1]

    @property
    def wants_audit(self):
        return self.level in ("audit", "shadow", "deep")

    @property
    def wants_shadow(self):
        return self.level in ("shadow", "deep")


def coerce_policy(policy):
    """None for "off", a :class:`SanitizerPolicy` otherwise."""
    if policy is None or policy == "off":
        return None
    if isinstance(policy, SanitizerPolicy):
        return policy
    if isinstance(policy, str):
        return SanitizerPolicy(level=policy)
    raise TypeError("sanitize policy must be a level name or "
                    "SanitizerPolicy, not %r" % (policy,))


@dataclass
class SanitizerSummary:
    """What the sanitizer did during one run (``SimResult.sanitizer``)."""

    level: str
    audits: int = 0
    shadow_checks: int = 0
    trips: int = 0
    requarantines: int = 0
    quarantined: list = field(default_factory=list)
    reports: list = field(default_factory=list)   # bundle paths
    de_optimized: bool = False

    def as_dict(self):
        return {"level": self.level, "audits": self.audits,
                "shadow_checks": self.shadow_checks, "trips": self.trips,
                "requarantines": self.requarantines,
                "quarantined": [list(entry) for entry in self.quarantined],
                "reports": list(self.reports),
                "de_optimized": self.de_optimized}


@dataclass
class SanitizerReport:
    """Structured record of one sanitizer trip.

    ``kind`` is "invariant" or "divergence"; ``window`` the cycle span
    the trip was localized to; ``suspects`` the (program, entry_ip)
    superblock entries dispatched inside it; ``components`` the
    canonical-state components that differed; ``delta`` a
    bounded, human-readable state diff; ``violations`` the failed
    invariant checks (invariant kind only).
    """

    kind: str
    cycle: int
    window: tuple
    engine: str
    program: str
    config: str
    seed: object
    threads: list
    suspects: list
    quarantined: list
    defuse_reasons: dict
    components: list
    delta: list
    violations: list

    def as_dict(self):
        return {"kind": self.kind, "cycle": self.cycle,
                "window": list(self.window), "engine": self.engine,
                "program": self.program, "config": self.config,
                "seed": self.seed, "threads": list(self.threads),
                "suspects": [list(s) for s in self.suspects],
                "quarantined": [list(q) for q in self.quarantined],
                "defuse_reasons": dict(self.defuse_reasons),
                "components": list(self.components),
                "delta": list(self.delta),
                "violations": list(self.violations)}

    def render(self):
        lines = ["sanitizer trip: %s at cycle %d (window %d..%d)"
                 % (self.kind, self.cycle, self.window[0], self.window[1]),
                 "program %s on %s (engine=%s seed=%s)"
                 % (self.program, self.config, self.engine, self.seed)]
        if self.threads:
            lines.append("threads: %s"
                         % ", ".join("%d (%s)" % (tid, name)
                                     for tid, name in self.threads))
        if self.suspects:
            lines.append("suspect spans: %s"
                         % ", ".join("%s@%d" % tuple(s)
                                     for s in self.suspects))
        if self.components:
            lines.append("mismatched components: "
                         + ", ".join(self.components))
        for line in self.delta:
            lines.append("  " + line)
        for line in self.violations:
            lines.append("violation: " + line)
        if self.defuse_reasons:
            lines.append("de-fusion counters: "
                         + ", ".join("%s=%d" % pair for pair
                                     in sorted(self.defuse_reasons.items())))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Tier 1: invariant audits
# ---------------------------------------------------------------------------


class InvariantAuditor:
    """Strided architectural-invariant checker, attached as
    ``node.sanitizer``.  The kernels call :meth:`check` at the end of
    any cycle >= ``next_cycle``; a failed audit raises
    :class:`InvariantViolation` out of the simulation loop.
    """

    def __init__(self, policy, summary=None):
        self.policy = policy
        self.summary = summary
        self.next_cycle = 0
        self._starve = {}        # tid -> (own issued, total issued, since)

    def rewind(self, cycle=0):
        """Forget audit state after a rollback restore (issue counters
        rolled back with the snapshot, so stale marks would lie)."""
        self.next_cycle = cycle
        self._starve.clear()

    def check(self, node, cycle):
        self.next_cycle = cycle + self.policy.audit_stride
        if self.summary is not None:
            self.summary.audits += 1
        violations = audit_node(node, cycle=cycle, auditor=self)
        if violations:
            shown = "; ".join(violations[:3])
            if len(violations) > 3:
                shown += " (+%d more)" % (len(violations) - 3)
            raise InvariantViolation(
                "state sanitizer: %d invariant violation(s) at cycle %d: "
                "%s" % (len(violations), cycle, shown),
                cycle=cycle, violations=violations)


def audit_node(node, cycle=None, auditor=None):
    """Run every tier-1 invariant audit against ``node``; return the
    list of violation descriptions (empty = clean).

    Must be called at a cycle boundary — after the kernel finished a
    full five-phase iteration and incremented the cycle counter — where
    the protocol guarantees every due event has drained.
    """
    if cycle is None:
        cycle = node.cycle
    violations = []
    _audit_presence(node, violations)
    _audit_heaps(node, cycle, violations)
    _audit_writebacks(node, violations)
    _audit_wakeups(node, violations)
    _audit_memory(node, violations)
    _audit_fill_board(node, violations)
    if auditor is not None:
        _audit_starvation(node, cycle, auditor, violations)
    return violations


def _producer_bits(node):
    """(tid, cluster) -> bitmask of register slots with an in-flight
    producer: a pipelined result, a buffered writeback, or a load
    anywhere in the memory system."""
    producers = {}

    def add(tid, cluster, bit):
        key = (tid, cluster)
        producers[key] = producers.get(key, 0) | bit

    pipe = getattr(node, "_pipe", None)
    if pipe is not None:                       # event kernel
        for entry in pipe:
            thread, plan = entry[3], entry[4]
            for cluster, index, bit in plan.dest_triples:
                add(thread.tid, cluster, bit)
        units = node._units_list
    else:                                      # scan kernel
        units = [node.units[uid] for uid in node.unit_order]
        for unit in units:
            for __, __, inflight in unit._pipeline:
                for dest in inflight.op.dests:
                    add(inflight.thread.tid, dest.cluster,
                        1 << dest.index)
    for unit in units:
        for entry in unit.writebacks:
            for dest in entry.dests:
                add(entry.thread.tid, dest.cluster, 1 << dest.index)
    memory = node.memory
    pending = [request for __, __, request in memory._in_flight]
    for queue in memory._queues.values():
        pending.extend(queue)
    for waiters in memory._parked.values():
        pending.extend(waiters)
    for request in pending:
        if request.spec.is_load:
            for dest in request.op.dests:
                add(request.thread.tid, dest.cluster, 1 << dest.index)
    return producers


def _audit_presence(node, violations):
    """Two-sided presence audit: every invalid (awaiting-writeback)
    register bit has an in-flight producer, and every in-flight
    producer targets an invalid bit (the WAW interlock means a valid
    destination can have nothing in flight toward it)."""
    producers = _producer_bits(node)
    seen = set()
    for thread in node.active + node.finished:
        for cluster, frame in thread.frames.items():
            key = (thread.tid, cluster)
            seen.add(key)
            inflight = producers.get(key, 0)
            orphans = frame._invalid & ~inflight
            if orphans:
                violations.append(
                    "thread %d (%s) cluster %d: presence bits %s await "
                    "writeback with no in-flight producer (lost result)"
                    % (thread.tid, thread.name, cluster,
                       _bits(orphans)))
            ghosts = inflight & ~frame._invalid
            if ghosts:
                violations.append(
                    "thread %d (%s) cluster %d: in-flight producer "
                    "targets valid registers %s (presence bit set early "
                    "or duplicated producer)"
                    % (thread.tid, thread.name, cluster, _bits(ghosts)))
    for (tid, cluster), mask in producers.items():
        if (tid, cluster) not in seen and mask:
            violations.append(
                "in-flight producer for unknown frame (thread %d, "
                "cluster %d)" % (tid, cluster))


def _audit_heaps(node, cycle, violations):
    """Heap order and monotonicity: every timed queue is a valid heap
    and holds no event already overdue (the loop gates guarantee due
    events drain before the cycle counter advances)."""
    pipe = getattr(node, "_pipe", None)
    if pipe is not None:
        _check_heap(pipe, "completion heap", cycle, violations)
    else:
        for uid in node.unit_order:
            _check_heap(node.units[uid]._pipeline,
                        "unit %s pipeline" % uid, cycle, violations)
    memory = node.memory
    _check_heap(memory._in_flight, "memory in-flight heap", cycle,
                violations)
    _check_heap(memory._deferred_bits, "deferred presence heap", cycle,
                violations)


def _check_heap(heap, label, cycle, violations):
    for index, entry in enumerate(heap):
        if entry[0] < cycle:
            violations.append(
                "%s: overdue event (ready %d < cycle %d) never drained"
                % (label, entry[0], cycle))
            break
    n = len(heap)
    for index in range(n):
        for child in (2 * index + 1, 2 * index + 2):
            if child < n and heap[child][:2] < heap[index][:2]:
                violations.append(
                    "%s: heap order broken at index %d" % (label, index))
                return


def _audit_writebacks(node, violations):
    """Event kernel: the cached writeback count and pending-unit set
    must mirror the per-unit buffers exactly (a skew silently drops or
    double-grants results)."""
    if not hasattr(node, "_wb_count"):
        return
    actual = sum(len(unit.writebacks) for unit in node._units_list)
    if node._wb_count != actual:
        violations.append(
            "writeback count skew: cached %d, buffered %d"
            % (node._wb_count, actual))
    with_entries = {unit.index for unit in node._units_list
                    if unit.writebacks}
    if with_entries != node._wb_pending:
        violations.append(
            "writeback pending-set skew: buffers on %s, pending %s"
            % (sorted(with_entries), sorted(node._wb_pending)))


def _plan_ready(thread, plan):
    frames = thread.frames
    single = plan.single_wait
    if single is not None:
        frame = frames.get(single[0])
        return frame is None or not (frame._invalid & single[1])
    for cluster, mask in plan.wait_groups:
        frame = frames.get(cluster)
        if frame is not None and frame._invalid & mask:
            return False
    return True


def _audit_wakeups(node, violations):
    """No lost wakeups: every parked thread must have a pending plan
    blocked on a presence bit (whose producer the presence audit has
    already vouched for).  The scan kernel never parks a thread."""
    for thread in node.active:
        if not thread.parked:
            continue
        plans = thread.pending_plans
        if not plans:
            violations.append(
                "thread %d (%s) parked with no pending plans (lost "
                "wakeup)" % (thread.tid, thread.name))
            continue
        if all(_plan_ready(thread, plan) for plan in plans):
            violations.append(
                "thread %d (%s) parked while every pending plan is "
                "ready (lost wakeup)" % (thread.tid, thread.name))


def _audit_memory(node, violations):
    """Memory protocol: busy set mirrors the in-flight heap, non-empty
    queues always shadow a busy address, and parked references
    genuinely have unmet preconditions (a satisfied waiter that was
    never reactivated is a lost memory wakeup)."""
    memory = node.memory
    in_service = {request.addr for __, __, request in memory._in_flight}
    if in_service != memory._busy:
        violations.append(
            "memory busy-set skew: in service %s, busy %s"
            % (sorted(in_service), sorted(memory._busy)))
    for addr, queue in memory._queues.items():
        if queue and addr not in memory._busy:
            violations.append(
                "memory queue on idle address %d never restarted "
                "(lost service)" % addr)
    for addr, waiters in memory._parked.items():
        for request in waiters:
            if memory._precondition_met(request):
                violations.append(
                    "parked %s(thread %d) at addr %d has its "
                    "precondition met but was never reactivated "
                    "(lost memory wakeup)"
                    % (request.op.name, request.thread.tid, addr))
                break


def _audit_fill_board(node, violations):
    """Opcache fill board: every shared in-flight fill must be owned
    by at least one unit whose private fill table agrees on the ready
    cycle (a stale board entry makes joiners wait on a fill that will
    never land)."""
    if node.config.op_cache is None:
        return
    units = [node.units[uid] for uid in node.unit_order]
    board = None
    for unit in units:
        if unit.opcache is not None:
            board = unit.opcache._board
            break
    if not board:
        return
    for key, ready in board.items():
        owned = any(unit.opcache is not None
                    and unit.opcache._fills.get(key) == ready
                    for unit in units)
        if not owned:
            violations.append(
                "fill board entry %r (ready %d) has no owning unit "
                "fill (stale board entry)" % (key, ready))


def _issued_by_tid(node):
    counts = dict(node.stats.issued_by_thread)
    batch = getattr(node, "_issued_tids", None)
    if batch:
        for tid, count in batch.items():
            counts[tid] = counts.get(tid, 0) + count
    return counts


def _thread_ready_now(node, thread):
    if thread.parked or thread.halted or thread.control_inflight:
        return False
    if thread.pending_plans:
        return any(_plan_ready(thread, plan)
                   for plan in thread.pending_plans)
    if thread.pending:
        return any(thread.sources_ready(op)
                   for op in thread.pending.values())
    return False


def _audit_starvation(node, cycle, auditor, violations):
    """Round-robin starvation bound: a thread observed ready-to-issue
    at every audit across :data:`STARVATION_CYCLES` cycles, issuing
    nothing while other threads issue, violates round-robin's fairness
    guarantee.  (Priority arbitration starves by design; not audited.)
    """
    if node.arbiter.name != "round-robin":
        return
    marks = auditor._starve
    counts = _issued_by_tid(node)
    total = sum(counts.values())
    bound = STARVATION_CYCLES
    live = set()
    for thread in node.active:
        tid = thread.tid
        live.add(tid)
        own = counts.get(tid, 0)
        if not _thread_ready_now(node, thread):
            marks.pop(tid, None)
            continue
        mark = marks.get(tid)
        if mark is None or own != mark[0]:
            marks[tid] = (own, total, cycle)
            continue
        mark_own, mark_total, since = mark
        if total > mark_total and cycle - since >= bound:
            violations.append(
                "thread %d (%s) ready for %d cycles under round-robin "
                "while %d other issues went through (starvation)"
                % (tid, thread.name, cycle - since, total - mark_total))
            marks[tid] = (own, total, cycle)
    for tid in list(marks):
        if tid not in live:
            del marks[tid]


def _bits(mask):
    out = []
    index = 0
    while mask:
        if mask & 1:
            out.append(index)
        mask >>= 1
        index += 1
    return out


# ---------------------------------------------------------------------------
# Tier 2: canonical state, component diffs, deltas
# ---------------------------------------------------------------------------


def canonical_state(node):
    """The node's architecturally visible state as plain comparable
    structures, keyed by component.

    Engine bookkeeping that legitimately differs between the fused and
    unfused kernels (heap sequence counters, park hints, fast-forward
    diagnostics, and the engine counters that
    :meth:`~repro.sim.stats.Stats.architectural` leaves out) is
    deliberately excluded: two bit-identical runs must produce equal
    components even across the fused/unfused divide.
    """
    return {
        "cycle": node.cycle,
        "stats": node.stats.architectural(),
        "threads": tuple(_thread_state(thread) for thread in
                         sorted(node.active + node.finished,
                                key=lambda t: t.tid)),
        "memory": _memory_state(node.memory),
        "inflight": _inflight_state(node),
        "rng": repr(node.rng.getstate()),
    }


def diff_components(a, b):
    """The canonical-state components on which nodes ``a`` and ``b``
    disagree (empty list = architecturally identical)."""
    sa, sb = canonical_state(a), canonical_state(b)
    return [name for name in sa if sa[name] != sb[name]]


def state_delta(a, b, limit=16):
    """A bounded list of human-readable leaf differences between two
    nodes' canonical states — the report's "minimal state delta"."""
    lines = []

    def walk(path, x, y):
        if len(lines) >= limit:
            return
        if type(x) is not type(y):
            lines.append("%s: %r != %r" % (path, x, y))
        elif isinstance(x, dict):
            for key in sorted(set(x) | set(y), key=repr):
                if len(lines) >= limit:
                    return
                if key not in x:
                    lines.append("%s[%r]: missing != %r" % (path, key,
                                                            y[key]))
                elif key not in y:
                    lines.append("%s[%r]: %r != missing" % (path, key,
                                                            x[key]))
                elif x[key] != y[key]:
                    walk("%s[%r]" % (path, key), x[key], y[key])
        elif isinstance(x, (tuple, list)):
            if len(x) != len(y):
                lines.append("%s: length %d != %d" % (path, len(x),
                                                      len(y)))
            for index, (xi, yi) in enumerate(zip(x, y)):
                if len(lines) >= limit:
                    return
                if xi != yi:
                    walk("%s[%d]" % (path, index), xi, yi)
        elif x != y:
            lines.append("%s: %r != %r" % (path, x, y))

    for name, x in canonical_state(a).items():
        walk(name, x, canonical_state(b)[name])
        if len(lines) >= limit:
            break
    return lines


def _thread_state(thread):
    frames = []
    for cluster in sorted(thread.frames):
        frame = thread.frames[cluster]
        values = tuple((index, frame._values[index]
                        if index < len(frame._values) else 0)
                       for index in _bits(frame._used))
        frames.append((cluster, frame._invalid, frame._used, values))
    if thread.pending_plans:
        pending = tuple(plan.uid for plan in thread.pending_plans)
    else:
        pending = tuple(sorted(thread.pending))
    return (thread.tid, thread.name, thread.ip, thread.next_ip,
            thread.state, thread.halted, bool(thread.control_inflight),
            pending, tuple(frames))


def _memory_state(memory):
    in_flight = tuple(
        (ready, seq, request.addr, request.op.name, request.thread.tid,
         request.arrival)
        for ready, seq, request in sorted(memory._in_flight,
                                          key=lambda e: e[:2]))
    queues = tuple(
        (addr, tuple((r.op.name, r.thread.tid, r.arrival)
                     for r in memory._queues[addr]))
        for addr in sorted(memory._queues) if memory._queues[addr])
    parked = tuple(
        (addr, tuple(sorted((r.op.name, r.thread.tid, r.arrival)
                            for r in memory._parked[addr])))
        for addr in sorted(memory._parked) if memory._parked[addr])
    deferred = tuple(sorted((ready, seq, addr, post) for
                            ready, seq, addr, post
                            in memory._deferred_bits))
    return (tuple(sorted(memory._values.items())),
            tuple(sorted(memory._empty)),
            tuple(sorted(memory._busy)),
            in_flight, queues, parked, deferred,
            tuple(sorted(memory._last_touch.items())),
            memory._seq, memory._arrivals)


def _payload_sig(plan, payload):
    if plan.is_memory:
        return ("mem", payload.addr, payload.store_value)
    return repr(payload)


def _inflight_state(node):
    pipe = getattr(node, "_pipe", None)
    if pipe is not None:
        # Heap sequence numbers are engine bookkeeping (fused spans
        # bypass the pipe, skewing them between kernels); (ready,
        # unit) is already unique — one issue per unit per cycle at a
        # fixed per-unit latency.
        pipe_sig = tuple(
            (entry[0], entry[1], entry[3].tid, entry[4].uid,
             _payload_sig(entry[4], entry[5]))
            for entry in sorted(pipe, key=lambda e: e[:2]))
        units = node._units_list
    else:
        rows = []
        for uid in node.unit_order:
            for ready, __, inflight in sorted(
                    node.units[uid]._pipeline, key=lambda e: e[:2]):
                rows.append((ready, uid, inflight.thread.tid,
                             inflight.op.name))
        pipe_sig = tuple(rows)
        units = [node.units[uid] for uid in node.unit_order]
    writebacks = tuple(
        (unit.slot.uid, tuple((entry.thread.tid, entry.op.name,
                               entry.value,
                               tuple((d.cluster, d.index)
                                     for d in entry.dests))
                              for entry in unit.writebacks))
        for unit in units if unit.writebacks)
    fills = ()
    if node.config.op_cache is not None:
        fills = tuple(
            (unit.slot.uid, tuple(sorted(unit.opcache._fills.items())),
             tuple(sorted(unit.opcache._lines)))
            for unit in units if unit.opcache is not None)
    spawns = tuple((program.name,
                    tuple((repr(reg), value) for reg, value in bindings),
                    priority)
                   for program, bindings, priority in node._spawn_queue)
    return (pipe_sig, writebacks, fills, spawns, node._next_tid,
            getattr(node.arbiter, "_next", None))


# ---------------------------------------------------------------------------
# Reproducer bundles
# ---------------------------------------------------------------------------


def write_bundle(report, snapshot, policy, max_cycles, watchdog_cycles):
    """Extract a replayable reproducer: ``meta.json`` (report, seed,
    cycle budgets, level) plus the pickled ``Node.snapshot``.  Returns
    the bundle directory path.  Snapshots pickle cleanly because
    ``BlockTable.__reduce__`` drops compiled closures and recompiles
    lazily on the replaying side."""
    base = os.path.join(policy.report_dir,
                        "%s-%s-cycle%d" % (report.program, report.kind,
                                           report.cycle))
    path = base
    attempt = 1
    while os.path.exists(path):
        attempt += 1
        path = "%s-%d" % (base, attempt)
    os.makedirs(path)
    meta = {"format": _BUNDLE_FORMAT, "kind": report.kind,
            "level": policy.level, "engine": report.engine,
            "seed": report.seed, "max_cycles": max_cycles,
            "watchdog_cycles": watchdog_cycles,
            "report": report.as_dict()}
    with open(os.path.join(path, "meta.json"), "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(path, "snapshot.pkl"), "wb") as handle:
        pickle.dump(snapshot, handle)
    return path


def load_bundle(path):
    """(meta dict, snapshot) from a bundle directory."""
    with open(os.path.join(path, "meta.json")) as handle:
        meta = json.load(handle)
    if meta.get("format") != _BUNDLE_FORMAT:
        raise SanitizerError("bundle %s has format %r; this build reads "
                             "format %d" % (path, meta.get("format"),
                                            _BUNDLE_FORMAT))
    with open(os.path.join(path, "snapshot.pkl"), "rb") as handle:
        snapshot = pickle.load(handle)
    return meta, snapshot


def replay_bundle(path, out=None, max_cycles=None, trace=False):
    """Deterministically re-execute a reproducer bundle.

    Divergence bundles restore the snapshot twice — fused and unfused
    — run both to completion, and report whether the divergence
    reproduces (it does for deterministic miscompiles; a trip caused
    by transient in-memory corruption recompiles clean and is reported
    as such).  Invariant bundles resume the corrupt state under a
    per-cycle auditor and report the re-trip.  Returns a verdict dict.
    """
    emit = out if out is not None else print
    meta, snapshot = load_bundle(path)
    report = meta["report"]
    emit("replaying %s bundle from %s (engine=%s seed=%s)"
         % (meta["kind"], path, meta["engine"], meta["seed"]))
    emit("original trip: cycle %d, window %d..%d"
         % (report["cycle"], report["window"][0], report["window"][1]))
    budget = max_cycles if max_cycles is not None else meta["max_cycles"]
    watchdog = meta.get("watchdog_cycles")
    if meta["kind"] == "invariant":
        node = Node.restore(snapshot)
        policy = SanitizerPolicy(level="deep")
        node.sanitizer = InvariantAuditor(policy)
        node.sanitizer.next_cycle = node.cycle
        try:
            node.resume(max_cycles=budget, watchdog_cycles=watchdog)
        except InvariantViolation as exc:
            emit("reproduced: %s" % exc)
            return {"reproduced": True, "kind": "invariant",
                    "error": str(exc)}
        except SimulationError as exc:
            emit("reproduced (as %s): %s" % (type(exc).__name__, exc))
            return {"reproduced": True, "kind": "invariant",
                    "error": str(exc)}
        emit("not reproduced: the resumed run completed clean")
        return {"reproduced": False, "kind": "invariant"}
    recorder = None
    observer = None
    if trace:
        from .trace import TraceRecorder
        recorder = observer = TraceRecorder()
    fused = Node.restore(snapshot)
    unfused_snap = dict(snapshot)
    unfused_snap["config"] = snapshot["config"].with_fusion(False)
    unfused = Node.restore(unfused_snap, observer=observer)
    outcomes = {}
    for label, node in (("fused", fused), ("unfused", unfused)):
        try:
            node.resume(max_cycles=budget, watchdog_cycles=watchdog)
            outcomes[label] = None
        except SimulationError as exc:
            outcomes[label] = "%s: %s" % (type(exc).__name__, exc)
    if outcomes["fused"] or outcomes["unfused"]:
        emit("fused: %s" % (outcomes["fused"] or "completed"))
        emit("unfused: %s" % (outcomes["unfused"] or "completed"))
        reproduced = outcomes["fused"] != outcomes["unfused"]
    else:
        mismatch = diff_components(fused, unfused)
        reproduced = bool(mismatch)
        if mismatch:
            emit("reproduced: fused and unfused runs diverge on %s"
                 % ", ".join(mismatch))
            for line in state_delta(fused, unfused):
                emit("  " + line)
        else:
            emit("not reproduced: recompiled superblocks match the "
                 "reference (the original trip captured transient "
                 "in-memory corruption, not a deterministic miscompile)")
    if recorder is not None and recorder.issues:
        from .trace import render_timeline
        emit("reference (unfused) schedule entering the divergence "
             "window:")
        emit(render_timeline(recorder, snapshot["config"], last=48))
    return {"reproduced": reproduced, "kind": "divergence",
            "outcomes": outcomes}


# ---------------------------------------------------------------------------
# Tier 2+3 driver
# ---------------------------------------------------------------------------


def run_sanitized(program, config, overrides=None, max_cycles=5_000_000,
                  watchdog_cycles=None, observer=None, policy="audit",
                  tamper=None):
    """Run ``program`` under the sanitizer; same contract and results
    as :func:`~repro.sim.node.run_program` unless a tier trips.

    ``tamper`` is a test hook: called with the primary node after its
    first cycle, before shadow stepping begins — tests use it to plant
    a deliberately miscompiled superblock and prove the shadow tier
    catches, quarantines, and reports it.
    """
    policy = coerce_policy(policy)
    if policy is None:
        node = make_node(config, observer=observer)
        return node.run(program, overrides=overrides,
                        max_cycles=max_cycles,
                        watchdog_cycles=watchdog_cycles)
    summary = SanitizerSummary(level=policy.level)
    primary = make_node(config, observer=observer)
    auditor = None
    if policy.wants_audit:
        auditor = InvariantAuditor(policy, summary)
        primary.sanitizer = auditor
    shadowing = (policy.wants_shadow and primary.engine == "event"
                 and getattr(primary, "_fusion", False))
    if not shadowing:
        try:
            result = primary.run(program, overrides=overrides,
                                 max_cycles=max_cycles,
                                 watchdog_cycles=watchdog_cycles)
        except InvariantViolation as exc:
            _attach_invariant_bundle(exc, primary, policy, summary,
                                     max_cycles, watchdog_cycles)
            raise
        result.sanitizer = summary
        return result
    return _run_shadowed(program, config, overrides, max_cycles,
                         watchdog_cycles, observer, policy, summary,
                         primary, auditor, tamper)


def _attach_invariant_bundle(exc, node, policy, summary, max_cycles,
                             watchdog_cycles):
    """Bundle the corrupt state an invariant audit caught and attach
    the report + path to the in-flight exception."""
    summary.trips += 1
    report = _build_report(
        kind="invariant", node=node,
        window=(max(0, node.cycle - policy.audit_stride), node.cycle),
        suspects=_recent_suspects(node), quarantined=(),
        components=(), delta=(),
        violations=getattr(exc, "violations", ()))
    path = write_bundle(report, node.snapshot(), policy, max_cycles,
                        watchdog_cycles)
    summary.reports.append(path)
    exc.report = report.as_dict()
    exc.bundle_path = path


def _recent_suspects(node):
    last = getattr(node, "_last_fused", None)
    return tuple(last[1]) if last is not None else ()


def _build_report(kind, node, window, suspects, quarantined, components,
                  delta, violations):
    stats = node.stats
    return SanitizerReport(
        kind=kind, cycle=node.cycle, window=tuple(window),
        engine=node.engine, program=node._program.main,
        config=node.config.name, seed=node.config.seed,
        threads=[(thread.tid, thread.name) for thread in node.active],
        suspects=[tuple(s) for s in suspects],
        quarantined=[tuple(q) for q in quarantined],
        defuse_reasons=dict(getattr(stats, "defuse_reasons", {})),
        components=list(components), delta=list(delta),
        violations=list(violations))


def _restore_node(snap, config, observer=None):
    if config is not snap["config"]:
        snap = dict(snap)
        snap["config"] = config
    return Node.restore(snap, observer=observer)


def _run_shadowed(program, config, overrides, max_cycles,
                  watchdog_cycles, observer, policy, summary, primary,
                  auditor, tamper):
    shadow_config = config.with_fusion(False)
    shadow = make_node(shadow_config)
    stride = policy.shadow_stride
    dispatch_log = []
    primary._dispatch_log = dispatch_log
    quarantined = set()
    defused = False

    def step(node, bound):
        return node.resume(max_cycles=max_cycles,
                           watchdog_cycles=watchdog_cycles, pause_at=bound)

    # Load the program and run one cycle on both nodes before the first
    # snapshot, so every rollback (and every bundle) resumes a loaded
    # machine.  The primary runs that cycle unfused, so it cannot trip:
    # a re-run dispatches superblocks the reuse slot holds at first
    # sight, and no snapshot precedes this cycle to roll back to.
    primary._fusion = False
    rp, rs = (node.run(program, overrides=overrides, max_cycles=max_cycles,
                       watchdog_cycles=watchdog_cycles, pause_at=1)
              for node in (primary, shadow))
    primary._fusion = True
    if tamper is not None:
        tamper(primary)
    if rp is not None and rs is not None:
        rp.sanitizer = summary
        return rp

    while True:
        last_good = primary.snapshot()
        start_cycle = primary.cycle
        boundary = start_cycle + stride
        del dispatch_log[:]
        rp = rs = None
        p_exc = s_exc = None
        try:
            rp = step(primary, boundary)
        except SimulationError as exc:
            p_exc = exc
        try:
            rs = step(shadow, boundary)
        except SimulationError as exc:
            s_exc = exc
        summary.shadow_checks += 1
        if p_exc is None and s_exc is None:
            mismatch = diff_components(primary, shadow)
            if not mismatch and (rp is None) == (rs is None):
                if rp is not None:
                    rp.sanitizer = summary
                    return rp
                continue
        elif p_exc is not None and s_exc is not None \
                and type(p_exc) is type(s_exc) \
                and primary.cycle == shadow.cycle:
            # Both kernels fail the same way at the same cycle: the
            # program itself is at fault, not the fused path.  The
            # primary's exception carries the fusion context.
            raise p_exc
        else:
            mismatch = ["outcome"]

        # ---- trip: triage, quarantine, roll back, retry -------------
        summary.trips += 1
        kind = "invariant" if isinstance(p_exc, InvariantViolation) \
            else "divergence"
        violations = getattr(p_exc, "violations", ()) \
            if p_exc is not None else ()
        if p_exc is not None and not isinstance(p_exc, SanitizerError):
            mismatch = ["outcome"]
            violations = ["primary raised %s where the shadow %s: %s"
                          % (type(p_exc).__name__,
                             "paused" if s_exc is None else "raised %s"
                             % type(s_exc).__name__, p_exc)]
        delta = state_delta(primary, shadow) \
            if p_exc is None and s_exc is None else []
        suspects = sorted(set(dispatch_log))
        if not summary.reports:
            report = _build_report(
                kind=kind, node=primary,
                window=(start_cycle, primary.cycle),
                suspects=suspects, quarantined=sorted(quarantined),
                components=mismatch, delta=delta,
                violations=violations)
            path = write_bundle(report, last_good, policy, max_cycles,
                                watchdog_cycles)
            summary.reports.append(path)
        if defused:
            # Fusion is already fully off and the divergence persists:
            # it cannot be the fused path's fault.  Surface it.
            message = ("state sanitizer: divergence persists with "
                       "fusion disabled (components: %s) — corrupt "
                       "state, not a miscompiled superblock"
                       % ", ".join(mismatch))
            if p_exc is not None:
                raise p_exc
            raise DivergenceError(message,
                                  bundle_path=summary.reports[0])
        fresh = [entry for entry in suspects if entry not in quarantined]
        if fresh and summary.requarantines < MAX_REQUARANTINES:
            quarantined.update(fresh)
            summary.requarantines += 1
        else:
            defused = True
            summary.de_optimized = True
        primary = _restore_node(last_good, config, observer)
        primary._dispatch_log = dispatch_log
        if auditor is not None:
            auditor.rewind(primary.cycle)
            primary.sanitizer = auditor
        for name, entry_ip in sorted(quarantined):
            primary.quarantine_block(name, entry_ip)
        if defused:
            primary._fusion = False
        summary.quarantined = sorted(quarantined)
        shadow = _restore_node(last_good, shadow_config)
