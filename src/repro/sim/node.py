"""The processor-coupled node simulator.

Functional-level, cycle-accurate in the paper's sense: it counts cycles
and operations exactly under the stated rules —

* every function unit can issue one operation per cycle, chosen among
  the pending operations of all active threads (cycle-by-cycle
  arbitration);
* an operation issues only when its source presence bits are set and
  every operation of the thread's previous instruction word has issued
  (in-order issue, out-of-order completion);
* issuing clears the destination presence bit; writeback sets it, and
  must win a register-file port/bus under the configured interconnect
  scheme;
* memory references flow through the split-transaction memory system
  with Table 1 synchronization and statistical latency.
"""

import copy
import random
from collections import deque
from dataclasses import dataclass

from ..errors import (ConfigError, DeadlockError, SimulationError,
                      WatchdogError)
from ..isa.operations import UnitClass
from .arbitration import make_arbiter
from .faults import FaultInjector
from .function_unit import FunctionUnitState, WritebackEntry
from .interconnect import WritebackNetwork
from .loader import load_memory, validate_program
from .memory import MemRequest, MemorySystem
from .opcache import OperationCache
from .stats import Stats
from .thread import ThreadContext


@dataclass
class SimResult:
    """Everything an experiment needs after a run.

    ``sanitizer`` is None for plain runs; a sanitized run
    (:func:`repro.sim.sanitize.run_sanitized`) attaches its
    :class:`~repro.sim.sanitize.SanitizerSummary` here.
    """

    stats: object
    memory: object
    program: object
    config: object
    threads: list
    sanitizer: object = None

    @property
    def cycles(self):
        return self.stats.cycles

    def outcome(self):
        """The run's answer, keyed by component: cycles, every
        statistic but the engine counters (:meth:`Stats.architectural`),
        memory values and presence bits.  Two runs are the same run when
        their outcomes are equal; the scan, event, fused and batch
        kernels must agree on it bit for bit."""
        return {"cycles": self.cycles,
                "stats": self.stats.architectural(),
                "memory": dict(self.memory._values),
                "presence": set(self.memory._empty)}

    def read_symbol(self, name):
        sym = self.program.data[name]
        return self.memory.read_range(sym.base, sym.size)

    def symbol_presence(self, name):
        sym = self.program.data[name]
        return self.memory.presence_range(sym.base, sym.size)

    def thread_stats(self):
        """Per-thread (name, spawn, finish, issued ops) rows."""
        rows = []
        for thread in self.threads:
            rows.append({
                "tid": thread.tid,
                "name": thread.name,
                "spawn": thread.spawn_cycle,
                "finish": thread.finish_cycle,
                "operations": self.stats.issued_by_thread[thread.tid],
            })
        return rows


class Node:
    """One simulation of one program on one machine configuration.

    This class is the *scan* kernel, the reference the other kernels
    must match bit for bit: every cycle it rescans all active threads
    and units, and it never skips a cycle.  The event kernel
    (:class:`~repro.sim.event.EventNode`) subclasses it and overrides
    the hot loop; use :func:`make_node` (or :func:`run_program`) to get
    the kernel the configuration asks for.
    """

    MAX_THREADS = 4096
    engine = "scan"

    def __init__(self, config, observer=None):
        self.config = config
        self.observer = observer
        self.stats = Stats(unit_counts={kind.value: config.count(kind)
                                        for kind in UnitClass})
        self.rng = random.Random(config.seed)
        fill_board = {} if config.op_cache is not None else None
        self.units = {
            slot.uid: FunctionUnitState(
                slot,
                opcache=OperationCache(config.op_cache, self.stats,
                                       fill_board=fill_board)
                if config.op_cache is not None else None)
            for slot in config.units}
        self.unit_order = [slot.uid for slot in config.units]
        self.network = WritebackNetwork(config.interconnect,
                                        config.n_clusters, self.stats)
        self.injector = None
        if getattr(config, "fault_plan", None) is not None:
            self.injector = FaultInjector(config.fault_plan, self.stats)
        self.memory = MemorySystem(config.memory, self.rng, self.stats,
                                   size=config.memory_size,
                                   injector=self.injector)
        self.arbiter = make_arbiter(config.arbitration)
        self.active = []
        self.finished = []
        self._spawn_queue = deque()
        self._next_tid = 0
        self.cycle = 0
        self._frozen = 0
        self._last_progress = 0
        self._fault_stalled = False
        self._program = None
        # Optional runtime invariant auditor (repro.sim.sanitize); not
        # snapshot state — the sanitize driver re-attaches it after a
        # restore.  The per-cycle cost when unset is one None test.
        self.sanitizer = None

    # -- thread management ----------------------------------------------

    def spawn(self, thread_program, bindings=(), priority=None):
        limit = self.config.max_active_threads
        if limit is not None and len(self.active) >= limit:
            # The active set is full: the new thread waits for a slot
            # (its argument values were captured at fork issue).
            self._spawn_queue.append((thread_program, bindings, priority))
            self.stats.spawn_queue_waits += 1
            return None
        if self._next_tid >= self.MAX_THREADS:
            raise SimulationError("thread limit (%d) exceeded; runaway "
                                  "fork?" % self.MAX_THREADS)
        thread = ThreadContext(self._next_tid, thread_program,
                               priority=priority, spawn_cycle=self.cycle)
        self._next_tid += 1
        for child_reg, value in bindings:
            thread.frame(child_reg.cluster).force(child_reg.index, value)
        self.active.append(thread)
        self.stats.threads_spawned += 1
        self.stats.thread_spawn_cycle[thread.tid] = self.cycle
        self.stats.peak_active_threads = max(self.stats.peak_active_threads,
                                             len(self.active))
        if self.observer is not None:
            self.observer("spawn", cycle=self.cycle, thread=thread)
        return thread

    # -- per-phase helpers ------------------------------------------------

    def _complete_units(self):
        """Phase 1: drain unit pipelines; route results onward."""
        count = 0
        for uid in self.unit_order:
            unit = self.units[uid]
            for entry in unit.pop_ready(self.cycle):
                count += 1
                spec = entry.op.spec
                if spec.is_memory:
                    self.memory.submit(entry.payload, self.cycle)
                elif spec.unit is UnitClass.BRU:
                    self._resolve_control(entry.thread, entry.op,
                                          entry.payload)
                else:
                    unit.writebacks.append(WritebackEntry(
                        entry.thread, entry.op, entry.payload,
                        list(entry.op.dests)))
        return count

    def _resolve_control(self, thread, op, payload):
        kind = payload[0]
        if kind == "jump":
            thread.next_ip = payload[1]
        elif kind == "fork":
            __, name, bindings = payload
            child_program = self._program.thread(name)
            self.spawn(child_program, bindings)
        elif kind == "halt":
            thread.halted = True
            if self.observer is not None:
                self.observer("halt", cycle=self.cycle, thread=thread)
        else:
            raise AssertionError("unknown control payload %r" % (kind,))
        thread.control_inflight = False

    def _complete_memory(self):
        """Phase 2: tick the memory system; loads join writeback."""
        completed = self.memory.tick(self.cycle)
        for request in completed:
            if request.is_load:
                unit = self.units[request.unit_slot.uid]
                unit.writebacks.append(WritebackEntry(
                    request.thread, request.op, request.value,
                    list(request.op.dests)))
        return len(completed)

    def _write_back(self):
        """Phase 3: arbitrate ports/buses and commit results."""
        self.network.new_cycle()
        wrote = 0
        for uid in self.unit_order:
            unit = self.units[uid]
            if self.injector is not None and unit.writebacks \
                    and self.injector.writeback_blocked(uid, self.cycle):
                # Fault: the unit's results cannot claim a port this
                # cycle; they stay buffered and retry the interconnect.
                self.stats.fault_writeback_stalls += len(unit.writebacks)
                continue
            remaining = []
            for entry in unit.writebacks:
                kept = []
                for dest in entry.dests:
                    if self.network.try_grant(unit.cluster, dest.cluster):
                        entry.thread.frame(dest.cluster).write(dest.index,
                                                               entry.value)
                        wrote += 1
                    else:
                        kept.append(dest)
                entry.dests = kept
                if kept:
                    remaining.append(entry)
            unit.writebacks = remaining
        return wrote

    def _advance_threads(self):
        """Phase 4: instruction-pointer management."""
        still_active = []
        for thread in self.active:
            if thread.word_done():
                if thread.advance():
                    still_active.append(thread)
                else:
                    thread.finish_cycle = self.cycle
                    self.stats.thread_finish_cycle[thread.tid] = self.cycle
                    self.stats.threads_finished += 1
                    self.finished.append(thread)
            else:
                still_active.append(thread)
        self.active = still_active
        limit = self.config.max_active_threads
        while self._spawn_queue and (limit is None
                                     or len(self.active) < limit):
            program, bindings, priority = self._spawn_queue.popleft()
            self.spawn(program, bindings, priority)

    def _issue(self):
        """Phase 5: per-unit arbitration and operation issue."""
        issued = 0
        claimed = set()
        self._fault_stalled = False
        for thread in self.arbiter.order(self.active, self.cycle):
            for uid, op in list(thread.pending.items()):
                if not thread.sources_ready(op):
                    continue
                unit = self.units[uid]
                if self.injector is not None \
                        and self.injector.unit_offline(uid, self.cycle):
                    unit = self._reroute_target(unit, claimed)
                    if unit is None:
                        # The op waits for the fault window to close (or
                        # for a surviving unit to free up) — that is
                        # pending work, not a deadlock; the watchdog
                        # covers a window that never closes.
                        self.stats.fault_issue_stalls += 1
                        self._fault_stalled = True
                        continue
                if unit.opcache is not None \
                        and not unit.opcache.ready(thread, self.cycle):
                    continue            # operation-cache fill in progress
                if unit.uid in claimed:
                    self.stats.arbitration_losses += 1
                    continue
                if unit.uid != uid:
                    self.stats.fault_reroutes += 1
                self._issue_one(unit, thread, op, home_uid=uid)
                claimed.add(unit.uid)
                issued += 1
        return issued

    def _reroute_target(self, unit, claimed):
        """Graceful degradation: pick a surviving unit of the same
        class for an operation whose scheduled unit is offline.  This
        is runtime rescheduling — the arbiter repairing a static
        schedule the compiler could not have known would break."""
        if not self.injector.reroute:
            return None
        for uid in self.unit_order:
            candidate = self.units[uid]
            if candidate.kind is not unit.kind or uid in claimed:
                continue
            if self.injector.unit_offline(uid, self.cycle):
                continue
            return candidate
        return None

    def _issue_one(self, unit, thread, op, home_uid=None):
        values = thread.capture_sources(op)
        spec = op.spec
        if spec.is_memory:
            if spec.is_load:
                addr = int(values[0]) + int(values[1])
                payload = MemRequest(thread, op, unit.slot, addr, spec=spec)
            else:
                addr = int(values[1]) + int(values[2])
                payload = MemRequest(thread, op, unit.slot, addr,
                                     store_value=values[0], spec=spec)
        elif spec.unit is UnitClass.BRU:
            payload = self._control_payload(thread, op, values)
            thread.control_inflight = True
        else:
            try:
                payload = spec.semantics(*values)
            except ArithmeticError as exc:
                raise SimulationError(
                    "thread %s: %s%r raised %s at cycle %d"
                    % (thread.name, op.name, tuple(values), exc, self.cycle))
        for dest in op.dests:
            thread.frame(dest.cluster).invalidate(dest.index)
        del thread.pending[home_uid if home_uid is not None else unit.uid]
        unit.push(self.cycle, thread, op, payload)
        self.stats.record_issue(unit.slot, thread.tid)
        if self.observer is not None:
            self.observer("issue", cycle=self.cycle, thread=thread,
                          unit=unit.uid, op=op)

    def _control_payload(self, thread, op, values):
        if op.spec.is_halt:
            return ("halt",)
        if op.spec.is_fork:
            return ("fork", op.target.name, thread.capture_bindings(op))
        if op.name == "br":
            return ("jump", thread.program.resolve(op.target))
        taken = bool(values[0]) if op.name == "brt" else not values[0]
        if taken:
            return ("jump", thread.program.resolve(op.target))
        return ("jump", None)

    # -- main loop ---------------------------------------------------------

    def run(self, program, overrides=None, max_cycles=5_000_000,
            watchdog_cycles=None, pause_at=None):
        """Simulate ``program`` to completion and return a SimResult.

        ``watchdog_cycles`` (optional) raises :class:`WatchdogError`
        when no operation issues, completes, or writes back for that
        many consecutive cycles while work is nominally in flight
        (livelock).  ``pause_at`` (optional) suspends the run once the
        cycle counter reaches it and returns None; the node can then be
        snapshot() and later resume()d.
        """
        validate_program(program, self.config)
        self._program = program
        self._prepare(program)
        load_memory(self.memory, program, overrides)
        self.spawn(program.thread(program.main))
        return self._loop(max_cycles, watchdog_cycles, pause_at)

    def _prepare(self, program):
        """Hook for per-program setup before the first spawn (the event
        kernel predecodes here)."""

    def resume(self, max_cycles=5_000_000, watchdog_cycles=None,
               pause_at=None):
        """Continue a paused or restored run; same contract as run()."""
        if self._program is None:
            raise SimulationError("resume() before run(): no program "
                                  "loaded")
        return self._loop(max_cycles, watchdog_cycles, pause_at)

    def _loop(self, max_cycles, watchdog_cycles=None, pause_at=None):
        while True:
            completed = self._complete_units()
            completed += self._complete_memory()
            wrote = self._write_back()
            self._advance_threads()
            issued = self._issue()
            self.cycle += 1
            self.stats.cycles = self.cycle
            san = self.sanitizer
            if san is not None and self.cycle >= san.next_cycle:
                san.check(self, self.cycle)
            if issued or completed or wrote:
                self._last_progress = self.cycle
            if not self.active and not self._spawn_queue \
                    and self.memory.idle() \
                    and not any(self.units[uid].busy()
                                for uid in self.unit_order):
                break
            if self.cycle >= max_cycles:
                raise self._watchdog_error(
                    "exceeded %d cycles (program %s on %s)"
                    % (max_cycles, self._program.main, self.config.name))
            if issued == 0 and completed == 0 and wrote == 0 \
                    and not (self._fault_stalled
                             or self.memory.has_in_flight()
                             or any(self.units[uid].busy()
                                    for uid in self.unit_order)
                             or any(self.units[uid].opcache is not None
                                    and self.units[uid].opcache._fills
                                    for uid in self.unit_order)):
                self._frozen += 1
                if self._frozen >= 2:
                    self._raise_deadlock()
            else:
                self._frozen = 0
            if watchdog_cycles is not None \
                    and self.cycle - self._last_progress >= watchdog_cycles:
                raise self._watchdog_error(
                    "livelock: no operation issued, completed, or wrote "
                    "back for %d cycles (program %s on %s)"
                    % (watchdog_cycles, self._program.main,
                       self.config.name))
            if pause_at is not None and self.cycle >= pause_at:
                return None
        return SimResult(self.stats, self.memory, self._program,
                         self.config, self.finished + self.active)

    # -- diagnostics -------------------------------------------------------

    def _blocked_report(self):
        """(tid, name, word, reason) for every thread that exists but
        cannot currently run to completion."""
        return [(thread.tid, thread.name, thread.ip,
                 thread.stall_reason()) for thread in self.active]

    def _fusion_context(self):
        """Superblock-fusion state for error reports; the scan kernel
        (and the unfused event kernel) has none."""
        return None

    def _fusion_report_lines(self, context):
        if context is None:
            return []
        lines = ["superblock fusion context:"]
        last = context.get("last_dispatch")
        if last is not None:
            spans = "+".join("%s@%d" % part for part in last[1])
            lines.append("  last fused dispatch: %s %s at cycle %d"
                         % (last[0], spans, last[2]))
        else:
            lines.append("  no superblock dispatched yet")
        reasons = context.get("defuse_reasons")
        if reasons:
            inner = ", ".join("%s=%d" % pair
                              for pair in sorted(reasons.items()))
            lines.append("  de-fusion reasons: " + inner)
        quarantined = context.get("quarantined")
        if quarantined:
            lines.append("  quarantined entries: %s"
                         % ", ".join("%s@%d" % entry
                                     for entry in quarantined))
        ladder = context.get("mt_ladder")
        if ladder:
            lines.append("  interleaved ladder: "
                         + ", ".join("%s=%s" % pair
                                     for pair in sorted(ladder.items())))
        return lines

    def _watchdog_error(self, headline):
        lines = [headline,
                 "cut at cycle %d; last forward progress at cycle %d"
                 % (self.cycle, self._last_progress)]
        blocked = self._blocked_report()
        for tid, name, word, reason in blocked:
            lines.append("thread %d (%s) at word %d: %s"
                         % (tid, name, word, reason))
        if self._spawn_queue:
            lines.append("%d forked threads waiting for an active-set "
                         "slot" % len(self._spawn_queue))
        parked = self.memory.parked_summary()
        if parked:
            lines.append("parked memory references:")
            lines.extend("  " + line for line in parked)
        fusion = self._fusion_context()
        lines.extend(self._fusion_report_lines(fusion))
        return WatchdogError("\n".join(lines), cycle=self.cycle,
                             last_progress_cycle=self._last_progress,
                             blocked=blocked, fusion=fusion)

    def _raise_deadlock(self):
        lines = ["deadlock at cycle %d" % self.cycle]
        if self._spawn_queue:
            lines.append("%d forked threads waiting for an active-set "
                         "slot" % len(self._spawn_queue))
        blocked = self._blocked_report()
        for tid, name, word, reason in blocked:
            lines.append("thread %d (%s) at word %d: %s"
                         % (tid, name, word, reason))
        lines.extend(self.memory.parked_summary())
        wait_for = self._wait_for_cycle()
        if wait_for:
            lines.append("wait-for cycle: " + " -> ".join(wait_for))
        fusion = self._fusion_context()
        lines.extend(self._fusion_report_lines(fusion))
        raise DeadlockError("\n".join(lines), blocked=blocked,
                            wait_for=wait_for, fusion=fusion)

    def _wait_for_cycle(self):
        """Detect a cycle in the wait-for graph built from parked
        memory references: thread -> address it waits on -> thread
        whose access left the address in its unsatisfying state.
        Returns the cycle as alternating thread/address labels, or []
        when the deadlock is a dangling wait with no cycle."""
        names = {thread.tid: thread.name
                 for thread in self.active + self.finished}
        edges = {}                    # waiter tid -> [(addr label, owner)]
        for tid, addr, state, wanted, owner in self.memory.wait_edges():
            if owner is None or owner == tid:
                continue
            label = "addr %d (%s, wants %s)" % (addr, state, wanted)
            edges.setdefault(tid, []).append((label, owner))
        for start in sorted(edges):
            path, hops = [start], []
            seen = {start}
            tid = start
            while tid in edges:
                label, owner = edges[tid][0]
                hops.append(label)
                if owner in seen:
                    # Close the loop at the repeated thread.
                    cut = path.index(owner)
                    ring = path[cut:] + [owner]
                    out = []
                    for i, node_tid in enumerate(ring[:-1]):
                        out.append("thread %d (%s)"
                                   % (node_tid,
                                      names.get(node_tid, "?")))
                        out.append(hops[cut + i])
                    out.append("thread %d (%s)"
                               % (ring[-1], names.get(ring[-1], "?")))
                    return out
                path.append(owner)
                seen.add(owner)
                tid = owner
        return []

    # -- checkpoint / restore ---------------------------------------------

    _SNAPSHOT_FIELDS = ("stats", "rng", "units", "network", "memory",
                        "arbiter", "active", "finished", "_spawn_queue",
                        "_next_tid", "cycle", "_frozen", "_last_progress",
                        "_program")

    def _snapshot_memo(self):
        """Deepcopy memo pinning immutable/shared objects so snapshots
        copy only the mutable simulation state."""
        memo = {id(self.config): self.config}
        for slot in self.config.units:
            memo[id(slot)] = slot
            memo[id(slot.spec)] = slot.spec
        if self.observer is not None:
            memo[id(self.observer)] = self.observer
        return memo

    def snapshot(self):
        """A deep-copied, resumable checkpoint of the run.

        Take it between run(pause_at=...) pauses (or before run); feed
        it to :meth:`restore` to continue on a fresh node.  The copy
        includes the RNG stream, so a restored run is bit-identical to
        the uninterrupted one.
        """
        state = copy.deepcopy(
            {name: getattr(self, name) for name in self._SNAPSHOT_FIELDS},
            self._snapshot_memo())
        state["config"] = self.config
        state["engine"] = self.engine
        return state

    @classmethod
    def restore(cls, snap, observer=None):
        """Rebuild a node from a :meth:`snapshot`; resume() continues
        the run.  The snapshot is copied, so it can be restored again.

        Called on :class:`Node` itself, this dispatches to the kernel
        class the snapshot was taken from (snapshots carry
        kernel-specific state, so the classes are not interchangeable).
        """
        if cls is Node and snap.get("engine", "scan") != "scan":
            return node_class_for_engine(snap["engine"]).restore(
                snap, observer=observer)
        node = cls(snap["config"], observer=observer)
        state = copy.deepcopy(
            {name: snap[name] for name in cls._SNAPSHOT_FIELDS},
            node._snapshot_memo())
        for name, value in state.items():
            setattr(node, name, value)
        # __init__ built fresh cross-linked helpers; re-link them to
        # the restored state (stats/rng identity is preserved inside
        # one deepcopy call, but the injector was built against the
        # fresh stats object).
        if node.injector is not None:
            node.injector = FaultInjector(node.config.fault_plan,
                                          node.stats)
        node.memory.injector = node.injector
        node._after_restore()
        return node

    def _after_restore(self):
        """Hook: re-derive state that restore() replaced wholesale (the
        event kernel rebuilds its unit table and arbiter order here)."""


def node_class_for_engine(engine):
    """The kernel class implementing ``engine`` ("event" or "scan")."""
    if engine == "scan":
        return Node
    if engine == "event":
        from .event import EventNode   # deferred: event.py subclasses Node
        return EventNode
    raise ConfigError("unknown simulator engine %r" % (engine,))


def make_node(config, observer=None):
    """Build a node running the kernel ``config.engine`` selects."""
    cls = node_class_for_engine(config.engine)
    return cls(config, observer=observer)


def run_program(program, config, overrides=None, max_cycles=5_000_000,
                observer=None, watchdog_cycles=None, sanitize=None):
    """Convenience wrapper: simulate ``program`` on ``config`` with the
    kernel ``config.engine`` selects (``config.with_engine("scan")``
    runs the cycle-by-cycle reference kernel).

    ``sanitize`` (a level name or :class:`~repro.sim.sanitize.
    SanitizerPolicy`) routes the run through the online state sanitizer
    — invariant audits, shadow differential execution, and graceful
    de-optimization; see :mod:`repro.sim.sanitize`.  The results are
    identical to an unsanitized run unless the sanitizer trips.
    """
    if sanitize is not None and sanitize != "off":
        from .sanitize import run_sanitized
        return run_sanitized(program, config, overrides=overrides,
                             max_cycles=max_cycles,
                             watchdog_cycles=watchdog_cycles,
                             observer=observer, policy=sanitize)
    node = make_node(config, observer=observer)
    return node.run(program, overrides=overrides, max_cycles=max_cycles,
                    watchdog_cycles=watchdog_cycles)
