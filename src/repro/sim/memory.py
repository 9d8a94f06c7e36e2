"""Simulated node memory: presence bits, synchronizing accesses, and a
statistical latency model.

Every location carries a valid (presence) bit.  The six load/store
flavors of the paper's Table 1 check a precondition against that bit and
apply a postcondition on completion.  References whose precondition is
not met are *held in the memory system* and reactivate when a subsequent
reference changes the location's bit (split-transaction protocol), so
the issuing memory unit is free to serve other operations.

Latency is statistical (hit latency, miss rate, uniform miss penalty);
banks are interleaved and conflict-free, exactly as the paper assumes —
but references to the *same address* are serialized in arrival order,
which both matches real hardware and makes producer/consumer and
atomic-update idioms deterministic.
"""

import heapq
from collections import deque
from dataclasses import dataclass

from ..errors import SimulationError
from ..isa.operations import (POST_EMPTY, POST_FULL, POST_KEEP, PRE_ALWAYS,
                              PRE_EMPTY, PRE_FULL)


@dataclass(slots=True)
class MemRequest:
    """One in-progress memory reference.

    ``spec`` caches the resolved :class:`OpcodeSpec` so the memory
    system's hot paths never repeat the registry lookup behind
    ``op.spec``; both kernels pass it at construction (and
    ``__post_init__`` backfills it for hand-built requests).
    """

    thread: object
    op: object
    unit_slot: object
    addr: int
    store_value: object = None
    submit_cycle: int = 0
    value: object = None          # filled in for loads on completion
    arrival: int = 0              # arrival sequence number (FIFO key)
    spec: object = None           # resolved op.spec (cached)

    def __post_init__(self):
        if self.spec is None:
            self.spec = self.op.spec

    @property
    def is_load(self):
        return self.spec.is_load


class MemorySystem:
    """The node's interleaved, presence-bit-synchronized memory."""

    def __init__(self, spec, rng, stats, size=65536, injector=None):
        self.spec = spec
        self.rng = rng
        self.stats = stats
        self.size = size
        self.injector = injector      # optional FaultInjector
        self._values = {}
        self._empty = set()
        self._busy = set()            # addresses with a reference in service
        self._queues = {}             # addr -> deque of waiting requests
        self._parked = {}             # addr -> list of precondition waiters
        self._in_flight = []          # heap of (ready, seq, request)
        self._deferred_bits = []      # heap of (ready, seq, addr, post)
        self._last_touch = {}         # addr -> tid of last completed access
        self._seq = 0
        self._arrivals = 0

    # -- direct access (loader / result readout) ------------------------

    def poke(self, addr, value, full=True):
        self._check_addr(addr)
        self._values[addr] = value
        if full:
            self._empty.discard(addr)
        else:
            self._empty.add(addr)

    def peek(self, addr):
        self._check_addr(addr)
        return self._values.get(addr, 0)

    def is_full(self, addr):
        return addr not in self._empty

    def _check_addr(self, addr):
        if not 0 <= addr < self.size:
            raise SimulationError("address %r out of range [0, %d)"
                                  % (addr, self.size))

    # -- request lifecycle ----------------------------------------------

    def submit(self, request, cycle):
        """Accept a reference from a memory unit at the given cycle."""
        self._check_addr(request.addr)
        request.submit_cycle = cycle
        self._arrivals += 1
        request.arrival = self._arrivals
        addr = request.addr
        if addr in self._busy or self._queues.get(addr):
            self._queues.setdefault(addr, deque()).append(request)
            self.stats.memory_queue_waits += 1
        else:
            self._begin_service(request, cycle)

    def _precondition_met(self, request):
        pre = request.spec.precondition
        if pre == PRE_ALWAYS:
            return True
        if pre == PRE_FULL:
            return self.is_full(request.addr)
        if pre == PRE_EMPTY:
            return not self.is_full(request.addr)
        raise AssertionError("unknown precondition %r" % pre)

    def _begin_service(self, request, cycle):
        if not self._precondition_met(request):
            self._parked.setdefault(request.addr, []).append(request)
            self.stats.memory_parked += 1
            return
        self._busy.add(request.addr)
        latency = self.spec.draw_latency(self.rng)
        self.stats.memory_accesses += 1
        if latency > self.spec.hit_latency:
            self.stats.memory_misses += 1
        if self.injector is not None:
            latency += self.injector.memory_stall(request.addr, cycle)
        self._seq += 1
        heapq.heappush(self._in_flight,
                       (cycle + latency - 1, self._seq, request))

    def _apply(self, request, cycle):
        """Perform the access and apply the Table 1 postcondition.
        Returns True when the presence bit changed.  A presence_stall
        fault defers the bit update (the access itself completes)."""
        addr = request.addr
        was_full = addr not in self._empty
        spec = request.spec
        if spec.is_load:
            request.value = self._values.get(addr, 0)
        else:
            self._values[addr] = request.store_value
        self._last_touch[addr] = request.thread.tid
        post = spec.postcondition
        if post not in (POST_FULL, POST_EMPTY):
            if post != POST_KEEP:
                raise AssertionError("unknown postcondition %r" % post)
            return False
        if self.injector is not None:
            delay = self.injector.presence_delay(addr, cycle)
            if delay:
                self._seq += 1
                heapq.heappush(self._deferred_bits,
                               (cycle + delay, self._seq, addr, post))
                return False
        if post == POST_FULL:
            self._empty.discard(addr)
        else:
            self._empty.add(addr)
        return self.is_full(addr) != was_full

    def tick(self, cycle):
        """Advance one cycle; return the requests completed this cycle
        (loads carry their value)."""
        completed = []
        changed_addrs = []
        while self._deferred_bits and self._deferred_bits[0][0] <= cycle:
            __, __, addr, post = heapq.heappop(self._deferred_bits)
            was_full = self.is_full(addr)
            if post == POST_FULL:
                self._empty.discard(addr)
            else:
                self._empty.add(addr)
            if self.is_full(addr) != was_full:
                changed_addrs.append(addr)
        while self._in_flight and self._in_flight[0][0] <= cycle:
            __, __, request = heapq.heappop(self._in_flight)
            if self._apply(request, cycle):
                changed_addrs.append(request.addr)
            self._busy.discard(request.addr)
            completed.append(request)
        # A changed presence bit reactivates parked references: they
        # rejoin the service queue, which stays ordered by arrival so a
        # reference that arrived first is retried first.
        for addr in changed_addrs:
            waiters = self._parked.pop(addr, None)
            if waiters:
                queue = self._queues.get(addr, deque())
                merged = sorted(list(queue) + waiters,
                                key=lambda r: r.arrival)
                self._queues[addr] = deque(merged)
        # Start service for queued references on now-free addresses;
        # service begins next cycle (per-address serialization).
        for addr in [a for a, q in self._queues.items() if q]:
            while addr not in self._busy and self._queues.get(addr):
                request = self._queues[addr].popleft()
                self._begin_service(request, cycle + 1)
            if not self._queues.get(addr):
                self._queues.pop(addr, None)
        return completed

    # -- state inspection -------------------------------------------------

    def idle(self):
        """True when nothing is in flight, queued, parked, or deferred."""
        return (not self._in_flight and not self._parked
                and not self._deferred_bits
                and not any(self._queues.values()))

    def has_in_flight(self):
        return bool(self._in_flight) or bool(self._deferred_bits)

    def next_event_cycle(self):
        """Earliest cycle an in-flight reference completes or a deferred
        presence-bit update lands, or None when neither is pending."""
        wake = self._in_flight[0][0] if self._in_flight else None
        if self._deferred_bits:
            deferred = self._deferred_bits[0][0]
            wake = deferred if wake is None else min(wake, deferred)
        return wake

    def parked_summary(self):
        """Describe parked references (for deadlock diagnostics)."""
        lines = []
        for addr, waiters in sorted(self._parked.items()):
            state = "full" if self.is_full(addr) else "empty"
            ops = ", ".join("%s(thread %s)" % (w.op.name, w.thread.tid)
                            for w in waiters)
            lines.append("addr %d (%s): %s" % (addr, state, ops))
        return lines

    def wait_edges(self):
        """Wait-for edges for deadlock diagnostics: one
        ``(waiter_tid, addr, state, wanted, owner_tid)`` tuple per
        parked reference, where ``owner_tid`` is the thread whose
        completed access last touched the address (None if untouched) —
        the thread that put the location into its unsatisfying state."""
        edges = []
        for addr, waiters in sorted(self._parked.items()):
            state = "full" if self.is_full(addr) else "empty"
            for request in waiters:
                wanted = "full" if request.spec.precondition == PRE_FULL \
                    else "empty"
                edges.append((request.thread.tid, addr, state, wanted,
                              self._last_touch.get(addr)))
        return edges

    def read_range(self, base, size):
        return [self._values.get(addr, 0)
                for addr in range(base, base + size)]

    def presence_range(self, base, size):
        return [self.is_full(addr) for addr in range(base, base + size)]
