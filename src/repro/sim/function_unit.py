"""Runtime state of one function unit.

Each unit holds an operation buffer with a pending operation from every
active thread (modelled centrally by the thread contexts), a fully
pipelined execution path (one issue per cycle, results after
``latency`` cycles), and a writeback buffer for results that are waiting
for a register-file port or bus.
"""

import heapq
from dataclasses import dataclass


@dataclass(slots=True)
class InFlight:
    """An issued operation travelling down the unit's pipeline."""

    thread: object
    op: object
    payload: object     # ALU result / MemRequest ingredients / branch info


@dataclass(slots=True)
class WritebackEntry:
    """A computed result waiting to be written to register files."""

    thread: object
    op: object
    value: object
    dests: list


class FunctionUnitState:
    """Mutable per-run state attached to one configured unit slot."""

    def __init__(self, slot, opcache=None):
        self.slot = slot
        self._pipeline = []          # heap of (ready, seq, InFlight)
        self._seq = 0
        self.writebacks = []         # WritebackEntry FIFO
        self.issued_this_cycle = False
        self.opcache = opcache       # None = perfect operation cache
        self.index = None            # position in the node's unit table
        self.latency = slot.latency  # hoisted for the event kernel

    @property
    def uid(self):
        return self.slot.uid

    @property
    def cluster(self):
        return self.slot.cluster

    @property
    def kind(self):
        return self.slot.kind

    def push(self, cycle, thread, op, payload):
        """Accept one issued operation; result ready after latency."""
        self._seq += 1
        heapq.heappush(self._pipeline,
                       (cycle + self.slot.latency, self._seq,
                        InFlight(thread, op, payload)))

    def pop_ready(self, cycle):
        """Remove and return operations whose pipeline delay elapsed."""
        ready = []
        while self._pipeline and self._pipeline[0][0] <= cycle:
            __, __, entry = heapq.heappop(self._pipeline)
            ready.append(entry)
        return ready

    def busy(self):
        return bool(self._pipeline) or bool(self.writebacks)
