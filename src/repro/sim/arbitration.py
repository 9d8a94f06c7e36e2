"""Thread arbitration policies for function-unit contention.

When several threads compete for a given function unit, one is granted
use and the others must wait (paper Section 1).  The simulator supports
two policies:

* ``priority`` — threads are served strictly by priority (lower number
  wins; by default a thread's priority is its spawn order).  This is
  the policy behind Table 3's per-thread interference measurements.
* ``round-robin`` — the scan order rotates every cycle, spreading
  grants evenly across threads.

Arbiters may carry state across cycles (the round-robin rotation
counter), so a :class:`~repro.sim.node.Node` snapshot includes its
arbiter.  ``advance(n)`` lets the event kernel's clock jump account
for cycles it never simulates, keeping its run bit-identical to the
scan kernel's cycle-by-cycle one.
"""

import bisect

from ..errors import ConfigError


class PriorityArbiter:
    """Strict priority: the highest-priority ready thread wins."""

    name = "priority"

    def order(self, threads, cycle):
        return sorted(threads, key=lambda t: (t.priority, t.tid))

    def advance(self, cycles, threads=()):
        """Stateless policy: skipped cycles change nothing."""


class RoundRobinArbiter:
    """Rotate the scan start point each cycle.

    The rotation resumes from the thread *identity* that led the
    previous scan — each cycle starts from the next-higher live tid,
    wrapping — rather than from ``cycle % len(threads)``.  Keying the
    phase to the cycle number makes the rotation jump whenever the
    number of live threads changes (a thread finishing or spawning
    mid-run), which can systematically starve a thread whose slot keeps
    landing on the same phase; resuming from the last-served tid keeps
    the scan walking evenly over whoever is live, no matter how the
    population churns.
    """

    name = "round-robin"

    def __init__(self):
        self._next = 0      # resume the scan at the first tid >= this

    def order(self, threads, cycle):
        ordered = sorted(threads, key=lambda t: t.tid)
        if not ordered:
            return ordered
        start = 0
        for index, thread in enumerate(ordered):
            if thread.tid >= self._next:
                start = index
                break
        self._next = ordered[start].tid + 1
        return ordered[start:] + ordered[:start]

    def rotate_sorted(self, ordered, tids):
        """Event-kernel fast path: rotate an already tid-sorted thread
        list exactly as :meth:`order` would (``tids`` is the parallel
        sorted tid list), updating the resume point."""
        if not ordered:
            return ordered
        start = bisect.bisect_left(tids, self._next)
        if start >= len(tids):
            start = 0
        self._next = tids[start] + 1
        if start:
            return ordered[start:] + ordered[:start]
        return ordered

    def advance(self, cycles, threads=()):
        """Account for ``cycles`` skipped quiet cycles, during which the
        scan head would have walked once per cycle over a stable
        ``threads`` population.

        ``threads`` is the population *during the window* — the caller
        (the event kernel's clock jump) only jumps when no thread can
        act, so the set cannot change mid-window.  The resume point
        needs no stability before the window: the first scan position is
        found by searching for the next tid >= ``_next`` in the
        *current* list, the same self-healing lookup :meth:`order` does,
        so a population that shrank or grew between the last scan and
        the jump resumes exactly where repeated :meth:`order` calls
        would (regression: ``test_advance_after_population_churn``)."""
        tids = sorted(t.tid for t in threads)
        if cycles <= 0 or not tids:
            return
        start = 0
        for index, tid in enumerate(tids):
            if tid >= self._next:
                start = index
                break
        last = (start + cycles - 1) % len(tids)
        self._next = tids[last] + 1


def make_arbiter(policy):
    if policy == "priority":
        return PriorityArbiter()
    if policy == "round-robin":
        return RoundRobinArbiter()
    raise ConfigError("unknown arbitration policy %r" % policy)
