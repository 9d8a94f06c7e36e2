"""Execution tracing and schedule visualization.

A :class:`TraceRecorder` plugs into the node's observer hook and
collects issue/spawn/halt events; :func:`render_timeline` draws a
text Gantt chart of function-unit occupancy over a cycle window —
essentially Figure 2 of the paper (the cycle-by-cycle mapping of
function units to threads), reconstructed from a real run.

Usage::

    recorder = TraceRecorder()
    node = make_node(config, observer=recorder)
    node.run(program)
    print(render_timeline(recorder, config, last=40))
"""

from collections import defaultdict
from dataclasses import dataclass


@dataclass
class IssueEvent:
    cycle: int
    unit: str
    thread: int
    op: str


class TraceRecorder:
    """Observer collecting per-cycle issue events and thread lifetimes.

    ``limit`` bounds the number of recorded issue events so tracing a
    long run cannot exhaust memory; the newest events win.
    """

    def __init__(self, limit=200_000):
        self.limit = limit
        self.issues = []
        self.spawns = {}         # tid -> (cycle, thread name)
        self.halts = {}          # tid -> cycle

    def __call__(self, kind, **event):
        if kind == "issue":
            if len(self.issues) >= self.limit:
                del self.issues[:self.limit // 2]
            self.issues.append(IssueEvent(event["cycle"], event["unit"],
                                          event["thread"].tid,
                                          event["op"].name))
        elif kind == "spawn":
            thread = event["thread"]
            self.spawns[thread.tid] = (event["cycle"], thread.name)
        elif kind == "halt":
            self.halts[event["thread"].tid] = event["cycle"]

    # -- queries ----------------------------------------------------------

    def issues_by_cycle(self):
        table = defaultdict(list)
        for event in self.issues:
            table[event.cycle].append(event)
        return table

    def unit_occupancy(self):
        """unit id -> {cycle: thread id}."""
        table = defaultdict(dict)
        for event in self.issues:
            table[event.unit][event.cycle] = event.thread
        return table

    def cycle_range(self):
        if not self.issues:
            return (0, 0)
        cycles = [e.cycle for e in self.issues]
        return (min(cycles), max(cycles))

    def tail(self, cycles=48):
        """Issue events from the final ``cycles``-cycle window — the
        slice the sanitizer's bundle replay prints to show the
        schedule entering a divergence window."""
        __, hi = self.cycle_range()
        lo = hi - cycles + 1
        return [e for e in self.issues if e.cycle >= lo]


def render_timeline(recorder, config, first=None, last=None, width=72):
    """Draw unit occupancy as text: one row per function unit, one
    column per cycle, thread ids as the marks (``.`` = idle).

    ``first``/``last`` bound the cycle window; a window wider than
    ``width`` is split into successive panels.
    """
    lo, hi = recorder.cycle_range()
    if first is not None:
        lo = max(lo, first)
    if last is not None:
        if first is not None:
            hi = min(hi, lo + last - 1)
        else:
            lo = max(lo, hi - last + 1)
    occupancy = recorder.unit_occupancy()
    unit_ids = [slot.uid for slot in config.units]
    label_width = max(len(uid) for uid in unit_ids) + 1
    panels = []
    start = lo
    while start <= hi:
        end = min(start + width - 1, hi)
        lines = ["cycles %d..%d" % (start, end)]
        header = " " * label_width + "".join(
            "|" if (start + i) % 10 == 0 else " "
            for i in range(end - start + 1))
        lines.append(header)
        for uid in unit_ids:
            row = []
            for cycle in range(start, end + 1):
                tid = occupancy.get(uid, {}).get(cycle)
                row.append("." if tid is None else _mark(tid))
            lines.append(uid.ljust(label_width) + "".join(row))
        panels.append("\n".join(lines))
        start = end + 1
    legend = ", ".join(
        "%s=thread %d (%s)" % (_mark(tid), tid, name)
        for tid, (__, name) in sorted(recorder.spawns.items()))
    return "\n\n".join(panels) + ("\n" + legend if legend else "")


def _mark(tid):
    marks = "0123456789abcdefghijklmnopqrstuvwxyz"
    return marks[tid % len(marks)]


def utilization_profile(recorder, bucket=16):
    """(bucket start cycle, issues per cycle) series for plotting
    utilization over time."""
    by_cycle = recorder.issues_by_cycle()
    if not by_cycle:
        return []
    lo, hi = recorder.cycle_range()
    series = []
    for start in range(lo, hi + 1, bucket):
        total = sum(len(by_cycle.get(c, ()))
                    for c in range(start, min(start + bucket, hi + 1)))
        span = min(start + bucket, hi + 1) - start
        series.append((start, total / span))
    return series
