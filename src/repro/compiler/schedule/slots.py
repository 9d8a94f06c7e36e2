"""Slot boards: which function-unit slots of a block are taken.

The list scheduler keeps asking one question: the earliest row, at or
after some row, where a unit of one kind in one cluster is free.  A
:class:`SlotBoard` answers it for one (cluster, unit kind) pair.

* The scheduler always takes the lowest-index free unit, so the units
  taken at a row are always a prefix of the unit list and a row's
  occupancy is one count.
* Full rows form a *skip map*: each points at a later row, and every
  row in between is full too.  A query follows the pointers to the
  first row with a free unit, then points every row it passed straight
  at that row (path compression).  Jumping a run of full rows costs
  near-constant time instead of one probe per unit per row.

A thread issues at most one branch-unit operation per row, across all
clusters.  The scheduler keeps the rows that hold one on a one-unit
board of their own and passes it as ``control`` to :func:`find_slot`,
which then skips rows that are full on either board.
"""


class SlotBoard:
    """Row occupancy of one cluster's units of one kind."""

    __slots__ = ("latencies", "taken", "skip")

    def __init__(self, latencies):
        self.latencies = tuple(latencies)   # per unit, in unit-index order
        self.taken = {}                     # row -> units taken there
        self.skip = {}                      # full row -> a later row

    def clear(self):
        self.taken.clear()
        self.skip.clear()

    def open_row(self, row):
        """The first row at or after ``row`` with a free unit."""
        skip = self.skip
        if row not in skip:
            return row
        top = skip[row]
        while top in skip:
            top = skip[top]
        while row != top:
            after = skip[row]
            skip[row] = top
            row = after
        return top

    def take(self, row):
        """Occupy the lowest free unit at ``row``, which must be open."""
        count = self.taken.get(row, 0) + 1
        self.taken[row] = count
        if count == len(self.latencies):
            self.skip[row] = row + 1


def find_slot(board, row, control=None, mark=False):
    """Earliest ``(row, unit index, latency)`` on ``board`` at or after
    ``row``, also skipping rows full on ``control`` when given; ``mark``
    takes the slot (and the row on ``control``)."""
    row = board.open_row(row)
    while control is not None:
        free = control.open_row(row)
        if free == row:
            break
        row = board.open_row(free)
    index = board.taken.get(row, 0)
    if mark:
        board.take(row)
        if control is not None:
            control.take(row)
    return row, index, board.latencies[index]
