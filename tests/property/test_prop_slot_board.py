"""The scheduler's slot boards against the linear slot search they
replaced.

``LinearSlots.find_slot`` is the scheduler's former search, kept here
as the oracle: step row by row from ``min_row``, skip rows that already
hold a control operation when placing one, and probe every unit of the
kind in index order.  Random query/mark sequences over boards of one,
two and three units must get the same ``(row, unit index, latency)``
from both, every time, with ``min_row`` landing below, inside and above
runs of full rows.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.compiler.schedule.slots import SlotBoard, find_slot


class LinearSlots:
    """Occupancy as one row set per unit, searched one row at a time."""

    def __init__(self, latencies):
        self.latencies = latencies          # per board: unit latencies
        self.busy = {}                      # (board, unit index) -> rows
        self.control_rows = set()

    def find_slot(self, board, min_row, mark=False, control=False):
        units = self.latencies[board]
        row = max(min_row, 0)
        while True:
            if control and row in self.control_rows:
                row += 1
                continue
            for index, latency in enumerate(units):
                occupied = self.busy.setdefault((board, index), set())
                if row not in occupied:
                    if mark:
                        occupied.add(row)
                        if control:
                            self.control_rows.add(row)
                    return row, index, latency
            row += 1


class Boards:
    """The scheduler's side: one board per kind plus the control rows."""

    def __init__(self, latencies):
        self.boards = [SlotBoard(units) for units in latencies]
        self.control = SlotBoard((0,))

    def find_slot(self, board, min_row, mark=False, control=False):
        return find_slot(self.boards[board], min_row,
                         self.control if control else None, mark=mark)

    def clear(self):
        for board in self.boards:
            board.clear()
        self.control.clear()


unit_latencies = st.lists(st.integers(1, 4), min_size=1, max_size=3)
# Rows drawn from a narrow range, so marks pile up into runs of full
# rows that later queries start below, inside and above.
queries = st.one_of(
    st.tuples(st.integers(0, 2), st.integers(0, 12), st.booleans(),
              st.booleans()),
    st.just(None))                  # a new block: every board cleared


@given(latencies=st.lists(unit_latencies, min_size=1, max_size=3),
       script=st.lists(queries, min_size=10, max_size=200))
@settings(max_examples=300, deadline=None)
def test_boards_answer_like_the_linear_scan(latencies, script):
    oracle = LinearSlots(latencies)
    boards = Boards(latencies)
    for query in script:
        if query is None:
            oracle = LinearSlots(latencies)
            boards.clear()
            continue
        pick, min_row, mark, control = query
        board = pick % len(latencies)
        assert boards.find_slot(board, min_row, mark, control) \
            == oracle.find_slot(board, min_row, mark, control), query


def test_queries_below_inside_and_above_a_full_run():
    latencies = [(1, 2)]
    oracle = LinearSlots(latencies)
    boards = Boards(latencies)
    for row in range(3, 10):
        for __ in range(2):
            assert boards.find_slot(0, row, mark=True) \
                == oracle.find_slot(0, row, mark=True)
    for min_row in (0, 3, 5, 9, 10, 12):
        assert boards.find_slot(0, min_row) == oracle.find_slot(0, min_row)
    assert boards.find_slot(0, 5) == (10, 0, 1)
    assert boards.find_slot(0, 2) == (2, 0, 1)


def test_control_rows_are_shared_across_boards():
    latencies = [(1,), (1, 1)]
    oracle = LinearSlots(latencies)
    boards = Boards(latencies)
    script = [(0, 0, True, True), (1, 0, False, True), (1, 0, True, False),
              (1, 0, True, True), (0, 0, False, True), (1, 0, False, True)]
    for board, min_row, mark, control in script:
        assert boards.find_slot(board, min_row, mark, control) \
            == oracle.find_slot(board, min_row, mark, control)
    assert boards.find_slot(1, 0, control=True) == (2, 0, 1)
