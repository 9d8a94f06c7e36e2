"""Operation caches (paper Section 2/5, relaxed assumption).

Each function unit contains an *operation cache*; summed over all
units, the operation caches form the node's instruction cache.  The
paper's evaluation assumes no operation-cache misses ("no instruction
cache misses or operation prefetch delays are included"); this module
makes that assumption optional so its cost can be measured.

Model: each function unit caches the operations it recently issued,
keyed by (thread program, word index), with LRU replacement.  An
operation whose word is absent pays a fixed fill penalty before it can
issue (the unit stays available to other threads whose operations are
resident — a coupling-friendly miss model).

A node-wide *fill board* (shared by every unit's cache) dedupes
in-progress fills: while one unit is fetching a word, any other unit
that wants the same word joins the in-flight fill instead of starting
(and paying for, and counting) an independent one.  Without it, a
fault-rerouted thread bouncing between surviving units would start a
fresh fill — and increment ``opcache_misses`` — on every unit it
visited for the same word.
"""

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class OpCacheSpec:
    """Parameters of the per-unit operation cache.

    ``capacity`` counts cached words per function unit; ``fill_penalty``
    is the extra delay (cycles) before a missing operation can issue.
    ``None`` capacity means the paper's perfect-cache assumption.
    """

    capacity: int = 64
    fill_penalty: int = 4

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError("operation cache capacity must be >= 1")
        if self.fill_penalty < 1:
            raise ConfigError("fill penalty must be >= 1")


class OperationCache:
    """Runtime state of one unit's operation cache.

    ``fill_board`` is an optional dict shared between the caches of one
    node, mapping in-flight fill keys to their ready cycles.
    """

    def __init__(self, spec, stats, fill_board=None):
        self.spec = spec
        self.stats = stats
        self._lines = OrderedDict()     # (program name, word) -> True
        self._fills = {}                # key -> ready cycle
        self._board = fill_board        # shared key -> ready cycle

    def ready(self, thread, cycle):
        """Can the thread's current word issue from this unit now?
        A miss starts (or joins) a fill and returns False."""
        key = (thread.program.name, thread.ip)
        if key in self._lines:
            self._lines.move_to_end(key)
            return True
        fill_ready = self._fills.get(key)
        if fill_ready is None:
            shared = self._board.get(key) if self._board is not None \
                else None
            if shared is not None and cycle < shared:
                # Another unit is already fetching this word: join its
                # in-flight fill (one fetch, one penalty, one miss).
                self._fills[key] = shared
            else:
                self._fills[key] = cycle + self.spec.fill_penalty
                self.stats.opcache_misses += 1
                if self._board is not None:
                    self._board[key] = self._fills[key]
            return False
        if cycle >= fill_ready:
            del self._fills[key]
            if self._board is not None \
                    and self._board.get(key) == fill_ready:
                del self._board[key]
            self._insert(key)
            return True
        return False

    def _insert(self, key):
        self._lines[key] = True
        while len(self._lines) > self.spec.capacity:
            self._lines.popitem(last=False)

    def resident_words(self):
        return len(self._lines)

    # -- event-kernel clock jump ----------------------------------------

    def next_fill_ready(self):
        """Earliest ready cycle among in-progress fills, or None."""
        return min(self._fills.values()) if self._fills else None
