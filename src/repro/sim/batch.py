"""Lane-parallel batch kernel: N sweep variants of one compiled
program simulated in lockstep by a single event-kernel timing spine.

The paper's evaluation grid re-interprets the *same compiled program*
once per input-seed cell; a process pool only scales that with core
count.  This module amortizes the expensive part — predecode-driven
scheduling, arbitration, the completion heap, memory timing — across
every cell at once:

* **One shared timing spine.**  :class:`BatchNode` is an
  :class:`~repro.sim.event.EventNode` (superblock fusion disabled)
  whose *control plane* — cycle counter, issue/arbitration decisions,
  completion heap, presence bitmasks, memory latency RNG — is
  simulated exactly once.  This is sound because the kernel's timing
  depends on register/memory *values* through exactly three channels:
  resolved branch directions, memory reference addresses, and
  arithmetic faults.  While all live lanes agree on those, the shared
  simulation *is* each lane's own scalar run, bit for bit.

* **Per-lane value vectors.**  Registers and memory locations whose
  contents differ across lanes hold a :class:`LaneVec` — a numpy
  vector with one slot per lane — instead of a scalar.  Hot opcode
  classes (int/fp ALU, moves, compares) execute as single numpy
  kernels over the lane axis; everything else falls back to a
  per-lane loop over the opcode's scalar semantics.  Dtype discipline
  keeps results bit-identical to the scalar kernel: float64 is used
  only for genuine Python floats (IEEE-identical), int64 only for
  bounded ints (|v| < 2**31, rechecked after every kernel), and
  anything else rides in an object vector of plain Python values.

* **Peeling.**  The moment a lane *disagrees* with the lockstep
  majority on one of the three timing channels — a non-unanimous
  branch direction, a divergent memory address, or a lane-local
  arithmetic fault — it is *peeled*: dropped from the live mask and
  re-run from scratch on the scalar event kernel (the same de-fuse
  discipline superblock span boundaries use, one level up).  Peeled
  lanes keep their slots in every vector as inert garbage — they are
  excluded from votes and extraction, never compacted.  Divergence is
  always detected during payload computation in ``_issue_plan``,
  which mutates no machine state until the payload is complete, so
  the surviving majority continues undisturbed.

At the end of the run each surviving lane's architectural state —
final memory image, presence bits, cycle count, the full statistics
record — is extracted into its own :class:`~repro.sim.node.SimResult`
and is bit-identical to a serial run of the same ``run_signature``
with that lane's inputs (``tests/property`` enforces a four-way
scan/event/fused/batch equivalence).  Lanes must share everything the
run signature covers — machine config, fault plan, latency seed,
cycle budget — and differ **only** in input data; anything else
changes timing undetectably and must not share a bundle
(:meth:`Harness.run_many` groups accordingly).

numpy is this module's dependency alone, and :func:`batch_supported`
imports it when the first bundle is built: importing ``repro`` and
every scalar run leave it unloaded.
"""

import copy

from ..errors import SimulationError
from .event import EventNode
from .node import SimResult

#: int64 lane vectors only ever hold values with |v| < 2**31, so any
#: two-operand kernel result fits in int64 exactly (sums < 2**32,
#: products < 2**62); results that leave the bound are demoted to an
#: object vector of arbitrary-precision Python ints.
_INT_BOUND = 1 << 31

#: numpy, once :func:`batch_supported` has imported it.
np = None


class AllLanesPeeled(Exception):
    """Internal control signal: every lane diverged; the shared run is
    meaningless and the caller re-runs all lanes on the scalar kernel."""


def batch_supported():
    """Whether the batch backend can run at all: imports numpy into
    ``np`` on the first call and reports whether that worked."""
    global np
    if np is None:
        try:
            import numpy as np
        except ImportError:
            return False
    return True


def _require_numpy():
    """Load numpy, or raise the batch backend's SimulationError."""
    if not batch_supported():
        raise SimulationError(
            "batch backend requires numpy, which is unavailable")


class LaneVec:
    """A per-lane value vector flowing through the shared machine.

    ``kind`` is ``"f"`` (float64; every lane is a Python float),
    ``"i"`` (int64; every lane a Python int with |v| < 2**31) or
    ``"o"`` (object; arbitrary per-lane Python values).  Vectors are
    immutable once built; kernels always produce fresh ones.
    Dead-lane slots hold inert copies of live values so the dtype
    classification and the int64 bound hold over *all* slots.
    """

    __slots__ = ("kind", "a")

    def __init__(self, kind, a):
        self.kind = kind
        self.a = a

    @classmethod
    def of(cls, values):
        """Build from per-lane Python scalars, picking the strictest
        dtype that is provably bit-faithful to the scalar kernel."""
        if np is None:
            _require_numpy()
        if all(type(v) is float for v in values):
            return cls("f", np.array(values, dtype=np.float64))
        if all(type(v) is int and -_INT_BOUND < v < _INT_BOUND
               for v in values):
            return cls("i", np.array(values, dtype=np.int64))
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return cls("o", arr)

    @classmethod
    def full(cls, value, lanes):
        return cls.of([value] * lanes)

    def get(self, lane):
        """The lane's value as the plain Python scalar the scalar
        kernel would hold (canonical digests depend on this)."""
        if self.kind == "f":
            return float(self.a[lane])
        if self.kind == "i":
            return int(self.a[lane])
        return self.a[lane]

    def __len__(self):
        return len(self.a)

    def __repr__(self):
        return "LaneVec(%s, %r)" % (self.kind, self.a.tolist())


def _ivec(arr):
    """Wrap an exact int64 kernel result, demoting to the object path
    when any slot leaves the creation bound."""
    if int(np.abs(arr).max()) < _INT_BOUND:
        return LaneVec("i", arr)
    out = np.empty(len(arr), dtype=object)
    out[:] = [int(v) for v in arr.tolist()]
    return LaneVec("o", out)


# -- vectorized opcode kernels ------------------------------------------
#
# Each kernel takes (node, args) where args are LaneVecs (scalars
# already broadcast) and returns a LaneVec, or None to decline (the
# per-lane scalar fallback then runs).  Kernels may peel lanes (fdiv by
# zero, fsqrt of a negative) so the scalar re-run reproduces the
# lane's exception exactly.

def _k_f2(ufunc):
    def kernel(node, args):
        a, b = args
        if a.kind == "f" and b.kind == "f":
            return LaneVec("f", ufunc(a.a, b.a))
        return None
    return kernel


def _k_f1(ufunc):
    def kernel(node, args):
        (a,) = args
        if a.kind == "f":
            return LaneVec("f", ufunc(a.a))
        return None
    return kernel


def _k_i2(ufunc):
    def kernel(node, args):
        a, b = args
        if a.kind == "i" and b.kind == "i":
            return _ivec(ufunc(a.a, b.a))
        return None
    return kernel


def _k_i1(ufunc):
    def kernel(node, args):
        (a,) = args
        if a.kind == "i":
            return _ivec(ufunc(a.a))
        return None
    return kernel


def _k_cmp(op):
    def kernel(node, args):
        a, b = args
        if a.kind == b.kind and a.kind in ("f", "i"):
            return LaneVec("i", op(a.a, b.a).astype(np.int64))
        return None
    return kernel


def _k_fmin(node, args):
    # Python min(a, b) is ``b if b < a else a`` — including its NaN
    # behavior — which np.where reproduces exactly (np.minimum would
    # propagate NaN where Python does not).
    a, b = args
    if a.kind == "f" and b.kind == "f":
        return LaneVec("f", np.where(b.a < a.a, b.a, a.a))
    return None


def _k_fmax(node, args):
    a, b = args
    if a.kind == "f" and b.kind == "f":
        return LaneVec("f", np.where(b.a > a.a, b.a, a.a))
    return None


def _k_fdiv(node, args):
    a, b = args
    if a.kind != "f" or b.kind != "f":
        return None
    bad = [lane for lane in node._live_list if b.a[lane] == 0.0]
    if bad:
        # The scalar kernel raises ZeroDivisionError here; peel so the
        # re-run reproduces it (numpy would silently yield inf/nan).
        node._peel(bad, "fdiv-by-zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        return LaneVec("f", a.a / np.where(b.a == 0.0, 1.0, b.a))


def _k_fsqrt(node, args):
    (a,) = args
    if a.kind != "f":
        return None
    bad = [lane for lane in node._live_list if a.a[lane] < 0.0]
    if bad:
        # math.sqrt raises ValueError on negatives; numpy gives nan.
        node._peel(bad, "fsqrt-negative")
    with np.errstate(invalid="ignore"):
        return LaneVec("f", np.sqrt(np.where(a.a < 0.0, 0.0, a.a)))


def _k_itof(node, args):
    (a,) = args
    if a.kind == "i":
        # |v| < 2**31 converts to float64 exactly.
        return LaneVec("f", a.a.astype(np.float64))
    return None


def _k_mov(node, args):
    return args[0]                 # identity; vectors are immutable


def _build_kernels():
    _require_numpy()
    return {
        "fadd": _k_f2(np.add), "fsub": _k_f2(np.subtract),
        "fmul": _k_f2(np.multiply),
        "fneg": _k_f1(np.negative), "fabs": _k_f1(np.absolute),
        "fdiv": _k_fdiv, "fsqrt": _k_fsqrt,
        "fmin": _k_fmin, "fmax": _k_fmax,
        "iadd": _k_i2(np.add), "isub": _k_i2(np.subtract),
        "imul": _k_i2(np.multiply),
        "iand": _k_i2(np.bitwise_and), "ior": _k_i2(np.bitwise_or),
        "ixor": _k_i2(np.bitwise_xor),
        "imin": _k_i2(np.minimum), "imax": _k_i2(np.maximum),
        "ineg": _k_i1(np.negative), "inot": _k_i1(np.invert),
        "itof": _k_itof,
        "imov": _k_mov, "fmov": _k_mov,
        "ieq": _k_cmp(np.equal), "ine": _k_cmp(np.not_equal),
        "ilt": _k_cmp(np.less), "ile": _k_cmp(np.less_equal),
        "igt": _k_cmp(np.greater), "ige": _k_cmp(np.greater_equal),
        "feq": _k_cmp(np.equal), "fne": _k_cmp(np.not_equal),
        "flt": _k_cmp(np.less), "fle": _k_cmp(np.less_equal),
        "fgt": _k_cmp(np.greater), "fge": _k_cmp(np.greater_equal),
        # idiv / imod / ishl / ishr / ftoi take the per-lane fallback:
        # trap semantics, unbounded shifts, and float->int truncation
        # are cheaper to keep exact than to vectorize.
    }


_KERNELS = None


class _LaneMemory:
    """A per-lane view of the shared final memory image — just enough
    surface for SimResult readout and the equivalence suite
    (``_values``/``_empty``/``read_range``/``presence_range``)."""

    __slots__ = ("size", "_values", "_empty")

    def __init__(self, size, values, empty):
        self.size = size
        self._values = values
        self._empty = empty

    def peek(self, addr):
        return self._values.get(addr, 0)

    def is_full(self, addr):
        return addr not in self._empty

    def read_range(self, base, size):
        return [self._values.get(addr, 0)
                for addr in range(base, base + size)]

    def presence_range(self, base, size):
        return [self.is_full(addr) for addr in range(base, base + size)]


class BatchOutcome:
    """What :func:`run_batch` hands back: one SimResult per lane that
    survived lockstep (None for peeled lanes, which the caller re-runs
    on the scalar kernel) plus the peel ledger."""

    __slots__ = ("lanes", "results", "peeled")

    def __init__(self, lanes, results, peeled):
        self.lanes = lanes
        self.results = results       # list: SimResult | None per lane
        self.peeled = peeled         # lane -> (reason, cycle)

    @property
    def lockstep_lanes(self):
        return [lane for lane, sim in enumerate(self.results)
                if sim is not None]


class BatchNode(EventNode):
    """The event kernel with per-lane value vectors and peeling.

    Fusion is forced off: superblock closures bake scalar value flow
    into generated code, while the batch value plane must stay
    LaneVec-transparent.  The unfused event kernel is the timing spine
    the equivalence suite already pins to the scan kernel.
    """

    engine = "batch"

    def __init__(self, config, lanes, observer=None):
        global _KERNELS
        _require_numpy()
        if _KERNELS is None:
            _KERNELS = _build_kernels()
        super().__init__(config, observer=observer)
        self._fusion = False
        self.lanes = int(lanes)
        self._live = set(range(self.lanes))
        self._live_list = sorted(self._live)
        self.peeled = {}             # lane -> (reason, cycle)

    # -- peel bookkeeping ------------------------------------------------

    def _peel(self, lanes, reason):
        """Drop lanes from lockstep.  Only ever called during payload
        computation in ``_issue_plan`` — before any machine state is
        mutated for the op — so the surviving majority's timing is
        untouched.  Peeled lanes keep their vector slots as garbage."""
        cycle = self.cycle
        for lane in lanes:
            if lane in self._live:
                self._live.discard(lane)
                self.peeled[lane] = (reason, cycle)
        self._live_list = sorted(self._live)
        if not self._live_list:
            raise AllLanesPeeled()

    def _peel_rest(self, reason):
        """Mark every still-live lane peeled (shared-timing error paths:
        the whole bundle falls back to scalar re-runs)."""
        cycle = self.cycle
        for lane in self._live_list:
            self.peeled[lane] = (reason, cycle)
        self._live = set()
        self._live_list = []

    def _vote(self, per_lane, reason):
        """Unanimity-or-peel over the live lanes: returns the majority
        value, peeling every lane that disagrees.  Ties keep the side
        containing the lowest live lane."""
        tally = {}
        for lane in self._live_list:
            tally.setdefault(per_lane(lane), []).append(lane)
        if len(tally) == 1:
            return next(iter(tally))
        winner, __ = max(tally.items(),
                         key=lambda kv: (len(kv[1]), -min(kv[1])))
        losers = [lane for key, lanes in tally.items()
                  if key != winner for lane in lanes]
        self._peel(losers, reason)
        return winner

    # -- value plane (EventNode._issue_plan's three value channels) ------

    #: ``plan.exec_fn`` computes scalars straight from the frames.
    _scalar_values = False

    def _broadcast(self, value):
        if isinstance(value, LaneVec):
            return value
        return LaneVec.full(value, self.lanes)

    def _fallback(self, plan, values):
        """Per-lane scalar semantics: exact by construction.  A lane
        whose semantics raise is peeled (the scalar re-run reproduces
        the exception); dead slots are filled with a copy of the first
        live result so dtype classification stays live-driven."""
        sem = plan.semantics
        results = {}
        bad = []
        for lane in self._live_list:
            args = [v.get(lane) if isinstance(v, LaneVec) else v
                    for v in values]
            try:
                results[lane] = sem(*args)
            except Exception:
                bad.append(lane)
        if bad:
            self._peel(bad, "arith:%s" % plan.name)
        fill = results[self._live_list[0]]
        return LaneVec.of([results.get(lane, fill)
                           for lane in range(self.lanes)])

    def _compute(self, plan, values):
        """Compute one op's result across the lane axis."""
        if not any(isinstance(v, LaneVec) for v in values):
            return plan.semantics(*values)     # lanes agree: stay scalar
        kernel = _KERNELS.get(plan.name)
        if kernel is not None:
            out = kernel(self, [self._broadcast(v) for v in values])
            if out is not None:
                return out
        return self._fallback(plan, values)

    def _lane_int(self, value, lane):
        if isinstance(value, LaneVec):
            return int(value.get(lane))
        return int(value)

    def _address(self, base, offset):
        """The memory unit's address addition, with unanimity-or-peel
        over the lane axis (addresses drive service order, latency
        draws, and presence-bit synchronization — all shared state)."""
        if not isinstance(base, LaneVec) and not isinstance(offset, LaneVec):
            return int(base) + int(offset)
        return self._vote(
            lambda lane: self._lane_int(base, lane)
            + self._lane_int(offset, lane), "mem-address")

    def _taken(self, cond):
        """Resolved conditional-branch direction, unanimity-or-peel."""
        if not isinstance(cond, LaneVec):
            return bool(cond)
        return self._vote(lambda lane: bool(cond.get(lane)), "branch")

    # -- per-lane extraction ---------------------------------------------

    def lane_result(self, lane):
        """Materialize one surviving lane's architectural state as its
        own SimResult, with plain Python scalars everywhere a scalar
        run would have them."""
        if lane not in self._live:
            raise SimulationError("lane %d was peeled (%s)"
                                  % (lane, self.peeled.get(lane)))
        shared = self.memory
        values = {}
        for addr, value in shared._values.items():
            values[addr] = value.get(lane) \
                if isinstance(value, LaneVec) else value
        memory = _LaneMemory(shared.size, values, set(shared._empty))
        stats = copy.deepcopy(self.stats)
        return SimResult(stats, memory, self._program, self.config,
                         self.finished + self.active)


def merge_overrides(lane_overrides):
    """Fold per-lane input dicts into one override dict whose values
    are scalars where every lane agrees and LaneVecs where they
    differ.  repr-equality is deliberate: it distinguishes 0.0 from
    -0.0 and 1 from 1.0, so a collapsed scalar is bit-faithful to
    every lane."""
    _require_numpy()
    merged = {}
    first = lane_overrides[0]
    for name in first:
        length = len(first[name])
        columns = []
        for offset in range(length):
            cell = [inputs[name][offset] for inputs in lane_overrides]
            if len({repr(v) for v in cell}) == 1:
                columns.append(cell[0])
            else:
                columns.append(LaneVec.of(cell))
        merged[name] = columns
    return merged


def run_batch(program, config, lane_overrides, max_cycles=5_000_000,
              watchdog_cycles=None):
    """Simulate ``len(lane_overrides)`` input variants of ``program``
    in lockstep; returns a :class:`BatchOutcome`.

    Peeled lanes come back with ``results[lane] is None`` and must be
    re-run on the scalar kernel by the caller (the harness does this,
    reproducing even per-lane errors faithfully).  A shared-timing
    error (watchdog, deadlock, an all-lanes arithmetic trap) peels
    every remaining lane rather than guessing which lanes it belongs
    to."""
    lanes = len(lane_overrides)
    if lanes < 1:
        raise SimulationError("run_batch needs at least one lane")
    node = BatchNode(config, lanes)
    merged = merge_overrides(lane_overrides)
    try:
        node.run(program, overrides=merged, max_cycles=max_cycles,
                 watchdog_cycles=watchdog_cycles)
    except AllLanesPeeled:
        pass
    except Exception as exc:
        node._peel_rest("error:%s" % type(exc).__name__)
    results = [None] * lanes
    for lane in node._live_list:
        results[lane] = node.lane_result(lane)
    return BatchOutcome(lanes, results, dict(node.peeled))
