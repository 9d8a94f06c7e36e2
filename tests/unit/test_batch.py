"""The batch lane engine's building blocks (repro.sim.batch).

The property suite pins end-to-end four-way equivalence; the tests
here exercise the parts in isolation: LaneVec dtype classification
and scalar-fidelity extraction, the vectorized opcode kernels against
the scalar semantics table (including the NaN-ordering and int-bound
corners), the unanimity-or-peel vote and its tie rule, override
merging, and the run_batch error paths.
"""

import math
import sys

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro import baseline, compile_program, run_program
from repro.errors import SimulationError
from repro.isa.operations import opcode
from repro.sim.batch import (AllLanesPeeled, BatchNode, LaneVec, _INT_BOUND,
                             _build_kernels, batch_supported,
                             merge_overrides, run_batch)

SOURCE = """
(program
  (const N 4)
  (global A N)
  (global B N)
  (main
    (for (i 0 N)
      (let ((x (aref A i)))
        (aset! B i (+ (* x x) 1.0))))))
"""


def _config():
    return baseline().with_engine("event").with_fusion(False)


def _program(source=SOURCE):
    return compile_program(source, _config(), mode="seq").program


class TestLaneVec:
    def test_float_classification(self):
        v = LaneVec.of([1.0, -0.0, 2.5])
        assert v.kind == "f"
        assert v.a.dtype == np.float64

    def test_int_classification_respects_bound(self):
        assert LaneVec.of([1, 2, -3]).kind == "i"
        assert LaneVec.of([1, _INT_BOUND]).kind == "o"
        assert LaneVec.of([1, -_INT_BOUND]).kind == "o"

    def test_bool_is_not_int(self):
        # The scalar kernel stores Python bools from nowhere (compares
        # produce ints), but type() strictness must not misfile them.
        assert LaneVec.of([True, False]).kind == "o"

    def test_mixed_goes_object(self):
        v = LaneVec.of([1, 2.0])
        assert v.kind == "o"
        assert v.get(0) == 1 and type(v.get(0)) is int
        assert v.get(1) == 2.0 and type(v.get(1)) is float

    def test_get_returns_plain_scalars(self):
        f = LaneVec.of([1.5, 2.5])
        i = LaneVec.of([3, 4])
        assert type(f.get(0)) is float and f.get(1) == 2.5
        assert type(i.get(0)) is int and i.get(1) == 4

    def test_get_preserves_signed_zero(self):
        v = LaneVec.of([0.0, -0.0])
        assert math.copysign(1.0, v.get(1)) == -1.0

    def test_full_and_len(self):
        v = LaneVec.full(7, 3)
        assert len(v) == 3 and [v.get(k) for k in range(3)] == [7, 7, 7]


class _KernelHarness:
    """Just enough BatchNode surface for exercising kernels directly."""

    def __init__(self, lanes):
        self.lanes = lanes
        self._live = set(range(lanes))
        self._live_list = sorted(self._live)
        self.peeled = {}
        self.cycle = 0

    def _peel(self, lanes, reason):
        for lane in lanes:
            self._live.discard(lane)
            self.peeled[lane] = (reason, self.cycle)
        self._live_list = sorted(self._live)
        if not self._live_list:
            raise AllLanesPeeled()


class TestKernels:
    KERNELS = _build_kernels()

    def _run(self, name, *cols, lanes=None):
        lanes = lanes if lanes is not None else len(cols[0])
        node = _KernelHarness(lanes)
        out = self.KERNELS[name](node, [LaneVec.of(list(c)) for c in cols])
        return node, out

    @pytest.mark.parametrize("name,cols", [
        ("fadd", ([1.5, -2.0], [0.25, 3.0])),
        ("fsub", ([1.5, -2.0], [0.25, 3.0])),
        ("fmul", ([1.5, -2.0], [0.25, 3.0])),
        ("fneg", ([1.5, -0.0],)),
        ("fabs", ([-1.5, 2.0],)),
        ("iadd", ([5, -7], [3, 2])),
        ("isub", ([5, -7], [3, 2])),
        ("imul", ([5, -7], [3, 2])),
        ("iand", ([12, 9], [10, 3])),
        ("ior", ([12, 9], [10, 3])),
        ("ixor", ([12, 9], [10, 3])),
        ("imin", ([5, -7], [3, 2])),
        ("imax", ([5, -7], [3, 2])),
        ("ineg", ([5, -7],)),
        ("inot", ([5, -7],)),
        ("itof", ([5, -7],)),
        ("ieq", ([1, 2], [1, 3])), ("ine", ([1, 2], [1, 3])),
        ("ilt", ([1, 2], [1, 3])), ("ile", ([1, 2], [1, 3])),
        ("igt", ([1, 2], [1, 3])), ("ige", ([1, 2], [1, 3])),
        ("feq", ([1.0, 2.0], [1.0, 3.0])),
        ("flt", ([1.0, 2.0], [1.0, 3.0])),
        ("fmin", ([1.0, 5.0], [2.0, 3.0])),
        ("fmax", ([1.0, 5.0], [2.0, 3.0])),
    ])
    def test_matches_scalar_semantics(self, name, cols):
        sem = opcode(name).semantics
        node, out = self._run(name, *cols)
        assert not node.peeled
        for lane in range(len(cols[0])):
            expect = sem(*[c[lane] for c in cols])
            got = out.get(lane)
            assert got == expect and type(got) is type(expect), \
                "%s lane %d: %r != %r" % (name, lane, got, expect)

    def test_fmin_fmax_nan_matches_python(self):
        nan = float("nan")
        sem_min = opcode("fmin").semantics
        sem_max = opcode("fmax").semantics
        for name, sem in (("fmin", sem_min), ("fmax", sem_max)):
            for a, b in [(nan, 1.0), (1.0, nan)]:
                __, out = self._run(name, [a, a], [b, b])
                expect = sem(a, b)
                got = out.get(0)
                assert (math.isnan(got) and math.isnan(expect)) \
                    or got == expect

    def test_int_kernel_demotes_at_bound(self):
        big = _INT_BOUND - 1
        __, out = self._run("iadd", [big, 1], [big, 1])
        assert out.kind == "o"
        assert out.get(0) == 2 * big and type(out.get(0)) is int
        __, small = self._run("iadd", [1, 2], [3, 4])
        assert small.kind == "i"

    def test_inot_stays_exact_at_edge(self):
        __, out = self._run("inot", [_INT_BOUND - 1, 0])
        assert out.get(0) == ~(_INT_BOUND - 1)
        assert out.get(1) == ~0

    def test_compare_declines_mixed_kinds(self):
        node = _KernelHarness(2)
        out = self.KERNELS["ieq"](node, [LaneVec.of([1, 2]),
                                         LaneVec.of([1.0, 2.0])])
        assert out is None           # falls back to scalar semantics

    def test_fdiv_peels_zero_divisor_lanes(self):
        node, out = self._run("fdiv", [1.0, 1.0, 1.0], [2.0, 0.0, 4.0])
        assert list(node.peeled) == [1]
        assert node.peeled[1][0] == "fdiv-by-zero"
        assert out.get(0) == 0.5 and out.get(2) == 0.25

    def test_fsqrt_peels_negative_lanes(self):
        node, out = self._run("fsqrt", [4.0, -1.0, 9.0])
        assert list(node.peeled) == [1]
        assert node.peeled[1][0] == "fsqrt-negative"
        assert out.get(0) == 2.0 and out.get(2) == 3.0

    def test_mov_is_identity(self):
        vec = LaneVec.of([1.5, 2.5])
        node = _KernelHarness(2)
        assert self.KERNELS["fmov"](node, [vec]) is vec


class TestVote:
    def _node(self, lanes):
        node = BatchNode.__new__(BatchNode)
        node.lanes = lanes
        node._live = set(range(lanes))
        node._live_list = sorted(node._live)
        node.peeled = {}
        node.cycle = 17
        from repro.sim.stats import Stats
        node.stats = Stats()
        return node

    def test_unanimous_peels_nothing(self):
        node = self._node(4)
        assert node._vote(lambda lane: 5, "branch") == 5
        assert not node.peeled

    def test_majority_wins_minority_peels(self):
        node = self._node(5)
        values = [1, 1, 2, 1, 2]
        assert node._vote(lambda lane: values[lane], "branch") == 1
        assert sorted(node.peeled) == [2, 4]
        assert node.peeled[2] == ("branch", 17)

    def test_tie_keeps_lowest_live_lane(self):
        node = self._node(2)
        values = [1, 2]
        assert node._vote(lambda lane: values[lane], "branch") == 1
        assert sorted(node.peeled) == [1]

    def test_all_peeled_raises(self):
        # the raise fires on the transition to an empty live set, with
        # the ledger already complete for the caller to read
        node = self._node(2)
        with pytest.raises(AllLanesPeeled):
            node._peel([0, 1], "branch")
        assert sorted(node.peeled) == [0, 1]


class TestMergeOverrides:
    def test_collapses_agreement_per_position(self):
        merged = merge_overrides([{"A": [1.0, 2.0]}, {"A": [1.0, 9.0]}])
        col = merged["A"]
        assert col[0] == 1.0 and not isinstance(col[0], LaneVec)
        assert isinstance(col[1], LaneVec)
        assert col[1].get(1) == 9.0

    def test_repr_equality_keeps_signed_zero_apart(self):
        merged = merge_overrides([{"A": [0.0]}, {"A": [-0.0]}])
        assert isinstance(merged["A"][0], LaneVec)

    def test_repr_equality_keeps_int_float_apart(self):
        merged = merge_overrides([{"A": [1]}, {"A": [1.0]}])
        assert isinstance(merged["A"][0], LaneVec)


class TestRunBatch:
    def test_supported(self):
        assert batch_supported()

    def test_lockstep_matches_scalar(self):
        program = _program()
        config = _config()
        lane_inputs = [{"A": [0.5, -1.5, 2.0, 3.25]},
                       {"A": [1.0, 2.0, -0.5, 0.25]}]
        outcome = run_batch(program, config, lane_inputs)
        assert outcome.lockstep_lanes == [0, 1]
        assert not outcome.peeled
        for lane, inputs in enumerate(lane_inputs):
            scalar = run_program(program, config, overrides=inputs)
            assert outcome.results[lane].outcome() == scalar.outcome()

    def test_identical_lanes_stay_scalar_throughout(self):
        program = _program()
        config = _config()
        inputs = {"A": [0.5, -1.5, 2.0, 3.25]}
        outcome = run_batch(program, config, [dict(inputs), dict(inputs)])
        assert outcome.lockstep_lanes == [0, 1]
        scalar = run_program(program, config, overrides=inputs)
        assert outcome.results[0].outcome() == scalar.outcome()

    def test_shared_error_peels_everyone(self):
        program = _program()
        config = _config()
        outcome = run_batch(program, config,
                            [{"A": [0.5, -1.5, 2.0, 3.25]},
                             {"A": [1.0, 2.0, -0.5, 0.25]}],
                            max_cycles=3)
        assert outcome.lockstep_lanes == []
        assert sorted(outcome.peeled) == [0, 1]
        for reason, __ in outcome.peeled.values():
            assert reason.startswith("error:")

    def test_empty_bundle_rejected(self):
        with pytest.raises(SimulationError):
            run_batch(_program(), _config(), [])

    def test_without_numpy_is_a_simulation_error(self, monkeypatch):
        # Lanes that differ force merge_overrides to build a LaneVec,
        # which needs numpy: the node must refuse before that happens.
        # A None entry in sys.modules makes the loader's import fail.
        monkeypatch.setattr("repro.sim.batch.np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(SimulationError, match="requires numpy"):
            run_batch(_program(), _config(),
                      [{"A": [0.5, -1.5, 2.0, 3.25]},
                       {"A": [1.0, 2.0, -0.5, 0.25]}])

    def test_lane_result_refuses_peeled_lane(self):
        config = _config()
        node = BatchNode(config, 2)
        node._peel([1], "branch")
        with pytest.raises(SimulationError):
            node.lane_result(1)
