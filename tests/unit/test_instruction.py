"""Operations, instruction words, thread programs, data segments."""

import copy
import pickle

import pytest

from repro.errors import AsmError
from repro.isa import (InstructionWord, Label, Operation, Program, Reg,
                       ThreadProgram, unit_id)
from repro.isa.instruction import DataSegment, parse_unit_id
from repro.isa.operands import Imm
from repro.isa.operations import UnitClass


def iadd(dest, a, b):
    return Operation("iadd", dests=(dest,), srcs=(a, b))


class TestOperation:
    def test_two_destinations_allowed(self):
        op = Operation("iadd", dests=(Reg(0, 1), Reg(2, 5)),
                       srcs=(Reg(0, 0), Imm(1)))
        assert len(op.dests) == 2

    def test_three_destinations_rejected(self):
        with pytest.raises(AsmError):
            Operation("iadd", dests=(Reg(0, 1), Reg(1, 1), Reg(2, 1)),
                      srcs=(Reg(0, 0), Imm(1)))

    def test_missing_destination_rejected(self):
        with pytest.raises(AsmError):
            Operation("iadd", srcs=(Reg(0, 0), Imm(1)))

    def test_store_takes_no_destination(self):
        with pytest.raises(AsmError):
            Operation("st", dests=(Reg(0, 0),),
                      srcs=(Reg(0, 1), Reg(0, 2), Imm(0)))

    def test_wrong_arity_rejected(self):
        with pytest.raises(AsmError):
            Operation("iadd", dests=(Reg(0, 0),), srcs=(Imm(1),))

    def test_branch_needs_label(self):
        with pytest.raises(AsmError):
            Operation("brt", srcs=(Reg(0, 0),))

    def test_source_regs_include_fork_bindings(self):
        op = Operation("fork", target=Label("child"),
                       bindings=((Reg(0, 0), Reg(1, 3)),
                                 (Reg(0, 1), Imm(2))))
        assert op.source_regs() == [Reg(1, 3)]

    def test_immediate_destination_rejected(self):
        with pytest.raises(AsmError):
            Operation("iadd", dests=(Imm(1),), srcs=(Imm(1), Imm(2)))


class TestCompactForm:
    """Operations and words are slotted: neither building, pickling nor
    unpickling them gives an instance a ``__dict__``."""

    def _word(self):
        return InstructionWord({
            "c0.iu0": iadd(Reg.of(0, 0), Reg.of(0, 1), Imm.of(2)),
            "c4.bru0": Operation("fork", target=Label.of("child"),
                                 bindings=((Reg.of(0, 0), Imm.of(-0.0)),)),
        })

    def test_no_instance_dict_before_and_after_round_trip(self):
        word = self._word()
        for clone in (word, pickle.loads(pickle.dumps(word)),
                      copy.deepcopy(word)):
            assert not hasattr(clone, "__dict__")
            for op in clone.operations():
                assert not hasattr(op, "__dict__")

    def test_round_trip_keeps_every_field(self):
        word = self._word()
        clone = pickle.loads(pickle.dumps(word))
        assert clone.slots == word.slots
        assert str(clone) == str(word)
        fork = clone.slots["c4.bru0"]
        assert fork.bindings[0][1] is Imm.of(-0.0)
        assert fork.target is Label.of("child")


class TestUnitIds:
    def test_roundtrip(self):
        uid = unit_id(2, UnitClass.FPU, 1)
        assert uid == "c2.fpu1"
        assert parse_unit_id(uid) == (2, UnitClass.FPU, 1)

    def test_interned(self):
        assert unit_id(3, UnitClass.IU, 0) is unit_id(3, "iu", 0)

    def test_malformed(self):
        for text in ("c0.xyz0", "fpu0", "c0.fpu"):
            with pytest.raises(AsmError):
                parse_unit_id(text)


class TestInstructionWord:
    def test_unit_kind_must_match_opcode(self):
        with pytest.raises(AsmError):
            InstructionWord({"c0.fpu0": iadd(Reg(0, 0), Imm(1), Imm(2))})

    def test_one_control_op_per_word(self):
        halt = Operation("halt")
        br = Operation("br", target=Label("L"))
        with pytest.raises(AsmError):
            InstructionWord({"c4.bru0": halt, "c5.bru0": br})

    def test_control_op_lookup(self):
        word = InstructionWord({
            "c0.iu0": iadd(Reg(0, 0), Imm(1), Imm(2)),
            "c4.bru0": Operation("halt"),
        })
        assert word.control_op().name == "halt"
        assert len(word) == 2


class TestThreadProgram:
    def test_labels_resolve(self):
        thread = ThreadProgram("t")
        thread.add_label("L0")
        thread.append(InstructionWord({"c4.bru0": Operation("halt")}))
        assert thread.resolve(Label("L0")) == 0

    def test_duplicate_label_rejected(self):
        thread = ThreadProgram("t")
        thread.add_label("L0")
        with pytest.raises(AsmError):
            thread.add_label("L0")

    def test_undefined_label_rejected(self):
        thread = ThreadProgram("t")
        thread.append(InstructionWord(
            {"c4.bru0": Operation("br", target=Label("missing"))}))
        with pytest.raises(AsmError):
            thread.validate()


class TestDataSegment:
    def test_sequential_allocation(self):
        data = DataSegment()
        a = data.declare("a", 10)
        b = data.declare("b", 5, initially_full=False)
        assert a.base == 0 and b.base == 10
        assert data.total_size() == 15
        assert not b.initially_full

    def test_duplicate_symbol_rejected(self):
        data = DataSegment()
        data.declare("a", 1)
        with pytest.raises(AsmError):
            data.declare("a", 2)

    def test_init_values_length_checked(self):
        data = DataSegment()
        with pytest.raises(AsmError):
            data.declare("a", 3, init_values=[1, 2])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(AsmError):
            DataSegment().declare("a", 0)


class TestProgram:
    def test_missing_main_rejected(self):
        program = Program(main="main")
        with pytest.raises(AsmError):
            program.validate()

    def test_fork_target_must_exist(self):
        program = Program()
        thread = ThreadProgram("main")
        thread.append(InstructionWord(
            {"c4.bru0": Operation("fork", target=Label("ghost"))}))
        program.add_thread(thread)
        with pytest.raises(AsmError):
            program.validate()

    def test_static_operation_count(self):
        program = Program()
        thread = ThreadProgram("main")
        thread.append(InstructionWord({
            "c0.iu0": iadd(Reg(0, 0), Imm(1), Imm(2)),
            "c4.bru0": Operation("halt")}))
        program.add_thread(thread)
        assert program.static_operation_count() == 2
