"""Register/immediate/label operand behaviour."""

import copy
import math
import pickle

import pytest

from repro.isa.asmtext import parse_operation
from repro.isa.operands import (Imm, Label, Reg, is_source, parse_operand,
                                parse_reg)


class TestReg:
    def test_str(self):
        assert str(Reg(2, 17)) == "c2.r17"

    def test_equality_and_hash(self):
        assert Reg(1, 2) == Reg(1, 2)
        assert Reg(1, 2) != Reg(2, 2)
        assert len({Reg(0, 0), Reg(0, 0), Reg(0, 1)}) == 2

    def test_ordering(self):
        assert Reg(0, 5) < Reg(1, 0)
        assert Reg(1, 1) < Reg(1, 2)

    def test_parse_roundtrip(self):
        reg = Reg(3, 42)
        assert parse_reg(str(reg)) == reg

    @pytest.mark.parametrize("text", ["r5", "c1r5", "x0.r1", "c.r1"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_reg(text)


class TestImm:
    def test_int_roundtrip(self):
        assert parse_operand("#42") == Imm(42)
        assert parse_operand("#-7") == Imm(-7)

    def test_float_roundtrip(self):
        assert parse_operand("#2.5") == Imm(2.5)
        assert parse_operand("#-0.125") == Imm(-0.125)

    def test_str_is_parseable(self):
        for value in (3, -1, 0.5, 2.0):
            assert parse_operand(str(Imm(value))) == Imm(value)

    def test_float_int_imms_distinct(self):
        assert Imm(1) != Imm(1.0) or isinstance(Imm(1).value, int)


class TestSources:
    def test_regs_and_imms_are_sources(self):
        assert is_source(Reg(0, 0))
        assert is_source(Imm(1))

    def test_labels_are_not_sources(self):
        assert not is_source(Label("L0"))

    def test_parse_operand_register(self):
        assert parse_operand(" c0.r3 ") == Reg(0, 3)


class TestSharedInstances:
    """Each kind's interning constructor returns one object per value;
    the assembler and unpickling both go through it."""

    def test_one_object_per_value(self):
        assert Reg.of(3, 7) is Reg.of(3, 7)
        assert Reg.of(3, 7) is not Reg.of(7, 3)
        assert Imm.of(12) is Imm.of(12)
        assert Imm.of(2.5) is Imm.of(2.5)
        assert Label.of("loop") is Label.of("loop")

    def test_shared_equals_direct(self):
        for shared, direct in ((Reg.of(1, 2), Reg(1, 2)),
                               (Imm.of(5), Imm(5)),
                               (Label.of("L"), Label("L"))):
            assert shared == direct and hash(shared) == hash(direct)
            assert str(shared) == str(direct)

    def test_parsers_return_shared_instances(self):
        assert parse_reg("c2.r9") is Reg.of(2, 9)
        assert parse_operand("c2.r9") is Reg.of(2, 9)
        assert parse_operand("#-3") is Imm.of(-3)
        assert parse_operand("#0.25") is Imm.of(0.25)
        assert parse_operation("br exit").target is Label.of("exit")
        assert parse_operation("fork child [c0.r1=#2]").target \
            is Label.of("child")

    def test_imm_keeps_type_and_sign(self):
        # 1 == 1.0 and 0.0 == -0.0, yet each is its own operand: the
        # shared instance keeps the literal it was asked for, whichever
        # of the pair was built first.
        for first, second in ((101, 101.0), (103.0, 103), (0.0, -0.0)):
            a, b = Imm.of(first), Imm.of(second)
            assert a is not b
            assert type(a.value) is type(first)
            assert type(b.value) is type(second)
            assert math.copysign(1.0, a.value) == \
                math.copysign(1.0, first)
            assert math.copysign(1.0, b.value) == \
                math.copysign(1.0, second)
        assert str(Imm.of(-0.0)) == "#-0.0"
        assert str(Imm.of(1.0)) == "#1.0" and str(Imm.of(1)) == "#1"

    def test_nan_shares_one_instance(self):
        # NaN is unequal to itself; the table must still hold one.
        assert Imm.of(float("nan")) is Imm.of(float("nan"))

    def test_round_trip_yields_shared_instance(self):
        for direct, shared in ((Reg(4, 11), Reg.of(4, 11)),
                               (Imm(-0.0), Imm.of(-0.0)),
                               (Imm(7), Imm.of(7)),
                               (Label("exit"), Label.of("exit"))):
            assert pickle.loads(pickle.dumps(direct)) is shared
            assert copy.deepcopy(direct) is shared
            assert copy.copy(direct) is shared

    @pytest.mark.parametrize("operand", [Reg.of(0, 1), Imm.of(3),
                                         Label.of("L9")])
    def test_no_instance_dict(self, operand):
        assert not hasattr(operand, "__dict__")
        assert not hasattr(pickle.loads(pickle.dumps(operand)),
                           "__dict__")
