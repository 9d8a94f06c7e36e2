"""Opcode registry and semantics (including Table 1 conditions)."""

import pytest

from repro.errors import AsmError
from repro.isa.operations import (POST_EMPTY, POST_FULL, POST_KEEP,
                                  PRE_ALWAYS, PRE_EMPTY, PRE_FULL,
                                  UnitClass, all_opcodes, opcode)


class TestRegistry:
    def test_unknown_opcode_raises(self):
        with pytest.raises(AsmError):
            opcode("fma")

    def test_all_opcodes_nonempty(self):
        table = all_opcodes()
        assert "iadd" in table and "fork" in table
        assert len(table) > 40

    def test_unit_classes(self):
        assert opcode("iadd").unit is UnitClass.IU
        assert opcode("fmul").unit is UnitClass.FPU
        assert opcode("ld").unit is UnitClass.MEM
        assert opcode("brt").unit is UnitClass.BRU


class TestIntegerSemantics:
    def test_truncating_division(self):
        idiv = opcode("idiv").semantics
        assert idiv(7, 2) == 3
        assert idiv(-7, 2) == -3      # C-style truncation, not floor
        assert idiv(7, -2) == -3
        assert idiv(-7, -2) == 3

    def test_mod_matches_c(self):
        imod = opcode("imod").semantics
        assert imod(7, 2) == 1
        assert imod(-7, 2) == -1
        assert imod(7, -2) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(ArithmeticError):
            opcode("idiv").semantics(1, 0)

    def test_shifts(self):
        assert opcode("ishl").semantics(3, 2) == 12
        assert opcode("ishr").semantics(12, 2) == 3

    def test_compare_produces_int(self):
        assert opcode("ilt").semantics(1, 2) == 1
        assert opcode("ige").semantics(1, 2) == 0

    def test_move_preserves_value(self):
        assert opcode("imov").semantics(2.5) == 2.5   # copies, no cast


class TestFloatSemantics:
    def test_arithmetic(self):
        assert opcode("fadd").semantics(1, 2) == 3.0
        assert opcode("fdiv").semantics(1.0, 4.0) == 0.25

    def test_sqrt(self):
        assert opcode("fsqrt").semantics(9.0) == 3.0

    def test_conversions(self):
        assert opcode("itof").semantics(3) == 3.0
        assert opcode("ftoi").semantics(3.9) == 3

    def test_commutativity_flags(self):
        assert opcode("fadd").commutative
        assert not opcode("fsub").commutative


class TestMemoryFlavors:
    """The exact precondition/postcondition pairs of Table 1."""

    @pytest.mark.parametrize("name,pre,post", [
        ("ld", PRE_ALWAYS, POST_KEEP),
        ("ld_ff", PRE_FULL, POST_KEEP),
        ("ld_fe", PRE_FULL, POST_EMPTY),
        ("st", PRE_ALWAYS, POST_FULL),
        ("st_ff", PRE_FULL, POST_KEEP),
        ("st_ef", PRE_EMPTY, POST_FULL),
    ])
    def test_table1(self, name, pre, post):
        spec = opcode(name)
        assert spec.precondition == pre
        assert spec.postcondition == post
        assert spec.is_memory

    def test_load_store_flags(self):
        assert opcode("ld").is_load and not opcode("ld").is_store
        assert opcode("st").is_store and not opcode("st").is_load


class TestControl:
    def test_branch_flags(self):
        assert opcode("br").is_branch
        assert opcode("brt").is_branch
        assert opcode("halt").is_halt
        assert opcode("fork").is_fork

    def test_sink_blocks_without_writing(self):
        spec = opcode("sink")
        assert spec.n_srcs == 1
        assert not spec.has_dest
        assert spec.unit is UnitClass.IU
