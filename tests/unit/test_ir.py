"""IR data structures: vregs, instructions, blocks, CFG."""

import pytest

from repro.compiler.ir import Const, IRInstr, ThreadIR, VReg
from repro.errors import CompileError


class TestVRegAndConst:
    def test_vreg_identity_is_id(self):
        a = VReg(1, "i", "x", True)
        b = VReg(1, "i")
        assert a == b and hash(a) == hash(b)

    def test_const_typing(self):
        assert Const(3).type == "i"
        assert Const(3.0).type == "f"


class TestIRInstr:
    def test_purity(self):
        add = IRInstr("iadd", VReg(1, "i"), [Const(1), Const(2)])
        assert add.is_pure
        load = IRInstr("ld", VReg(2, "f"), [Const(0)], sym="A")
        assert not load.is_pure
        halt = IRInstr("halt")
        assert not halt.is_pure

    def test_sync_memory_detection(self):
        assert IRInstr("ld_fe", VReg(1, "i"), [Const(0)],
                       sym="A").is_sync_memory
        assert IRInstr("st_ef", None, [Const(1), Const(0)],
                       sym="A").is_sync_memory
        assert not IRInstr("ld", VReg(1, "i"), [Const(0)],
                           sym="A").is_sync_memory
        assert not IRInstr("st", None, [Const(1), Const(0)],
                           sym="A").is_sync_memory

    def test_source_vregs_include_fork_args(self):
        v = VReg(5, "i")
        fork = IRInstr("fork", target="child", fork_args=[v, Const(2)])
        assert fork.source_vregs() == [v]

    def test_str_is_informative(self):
        text = str(IRInstr("fmul", VReg(1, "f"), [VReg(2, "f"),
                                                  Const(0.5)]))
        assert "fmul" in text and "0.5" in text


class TestBlocksAndCfg:
    def make_thread(self):
        thread = ThreadIR("t")
        header = thread.new_block("h")
        header.terminator = IRInstr("brf", srcs=[Const(1)], target=None)
        body = thread.new_block("w")
        body.terminator = IRInstr("br", target=header.name)
        exit_block = thread.new_block("x")
        exit_block.terminator = IRInstr("halt")
        header.terminator.target = exit_block.name
        return thread, header, body, exit_block

    def test_successors(self):
        thread, header, body, exit_block = self.make_thread()
        succs = thread.cfg_successors()
        assert set(succs[header.name]) == {exit_block.name, body.name}
        assert succs[body.name] == [header.name]
        assert succs[exit_block.name] == []

    def test_fallthrough_successor(self):
        thread = ThreadIR("t")
        a = thread.new_block("a")
        b = thread.new_block("b")
        b.terminator = IRInstr("halt")
        assert thread.cfg_successors()[a.name] == [b.name]

    def test_validation_requires_halt(self):
        thread = ThreadIR("t")
        block = thread.new_block()
        block.terminator = IRInstr("br", target=block.name)
        with pytest.raises(CompileError, match="halt"):
            thread.validate()

    def test_validation_rejects_unknown_targets(self):
        thread = ThreadIR("t")
        block = thread.new_block()
        block.terminator = IRInstr("halt")
        block.instrs.append(IRInstr("brf", srcs=[Const(1)],
                                    target="ghost"))
        # brf is not a terminator here, but validate still checks it.
        thread.blocks[-1].terminator = IRInstr("halt")
        with pytest.raises(CompileError):
            thread.validate()

    def test_vreg_counter_unique(self):
        thread = ThreadIR("t")
        ids = {thread.new_vreg("i").id for __ in range(100)}
        assert len(ids) == 100
