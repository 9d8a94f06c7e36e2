"""Load-time predecoding of instruction words into slot plans."""

import pytest

from repro import compile_program
from repro.errors import SimulationError
from repro.isa.instruction import Operation, ThreadProgram
from repro.isa.operands import Imm, Label, Reg
from repro.machine import baseline
from repro.sim.predecode import (_WARMUP_DISPATCHES, BlockPlan, BlockTable,
                                 DecodedThread, SlotPlan, WordPlan,
                                 _build_run, _entry_points, _word_fusible,
                                 decode_program)
from repro.sim.registers import RegisterFrame

SOURCE = """
(program
  (global x 4 :int)
  (global out 4 :int)
  (main
    (for (i 0 4)
      (aset! out i (* (aref x i) 3)))))
"""


@pytest.fixture(scope="module")
def decoded_and_program():
    config = baseline()
    program = compile_program(SOURCE, config, mode="coupled").program
    unit_index = {slot.uid: i for i, slot in enumerate(config.units)}
    return decode_program(program, unit_index), program, unit_index


class TestDecodeProgram:
    def test_covers_every_thread_and_word(self, decoded_and_program):
        decoded, program, __ = decoded_and_program
        assert set(decoded) == set(program.threads)
        for name, thread in decoded.items():
            assert isinstance(thread, DecodedThread)
            assert len(thread.words) == \
                len(program.threads[name].instructions)

    def test_plans_follow_slot_insertion_order(self, decoded_and_program):
        decoded, program, __ = decoded_and_program
        for name, thread in decoded.items():
            source = program.threads[name].instructions
            for word_plan, word in zip(thread.words, source):
                assert isinstance(word_plan, WordPlan)
                assert [p.uid for p in word_plan.plans] == \
                    list(word.slots)

    def test_plan_resolves_spec_and_operands(self, decoded_and_program):
        decoded, program, unit_index = decoded_and_program
        for name, thread in decoded.items():
            source = program.threads[name].instructions
            for word_plan, word in zip(thread.words, source):
                for plan in word_plan.plans:
                    op = word.slots[plan.uid]
                    assert isinstance(plan, SlotPlan)
                    assert plan.op is op
                    assert plan.spec is op.spec
                    assert plan.unit_index == unit_index[plan.uid]
                    assert plan.dest_pairs == tuple(
                        (d.cluster, d.index) for d in op.dests)
                    assert plan.is_memory == op.spec.is_memory
                    assert plan.is_load == op.spec.is_load
                    # Register reads appear as patch fields; immediates
                    # are baked into the value template.
                    for pos, cluster, index in plan.src_fields:
                        src = op.srcs[pos]
                        assert (src.cluster, src.index) == (cluster, index)
                        assert plan.values_template[pos] is None

    def test_wait_groups_cover_reads_and_waw(self, decoded_and_program):
        decoded, program, __ = decoded_and_program
        for name, thread in decoded.items():
            source = program.threads[name].instructions
            for word_plan, word in zip(thread.words, source):
                for plan in word_plan.plans:
                    op = word.slots[plan.uid]
                    expected = {(r.cluster, r.index)
                                for r in list(op.source_regs())
                                + list(op.dests)}
                    got = set(plan.wait_registers())
                    assert got == expected
                    # The masks themselves agree with the decoded view.
                    for cluster, mask in plan.wait_groups:
                        for index in range(mask.bit_length()):
                            assert bool(mask >> index & 1) == \
                                ((cluster, index) in expected)

    def test_empty_word_rejected(self, decoded_and_program):
        __, program, unit_index = decoded_and_program

        class EmptyWord:
            slots = {}

        class FakeThread:
            instructions = [EmptyWord()]

        class FakeProgram:
            threads = {"broken": FakeThread()}

        with pytest.raises(SimulationError, match="word 0 is empty"):
            decode_program(FakeProgram(), unit_index)


def _plan(op, thread_program=None):
    return SlotPlan("iu0", 0, op, thread_program, {})


class TestSlotPlanEdgeCases:
    """Hand-built operations exercising corners the compiled fixture
    never produces."""

    def test_waw_only_wait_group_dedups_read_and_write(self):
        # r(0,2) is both read and written (WAW interlock): one wait bit.
        plan = _plan(Operation("iadd", dests=(Reg(0, 2),),
                               srcs=(Reg(0, 2), Imm(3))))
        assert plan.wait_groups == ((0, 1 << 2),)
        assert plan.single_wait == (0, 1 << 2)
        assert plan.wait_registers() == [(0, 2)]

    def test_wait_group_merges_repeated_mentions(self):
        # Three register mentions, two distinct registers, one cluster.
        plan = _plan(Operation("iadd", dests=(Reg(0, 1),),
                               srcs=(Reg(0, 1), Reg(0, 3))))
        assert plan.wait_groups == ((0, (1 << 1) | (1 << 3)),)
        assert sorted(plan.wait_registers()) == [(0, 1), (0, 3)]

    def test_pure_waw_write_only_destination_waits(self):
        # No register sources at all: the wait set is the WAW bit alone.
        plan = _plan(Operation("imov", dests=(Reg(1, 5),), srcs=(Imm(7),)))
        assert plan.wait_groups == ((1, 1 << 5),)
        assert plan.values_template == [7]
        assert plan.src_fields == ()

    def test_fork_bindings_plan_mixed_register_and_immediate(self):
        op = Operation("fork", target=Label("child"),
                       bindings=((Reg(0, 1), Reg(0, 4)),
                                 (Reg(1, 2), Imm(9))))
        plan = _plan(op)
        assert plan.control == "fork"
        assert plan.fork_name == "child"
        assert plan.bindings_plan == ((Reg(0, 1), True, 0, 4),
                                      (Reg(1, 2), False, 9, None))
        # Only the register-sourced binding contributes a wait bit.
        assert plan.wait_groups == ((0, 1 << 4),)

    def test_empty_srcs_template_halt(self):
        plan = _plan(Operation("halt"))
        assert plan.values_template is None
        assert plan.src_fields == ()
        assert plan.wait_groups == ()
        assert plan.single_wait is None
        assert plan.control == "halt"
        assert plan.taken_payload == ("halt",)
        assert plan.exec_fn is None          # BRU: no compute closure

    def test_empty_srcs_template_branch_resolves_target(self):
        thread = ThreadProgram("t", labels={"loop": 3})
        plan = _plan(Operation("br", target=Label("loop")), thread)
        assert plan.values_template is None
        assert plan.src_fields == ()
        assert plan.taken_payload == ("jump", 3)
        assert plan.untaken_payload == ("jump", None)

    def test_exec_fn_matches_generic_gather(self):
        # The specialized closures must read exactly what the generic
        # template-patching path reads, padding-with-zero included.
        frame = RegisterFrame(0)
        frame.force(2, 6)
        frame.force(3, 7)
        other = RegisterFrame(1)
        other.force(0, 10)
        frames = {0: frame, 1: other}
        cases = [
            (Operation("imov", dests=(Reg(0, 9),), srcs=(Reg(0, 2),)), 6),
            (Operation("iadd", dests=(Reg(0, 9),),
                       srcs=(Reg(0, 2), Reg(0, 3))), 13),
            (Operation("iadd", dests=(Reg(0, 9),),
                       srcs=(Reg(0, 2), Reg(1, 0))), 16),
            (Operation("iadd", dests=(Reg(0, 9),),
                       srcs=(Reg(0, 2), Imm(30))), 36),
            (Operation("isub", dests=(Reg(0, 9),),
                       srcs=(Imm(30), Reg(0, 3))), 23),
            # Out-of-range index reads as 0, like the generic path.
            (Operation("iadd", dests=(Reg(0, 9),),
                       srcs=(Reg(0, 63), Imm(5))), 5),
            (Operation("imov", dests=(Reg(0, 9),), srcs=(Imm(42),)), 42),
        ]
        for op, expected in cases:
            plan = _plan(op)
            assert plan.exec_fn is not None, op
            assert plan.exec_fn(frames) == expected, op


class TestBlockTable:
    """Lazy superblock compilation over the fixture program."""

    @pytest.fixture()
    def table_and_words(self):
        config = baseline()
        program = compile_program(SOURCE, config, mode="seq").program
        unit_index = {slot.uid: i for i, slot in enumerate(config.units)}
        decoded = decode_program(program, unit_index, config)
        thread = decoded["main"]
        assert isinstance(thread.blocks, BlockTable)
        return thread.blocks, thread.words

    def _hot_entry(self, words):
        entries = sorted(_entry_points(words))
        for ip in entries:
            if ip < len(words) and _build_run(words, ip, True) is not None:
                return ip
        pytest.fail("fixture program has no fusible run")

    def test_entry_compiles_only_after_warmup(self, table_and_words):
        table, words = table_and_words
        entry = self._hot_entry(words)
        for __ in range(_WARMUP_DISPATCHES - 1):
            assert table.get(entry) is None
        block = table.get(entry)
        assert isinstance(block, BlockPlan)
        assert table.get(entry) is block          # cached, not recompiled
        assert table.compiled_blocks() == {entry: block}
        assert block.entry_ip == entry
        assert list(block.word_ips) == \
            list(range(entry, entry + len(block.word_ips)))

    def test_non_entry_ips_never_compile(self, table_and_words):
        table, words = table_and_words
        non_entries = [ip for ip in range(len(words))
                       if ip not in _entry_points(words)]
        assert non_entries, "fixture program has no mid-run words"
        for ip in non_entries:
            for __ in range(_WARMUP_DISPATCHES + 1):
                assert table.get(ip) is None
        assert table.compiled_blocks() == {}

    def test_run_stops_at_terminal_branch(self, table_and_words):
        __, words = table_and_words
        entry = self._hot_entry(words)
        run = _build_run(words, entry, True)
        for __, word, bru in run[:-1]:
            assert bru is None
            assert not any(p.is_bru for p in word.plans)
        # A run either ends at its (sole) control slot or at a
        # non-fusible/terminal boundary.
        last_ip, __, last_bru = run[-1]
        if last_bru is None:
            next_ip = last_ip + 1
            assert next_ip >= len(words) or \
                not _word_fusible(words[next_ip], True)[0] or \
                next_ip in _entry_points(words)

    def test_memory_words_defuse_when_misses_possible(self, table_and_words):
        __, words = table_and_words
        mem_words = [w for w in words
                     if any(p.is_memory for p in w.plans)]
        assert mem_words, "fixture program has no memory words"
        for word in mem_words:
            assert _word_fusible(word, True)[0]
            assert not _word_fusible(word, False)[0]

    def test_synchronizing_memory_ops_are_not_fusible(self):
        op = Operation("ld_ff", dests=(Reg(0, 1),),
                       srcs=(Reg(0, 2), Imm(0)))
        word = WordPlan([_plan(op)])
        ok, bru = _word_fusible(word, True)
        assert not ok and bru is None
