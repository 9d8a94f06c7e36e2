"""Code generation: register allocation/recycling, operation building."""

from repro import compile_program
from repro.machine import baseline

LOOPY = """
(program
  (global A 16)
  (global out 1)
  (main
    (let ((acc 0.0))
      (for (i 0 16)
        ;; several temporaries per iteration
        (set! acc (+ acc (* (aref A i) (+ (aref A i) 1.0)))))
      (aset! out 0 acc))))
"""


def compiled_main(source=LOOPY, mode="sts"):
    compiled = compile_program(source, baseline(), mode=mode)
    return compiled, compiled.program.thread("main")


class TestRegisterRecycling:
    def test_temporaries_reuse_slots(self):
        """A loop body allocating temporaries every iteration must not
        grow register usage with loop length."""
        compiled, __ = compiled_main()
        peak = max(compiled.peak_registers().values())
        assert peak < 20

    def test_home_registers_stable_across_blocks(self):
        """The accumulator is read and written in several blocks; all
        occurrences must use one physical register."""
        compiled, thread = compiled_main()
        # acc is the only float home crossing blocks: find the register
        # written by fadd (the accumulation) in the loop and check the
        # final store reads the same one.
        fadd_dests = set()
        store_srcs = set()
        for word in thread.instructions:
            for __, op in word:
                if op.name == "fadd":
                    fadd_dests.update(op.dests)
                if op.name == "st":
                    store_srcs.add(op.srcs[0])
        assert store_srcs & fadd_dests

    def test_no_register_collision_at_runtime(self):
        """Recycled slots must never corrupt values (covered broadly by
        the differential suite; this is the focused canary)."""
        from repro import run_program
        compiled, __ = compiled_main()
        inputs = {"A": [0.25 * i for i in range(16)]}
        result = run_program(compiled.program, baseline(),
                             overrides=inputs)
        expected = 0.0
        for i in range(16):
            expected += inputs["A"][i] * (inputs["A"][i] + 1.0)
        assert result.read_symbol("out") == [expected]


class TestEmittedCode:
    def test_memory_operations_carry_base_immediates(self):
        __, thread = compiled_main()
        loads = [op for word in thread.instructions
                 for __, op in word if op.name == "ld"]
        assert loads
        for op in loads:
            base = op.srcs[1]
            assert hasattr(base, "value")       # an immediate

    def test_every_word_nonempty_and_wellformed(self):
        __, thread = compiled_main()
        assert all(len(word) >= 1 for word in thread.instructions)

    def test_branch_ops_only_on_branch_units(self):
        from repro.isa.instruction import parse_unit_id
        __, thread = compiled_main()
        for word in thread.instructions:
            for uid, op in word:
                __, kind, __ = parse_unit_id(uid)
                assert (op.spec.unit is kind)

    def test_report_counts_match_program(self):
        compiled, thread = compiled_main()
        report = compiled.main_report
        assert report.words == len(thread.instructions)
        assert report.operations == sum(len(w)
                                        for w in thread.instructions)
        assert sum(report.block_words.values()) == report.words
