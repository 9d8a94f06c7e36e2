"""Compiler option plumbing."""

from repro import compile_program, run_program
from repro.compiler.options import ABLATIONS, CompilerOptions, \
    DEFAULT_OPTIONS
from repro.machine import baseline

SOURCE = """
(program
  (global A 8)
  (global out 8)
  (main
    (for (i 0 8)
      (aset! out i (+ (aref A i) (aref A i))))))
"""


class TestOptions:
    def test_without_helper(self):
        options = DEFAULT_OPTIONS.without(load_elimination=False)
        assert not options.load_elimination
        assert options.optimize
        assert DEFAULT_OPTIONS.load_elimination    # original untouched

    def test_ablations_cover_every_flag(self):
        flags = set(vars(DEFAULT_OPTIONS))
        toggled = set()
        for options in ABLATIONS.values():
            for flag in flags:
                if getattr(options, flag) != getattr(DEFAULT_OPTIONS,
                                                     flag):
                    toggled.add(flag)
        assert toggled == flags

    def test_optimize_false_shorthand(self):
        config = baseline()
        via_flag = compile_program(SOURCE, config, mode="sts",
                                   optimize=False)
        via_options = compile_program(
            SOURCE, config, mode="sts",
            options=CompilerOptions(optimize=False))
        assert via_flag.static_operation_count() == \
            via_options.static_operation_count()

    def test_no_load_elimination_keeps_both_loads(self):
        config = baseline()
        full = compile_program(SOURCE, config, mode="sts")
        ablated = compile_program(
            SOURCE, config, mode="sts",
            options=DEFAULT_OPTIONS.without(load_elimination=False))
        assert ablated.static_operation_count() > \
            full.static_operation_count()

    def test_every_ablation_is_correct(self):
        config = baseline()
        inputs = {"A": [0.5 * i for i in range(8)]}
        expected = [i * 1.0 for i in range(8)]
        for name, options in ABLATIONS.items():
            compiled = compile_program(SOURCE, config, mode="sts",
                                       options=options)
            result = run_program(compiled.program, config,
                                 overrides=inputs)
            assert result.read_symbol("out") == expected, name
