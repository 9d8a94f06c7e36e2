"""Optimizer passes: value numbering, global constants, DCE."""

from repro.compiler.astnodes import FLOAT, GlobalDecl, INT, Num
from repro.compiler.frontend import parse_stmt
from repro.compiler.lowering import lower_thread
from repro.compiler.optimize import optimize_thread
from repro.compiler.optimize.dce import eliminate_dead_code
from repro.compiler.optimize.globalprop import propagate_global_constants
from repro.compiler.sexpr import read_one
from repro.compiler.ir import Const

SYMBOLS = {
    "F": GlobalDecl("F", Num(16), FLOAT, True),
    "I": GlobalDecl("I", Num(16), INT, True),
}


def lowered(text, params=()):
    body = parse_stmt(read_one(text))
    return lower_thread("t", body, SYMBOLS, {}, params)


def ops_of(thread_ir):
    return [i.op for b in thread_ir.blocks for i in b.all_instrs()]


def count_op(thread_ir, name):
    return ops_of(thread_ir).count(name)


class TestConstantFolding:
    def test_constant_expression_folds_away(self):
        thread_ir = lowered("(let ((x (+ 2 3))) (aset! I 0 (* x 4)))")
        optimize_thread(thread_ir)
        stores = [i for b in thread_ir.blocks for i in b.all_instrs()
                  if i.op == "st"]
        assert stores[0].srcs[0] == Const(20)
        assert count_op(thread_ir, "iadd") == 0
        assert count_op(thread_ir, "imul") == 0

    def test_division_by_zero_not_folded(self):
        thread_ir = lowered("(let ((x (aref I 0))) "
                            "(aset! I 1 (/ (* x 0) (+ 0 0))))")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "idiv") == 1


class TestAlgebraicIdentities:
    def test_add_zero_eliminated(self):
        thread_ir = lowered("(let ((x (aref I 0))) (aset! I 1 (+ x 0)))")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "iadd") == 0

    def test_multiply_one_eliminated(self):
        thread_ir = lowered("(let ((x (aref I 0))) (aset! I 1 (* x 1)))")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "imul") == 0

    def test_multiply_zero_becomes_constant(self):
        thread_ir = lowered("(let ((x (aref I 0))) (aset! I 1 (* x 0)))")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "imul") == 0

    def test_float_identities_left_alone(self):
        thread_ir = lowered("(let ((x (aref F 0))) "
                            "(aset! F 1 (+ x 0.0)))")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "fadd") == 1


class TestCSE:
    def test_common_subexpression_shared(self):
        thread_ir = lowered("""
(let ((i (aref I 0)))
  (aset! F (+ (* i 8) 1) 1.0)
  (aset! F (+ (* i 8) 2) 2.0))
""")
        before = count_op(thread_ir, "imul")
        optimize_thread(thread_ir)
        assert before == 2
        assert count_op(thread_ir, "imul") == 1

    def test_redefined_operand_blocks_cse(self):
        thread_ir = lowered("""
(let ((i 1))
  (aset! I 0 (* i 8))
  (set! i 2)
  (aset! I 1 (* i 8)))
""")
        optimize_thread(thread_ir)
        stores = [i for b in thread_ir.blocks for i in b.all_instrs()
                  if i.op == "st"]
        assert stores[0].srcs[0] == Const(8)
        assert stores[1].srcs[0] == Const(16)


class TestRedundantLoadElimination:
    def test_repeated_load_becomes_register_copy(self):
        thread_ir = lowered("""
(let ((a (aref F 3)) (b (aref F 3)))
  (aset! F 0 (+ a b)))
""")
        assert count_op(thread_ir, "ld") == 2
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "ld") == 1

    def test_intervening_store_blocks_elimination(self):
        thread_ir = lowered("""
(let ((a (aref F 3)))
  (aset! F 3 9.0)
  (let ((b (aref F 3)))
    (aset! F 0 (+ a b))))
""")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "ld") == 2

    def test_store_to_other_array_does_not_block(self):
        thread_ir = lowered("""
(let ((a (aref F 3)))
  (aset! I 3 9)
  (let ((b (aref F 3)))
    (aset! F 0 (+ a b))))
""")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "ld") == 1

    def test_sync_load_never_eliminated(self):
        thread_ir = lowered("""
(begin
  (sync (aref-ff I 3))
  (sync (aref-ff I 3)))
""")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "ld_ff") == 2


class TestGlobalConstants:
    def test_single_def_constant_propagates_across_blocks(self):
        thread_ir = lowered("""
(let ((limit 10) (i 0))
  (while (< i limit)
    (set! i (+ i 1)))
  (aset! I 0 i))
""")
        optimize_thread(thread_ir)
        # 'limit' should be folded into the loop-header compare.
        compares = [i for b in thread_ir.blocks for i in b.all_instrs()
                    if i.op == "ilt"]
        assert compares and compares[0].srcs[1] == Const(10)

    def test_multiply_defined_home_not_propagated(self):
        thread_ir = lowered("""
(let ((x 1))
  (if (aref I 0) (set! x 2))
  (aset! I 1 x))
""")
        propagate_global_constants(thread_ir)
        stores = [i for b in thread_ir.blocks for i in b.all_instrs()
                  if i.op == "st" and i.sym == "I"]
        assert not isinstance(stores[-1].srcs[0], Const)

    def test_params_never_propagated(self):
        thread_ir = lowered("(aset! I 0 p)", params=(("p", INT),))
        changed = propagate_global_constants(thread_ir)
        assert changed == 0


class TestDCE:
    def test_unused_pure_computation_removed(self):
        thread_ir = lowered("""
(let ((dead (* 3 4)) (live (aref I 0)))
  (aset! I 1 live))
""")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "imul") == 0

    def test_stores_never_removed(self):
        thread_ir = lowered("(aset! I 0 7)")
        eliminate_dead_code(thread_ir)
        assert count_op(thread_ir, "st") == 1

    def test_loads_never_removed(self):
        # A load's result may be unused but the access stays (it is not
        # pure: sync variants change presence bits).
        thread_ir = lowered("(sync (aref-fe I 0))")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "ld_fe") == 1

    def test_live_out_values_kept(self):
        thread_ir = lowered("""
(let ((x (aref I 0)))
  (while (< x 10)
    (set! x (+ x 1)))
  (aset! I 1 x))
""")
        optimize_thread(thread_ir)
        assert count_op(thread_ir, "iadd") >= 1
