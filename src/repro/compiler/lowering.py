"""Lowering: expanded AST statements to the basic-block IR.

Performs type inference (int/float with automatic int-to-float widening
and explicit ``(int ...)`` narrowing), selects ISA opcodes, builds the
CFG for structured control flow, and assigns every mutable variable a
*home* virtual register.
"""

from ..errors import CompileError
from .astnodes import (Aref, Aset, BINOPS, BinOp, ExprStmt, FLOAT, Fork, If,
                       IfExpr, INT, Let, LOAD_FLAVORS, Num, PREDICATES, Seq,
                       SetVar, STORE_FLAVORS, Sync, UnOp, UNOPS, Var, While)
from .ir import Const, IRInstr, ThreadIR


class Lowerer:
    """Lower one thread's statements to a :class:`ThreadIR`."""

    def __init__(self, name, symbols, kernel_signatures, params=()):
        self.ir = ThreadIR(name)
        self.symbols = symbols                    # name -> GlobalDecl
        self.kernel_signatures = kernel_signatures  # name -> [param types]
        self.env = {}
        for param_name, param_type in params:
            home = self.ir.new_vreg(param_type, param_name, is_home=True)
            self.env[param_name] = home
            self.ir.params.append((param_name, home))
            self.ir.homes[param_name] = home
        self.block = self.ir.new_block()

    # -- helpers ---------------------------------------------------------

    def emit(self, op, dest=None, srcs=(), **kwargs):
        return self.block.emit(IRInstr(op, dest, list(srcs), **kwargs))

    def mov(self, dest, operand):
        op = "imov" if dest.type is INT else "fmov"
        self.emit(op, dest, [operand])

    def coerce(self, operand, to_type, context="expression"):
        if operand.type == to_type:
            return operand
        if to_type is FLOAT:
            if isinstance(operand, Const):
                return Const(float(operand.value))
            temp = self.ir.new_vreg(FLOAT)
            self.emit("itof", temp, [operand])
            return temp
        raise CompileError("implicit float-to-int narrowing in %s; use "
                           "(int ...)" % context)

    def _int_index(self, node, array):
        operand = self.expr(node)
        if operand.type is not INT:
            raise CompileError("index into %r must be an integer" % array)
        return operand

    def _symbol(self, array):
        decl = self.symbols.get(array)
        if decl is None:
            raise CompileError("unknown array %r" % array)
        return decl

    # -- expressions -------------------------------------------------------

    def expr(self, node, dest=None):
        """Lower an expression; returns its operand.  When ``dest`` (a
        home VReg) is given, the value is left exactly there."""
        operand = self._expr(node, dest)
        if dest is None or operand is dest:
            return operand
        operand = self.coerce(operand, dest.type,
                              "assignment to %s" % (dest.name or dest))
        self.mov(dest, operand)
        return dest

    def _result_reg(self, dest, rtype):
        if dest is not None and dest.type == rtype:
            return dest
        return self.ir.new_vreg(rtype)

    def _expr(self, node, dest):
        if isinstance(node, Num):
            return Const(node.value)
        if isinstance(node, Var):
            home = self.env.get(node.name)
            if home is None:
                raise CompileError("unbound variable %r" % node.name)
            return home
        if isinstance(node, BinOp):
            return self._binop(node, dest)
        if isinstance(node, UnOp):
            return self._unop(node, dest)
        if isinstance(node, Aref):
            decl = self._symbol(node.array)
            index = self._int_index(node.index, node.array)
            result = self._result_reg(dest, decl.elem_type)
            self.emit(LOAD_FLAVORS[node.flavor], result, [index],
                      sym=node.array)
            return result
        if isinstance(node, IfExpr):
            return self._if_expr(node)
        raise CompileError("cannot lower expression %r" % node)

    def _binop(self, node, dest):
        left = self.expr(node.left)
        right = self.expr(node.right)
        int_name, float_name = BINOPS[node.op]
        use_float = FLOAT in (left.type, right.type)
        if use_float and float_name is None:
            raise CompileError("operator %r is integer-only" % node.op)
        if use_float:
            left = self.coerce(left, FLOAT)
            right = self.coerce(right, FLOAT)
        opname = float_name if use_float else int_name
        rtype = INT if node.op in PREDICATES else (FLOAT if use_float
                                                   else INT)
        result = self._result_reg(dest, rtype)
        self.emit(opname, result, [left, right])
        return result

    def _unop(self, node, dest):
        operand = self.expr(node.operand)
        if node.op == "float":
            if operand.type is FLOAT:
                return operand
            if isinstance(operand, Const):
                return Const(float(operand.value))
            result = self._result_reg(dest, FLOAT)
            self.emit("itof", result, [operand])
            return result
        if node.op == "int":
            if operand.type is INT:
                return operand
            if isinstance(operand, Const):
                return Const(int(operand.value))
            result = self._result_reg(dest, INT)
            self.emit("ftoi", result, [operand])
            return result
        int_name, float_name = UNOPS[node.op]
        if operand.type is FLOAT and float_name is None:
            raise CompileError("operator %r is integer-only" % node.op)
        if operand.type is INT and int_name is None:
            operand = self.coerce(operand, FLOAT)
        opname = float_name if operand.type is FLOAT else int_name
        result = self._result_reg(dest, operand.type)
        self.emit(opname, result, [operand])
        return result

    def _if_expr(self, node):
        """Ternary: both arms write one join register."""
        # Pre-lower the arms' types by peeking: lower into a typed join
        # home after computing the condition.
        cond = self.expr(node.cond)
        brf = IRInstr("brf", srcs=[cond], target=None)
        self.block.terminator = brf
        then_block = self.ir.new_block("t")
        self.block = then_block
        then_value = self.expr(node.then)
        join_type = then_value.type
        # The join register is written in two blocks, so it must be a
        # home (fixed-location) register.
        join_reg = self.ir.new_vreg(join_type, "ifv", is_home=True)
        then_value = self.coerce(then_value, join_type)
        self.mov(join_reg, then_value)
        then_exit_br = IRInstr("br", target=None)
        self.block.terminator = then_exit_br
        else_block = self.ir.new_block("e")
        brf.target = else_block.name
        self.block = else_block
        else_value = self.expr(node.els)
        if else_value.type is FLOAT and join_type is INT:
            raise CompileError("if-expression arms mix float and int; "
                               "widen the first arm with (float ...)")
        else_value = self.coerce(else_value, join_type)
        self.mov(join_reg, else_value)
        join_block = self.ir.new_block("j")
        then_exit_br.target = join_block.name
        self.block = join_block
        return join_reg

    # -- statements ----------------------------------------------------------

    def stmt(self, node):
        if isinstance(node, Seq):
            for child in node.body:
                self.stmt(child)
        elif isinstance(node, Let):
            saved = dict(self.env)
            for name, init in node.bindings:
                operand = self.expr(init)
                home = self.ir.new_vreg(operand.type, name, is_home=True)
                self.mov(home, operand)
                self.env[name] = home
                self.ir.homes.setdefault(name, home)
            self.stmt(node.body)
            self.env = saved
        elif isinstance(node, SetVar):
            home = self.env.get(node.name)
            if home is None:
                raise CompileError("set! of unbound variable %r" % node.name)
            self.expr(node.expr, dest=home)
        elif isinstance(node, Aset):
            decl = self._symbol(node.array)
            value = self.expr(node.value)
            value = self.coerce(value, decl.elem_type,
                                "store into %r" % node.array)
            index = self._int_index(node.index, node.array)
            self.emit(STORE_FLAVORS[node.flavor], None, [value, index],
                      sym=node.array)
        elif isinstance(node, If):
            self._if_stmt(node)
        elif isinstance(node, While):
            self._while_stmt(node)
        elif isinstance(node, Sync):
            operand = self.expr(node.expr)
            if not isinstance(operand, Const):
                self.emit("sink", None, [operand])
        elif isinstance(node, Fork):
            self._fork_stmt(node)
        elif isinstance(node, ExprStmt):
            self.expr(node.expr)
        else:
            raise CompileError("cannot lower statement %r" % node)

    def _if_stmt(self, node):
        cond = self.expr(node.cond)
        brf = IRInstr("brf", srcs=[cond], target=None)
        self.block.terminator = brf
        self.block = self.ir.new_block("t")
        self.stmt(node.then)
        if node.els is None:
            join = self.ir.new_block("j")
            brf.target = join.name
            self.block = join
            return
        then_exit_br = IRInstr("br", target=None)
        self.block.terminator = then_exit_br
        else_block = self.ir.new_block("e")
        brf.target = else_block.name
        self.block = else_block
        self.stmt(node.els)
        join = self.ir.new_block("j")
        then_exit_br.target = join.name
        self.block = join

    def _while_stmt(self, node):
        header = self.ir.new_block("h")
        self.block = header
        cond = self.expr(node.cond)
        brf = IRInstr("brf", srcs=[cond], target=None)
        self.block.terminator = brf
        self.block = self.ir.new_block("w")
        self.stmt(node.body)
        self.block.terminator = IRInstr("br", target=header.name)
        exit_block = self.ir.new_block("x")
        brf.target = exit_block.name
        self.block = exit_block

    def _fork_stmt(self, node):
        signature = self.kernel_signatures.get(node.kernel)
        if signature is None:
            raise CompileError("fork of unknown kernel %r" % node.kernel)
        if len(signature) != len(node.args):
            raise CompileError("kernel %r takes %d arguments, got %d"
                               % (node.kernel, len(signature),
                                  len(node.args)))
        operands = []
        for arg, ptype in zip(node.args, signature):
            operand = self.expr(arg)
            operand = self.coerce(operand, ptype,
                                  "fork argument of %r" % node.kernel)
            operands.append(operand)
        self.emit("fork", None, [], target=node.variant or node.kernel,
                  fork_args=operands, fork_cluster=node.cluster)

    def finish(self):
        if self.block.terminator is None:
            self.block.terminator = IRInstr("halt")
        else:
            tail = self.ir.new_block("z")
            tail.terminator = IRInstr("halt")
        self.ir.validate()
        return self.ir


def lower_thread(name, body, symbols, kernel_signatures, params=()):
    """Lower a fully expanded thread body to IR."""
    lowerer = Lowerer(name, symbols, kernel_signatures, params)
    lowerer.stmt(body)
    return lowerer.finish()
