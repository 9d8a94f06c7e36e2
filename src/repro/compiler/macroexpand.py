"""Macro expansion: constants, static unrolling, forall, inlining.

Mirrors the paper's compiler front end: procedures are implemented as
macro-expansions (``call`` sites are inlined with renamed locals), loops
are unrolled by hand via the ``unroll`` form (bounds must reduce to
compile-time constants), ``forall`` expands to one ``fork`` per index,
``for`` is sugar for ``let`` + ``while``, and named constants are
substituted and folded.
"""

from ..errors import CompileError
from ..isa.operations import opcode
from .astnodes import (Aref, Aset, BINOPS, BinOp, Call, ExprStmt, FLOAT,
                       For, Forall, Fork, If, IfExpr, INT, Let, Num, Seq,
                       SetVar, Sync, UnOp, UNOPS, Unroll, Var, While)

_INLINE_DEPTH_LIMIT = 64


def num_type(value):
    return FLOAT if isinstance(value, float) else INT


def fold_binop(op, left, right):
    """Fold a binary operator over two constants using the exact ISA
    semantics (so the compiler and the machine always agree)."""
    int_name, float_name = BINOPS[op]
    use_float = (num_type(left) is FLOAT or num_type(right) is FLOAT)
    if use_float and float_name is None:
        raise CompileError("operator %r is integer-only" % op)
    name = float_name if use_float else int_name
    try:
        return opcode(name).semantics(left, right)
    except ArithmeticError as exc:
        raise CompileError("constant %s folds to an error: %s" % (op, exc))


def fold_unop(op, value):
    if op == "float":
        return float(value)
    if op == "int":
        return int(value)
    int_name, float_name = UNOPS[op]
    name = float_name if num_type(value) is FLOAT else int_name
    if name is None and float_name is not None:
        # Mirror lowering: float-only operators widen integer operands.
        value = float(value)
        name = float_name
    if name is None:
        raise CompileError("operator %r unsupported for %s" % (op, value))
    return opcode(name).semantics(value)


class Expander:
    """Performs all macro-level rewrites over statements/expressions."""

    def __init__(self, kernels, consts):
        self.kernels = kernels
        self.consts = dict(consts)     # name -> numeric value
        self._gensym = 0

    def gensym(self, base):
        self._gensym += 1
        return "%s~%d" % (base, self._gensym)

    # -- expressions -----------------------------------------------------

    def expr(self, node, env):
        if isinstance(node, Num):
            return node
        if isinstance(node, Var):
            if node.name in env:
                replacement = env[node.name]
                return replacement if isinstance(replacement, Num) \
                    else Var(replacement)
            if node.name in self.consts:
                return Num(self.consts[node.name])
            return node
        if isinstance(node, BinOp):
            left = self.expr(node.left, env)
            right = self.expr(node.right, env)
            if isinstance(left, Num) and isinstance(right, Num):
                return Num(fold_binop(node.op, left.value, right.value))
            return BinOp(node.op, left, right)
        if isinstance(node, UnOp):
            operand = self.expr(node.operand, env)
            if isinstance(operand, Num):
                return Num(fold_unop(node.op, operand.value))
            return UnOp(node.op, operand)
        if isinstance(node, Aref):
            return Aref(node.array, self.expr(node.index, env), node.flavor)
        if isinstance(node, IfExpr):
            cond = self.expr(node.cond, env)
            if isinstance(cond, Num):
                chosen = node.then if cond.value else node.els
                return self.expr(chosen, env)
            return IfExpr(cond, self.expr(node.then, env),
                          self.expr(node.els, env))
        if isinstance(node, Call):
            raise CompileError("(call ...) is a statement; kernels do not "
                               "return values")
        raise CompileError("unexpected expression node %r" % node)

    def static_value(self, node, env, what):
        folded = self.expr(node, env)
        if not isinstance(folded, Num):
            raise CompileError("%s must be a compile-time constant" % what)
        return folded.value

    # -- statements --------------------------------------------------------

    def stmt(self, node, env, depth=0):
        if depth > _INLINE_DEPTH_LIMIT:
            raise CompileError("inline expansion too deep (recursive "
                               "kernel call?)")
        if isinstance(node, Seq):
            return Seq([self.stmt(s, env, depth) for s in node.body])
        if isinstance(node, Let):
            return self._expand_let(node, env, depth)
        if isinstance(node, SetVar):
            target = env.get(node.name, node.name)
            if isinstance(target, Num):
                raise CompileError("cannot set! unrolled loop variable %r"
                                   % node.name)
            return SetVar(target, self.expr(node.expr, env))
        if isinstance(node, Aset):
            return Aset(node.array, self.expr(node.index, env),
                        self.expr(node.value, env), node.flavor)
        if isinstance(node, If):
            cond = self.expr(node.cond, env)
            then = self.stmt(node.then, env, depth)
            els = self.stmt(node.els, env, depth) if node.els else None
            if isinstance(cond, Num):
                if cond.value:
                    return then
                return els if els is not None else Seq([])
            return If(cond, then, els)
        if isinstance(node, While):
            return While(self.expr(node.cond, env),
                         self.stmt(node.body, env, depth))
        if isinstance(node, For):
            return self._expand_for(node, env, depth)
        if isinstance(node, Unroll):
            return self._expand_unroll(node, env, depth)
        if isinstance(node, Forall):
            return self._expand_forall(node, env, depth)
        if isinstance(node, Fork):
            self._check_kernel(node.kernel, len(node.args))
            return Fork(node.kernel,
                        [self.expr(a, env) for a in node.args],
                        cluster=node.cluster, variant=node.variant)
        if isinstance(node, Sync):
            return Sync(self.expr(node.expr, env))
        if isinstance(node, ExprStmt):
            if isinstance(node.expr, Call):
                return self._inline_call(node.expr, env, depth)
            return ExprStmt(self.expr(node.expr, env))
        raise CompileError("unexpected statement node %r" % node)

    def _expand_let(self, node, env, depth):
        new_env = dict(env)
        bindings = []
        for name, expr in node.bindings:
            fresh = self.gensym(name) if depth > 0 else name
            bindings.append((fresh, self.expr(expr, new_env)))
            new_env[name] = fresh
        return Let(bindings, self.stmt(node.body, new_env, depth))

    def _expand_for(self, node, env, depth):
        """Rewrite ``for`` into ``let`` + ``while`` (C semantics)."""
        step = node.step if node.step is not None else Num(1)
        var = self.gensym(node.var) if depth > 0 else node.var
        limit = self.gensym(node.var + "-limit")
        body_env = dict(env)
        body_env[node.var] = var
        body = self.stmt(node.body, body_env, depth)
        loop = While(BinOp("<", Var(var), Var(limit)),
                     Seq([body,
                          SetVar(var, BinOp("+", Var(var),
                                            self.expr(step, env)))]))
        return Let([(var, self.expr(node.lo, env)),
                    (limit, self.expr(node.hi, env))], Seq([loop]))

    def _expand_unroll(self, node, env, depth):
        lo = self.static_value(node.lo, env, "unroll lower bound")
        hi = self.static_value(node.hi, env, "unroll upper bound")
        step = 1 if node.step is None else \
            self.static_value(node.step, env, "unroll step")
        if step == 0:
            raise CompileError("unroll step must be nonzero")
        iterations = []
        value = lo
        while (value < hi) if step > 0 else (value > hi):
            body_env = dict(env)
            body_env[node.var] = Num(value)
            iterations.append(self.stmt(node.body, body_env, depth))
            value += step
        return Seq(iterations)

    def _expand_forall(self, node, env, depth):
        lo = self.static_value(node.lo, env, "forall lower bound")
        hi = self.static_value(node.hi, env, "forall upper bound")
        forks = []
        for value in range(lo, hi):
            body_env = dict(env)
            body_env[node.var] = Num(value)
            forks.append(self.stmt(node.fork, body_env, depth))
        return Seq(forks)

    def _check_kernel(self, name, n_args):
        kernel = self.kernels.get(name)
        if kernel is None:
            raise CompileError("unknown kernel %r" % name)
        if len(kernel.params) != n_args:
            raise CompileError("kernel %r takes %d arguments, got %d"
                               % (name, len(kernel.params), n_args))

    def _inline_call(self, call, env, depth):
        """Macro-expand a procedure call: bind renamed parameters with a
        let and splice the (renamed) body in."""
        self._check_kernel(call.name, len(call.args))
        kernel = self.kernels[call.name]
        bindings = []
        body_env = dict(env)
        for (param, ptype), arg in zip(kernel.params, call.args):
            fresh = self.gensym(param)
            value = self.expr(arg, env)
            if ptype is FLOAT:
                value = Num(float(value.value)) if isinstance(value, Num) \
                    else UnOp("float", value)
            bindings.append((fresh, value))
            body_env[param] = fresh
        # Locals of the callee are renamed by recursing at depth+1.
        body = self.stmt(kernel.body, body_env, depth + 1)
        return Let(bindings, Seq([body]))


def expand_thread(body, kernels, consts):
    """Expand one thread body (main or a kernel) to core statements:
    Seq/Let/SetVar/Aset/If/While/Fork/ExprStmt only."""
    expander = Expander(kernels, consts)
    return expander.stmt(body, {})


def expand_kernel(kernel, kernels, consts):
    """Expand a kernel body, keeping its parameter names intact."""
    expander = Expander(kernels, consts)
    env = {param: param for param in kernel.params}
    return expander.stmt(kernel.body, env)


def resolve_consts(const_decls):
    """Evaluate (const ...) declarations in order."""
    consts = {}
    expander = Expander({}, consts)
    for decl in const_decls:
        folded = expander.expr(decl.value, {})
        if not isinstance(folded, Num):
            raise CompileError("const %r is not a compile-time constant"
                               % decl.name)
        consts[decl.name] = folded.value
        expander.consts[decl.name] = folded.value
    return consts
