"""Reference interpreter for the source language.

Executes the macro-expanded AST directly with the *same* numeric
semantics as the compiled machine code (opcode semantics are shared
with the ISA, and the lowering's type-widening rules are mirrored), so
``interpret(source) == simulate(compile(source))`` is a meaningful
differential test for the entire compiler + simulator stack.

Forks run inline at the fork point (depth-first).  This is equivalent
for race-free programs — which all the paper's benchmarks are — and the
synchronizing accesses are honoured: an access whose precondition fails
under inline execution raises :class:`InterpError`, since sequential
execution can never satisfy it later.
"""

from dataclasses import dataclass

from ..errors import InterpError
from .astnodes import (Aref, Aset, BinOp, ExprStmt, FLOAT, Fork, If, IfExpr,
                       INT, Let, Num, PREDICATES, Seq, SetVar, Sync, UnOp, Var,
                       While)
from .frontend import parse_program
from .macroexpand import (Expander, expand_kernel, expand_thread,
                          fold_binop, fold_unop, resolve_consts)

_DEFAULT_STEP_LIMIT = 50_000_000


@dataclass
class InterpResult:
    """Final memory state after interpretation."""

    memory: dict          # symbol -> list of values
    presence: dict        # symbol -> list of bools
    steps: int

    def read_symbol(self, name):
        return list(self.memory[name])

    def symbol_presence(self, name):
        return list(self.presence[name])


class _Array:
    def __init__(self, name, size, elem_type, initially_full, values=None):
        self.name = name
        self.elem_type = elem_type
        zero = 0.0 if elem_type is FLOAT else 0
        self.values = list(values) if values is not None else [zero] * size
        self.full = [initially_full] * size

    def check(self, index):
        if not 0 <= index < len(self.values):
            raise InterpError("index %d out of range for %s[%d]"
                              % (index, self.name, len(self.values)))


def _coerce(value, to_type, context):
    if to_type is FLOAT:
        return float(value)
    if isinstance(value, float):
        raise InterpError("implicit float-to-int narrowing in %s" % context)
    return value


class Interpreter:
    """Interprets one program (shared memory, inline forks)."""

    def __init__(self, ast, overrides=None, max_steps=_DEFAULT_STEP_LIMIT):
        self.ast = ast
        self.consts = resolve_consts(ast.consts)
        self.max_steps = max_steps
        self.steps = 0
        sizer = Expander(ast.kernels, self.consts)
        overrides = overrides or {}
        self.arrays = {}
        for decl in ast.globals:
            size = sizer.static_value(decl.size, {}, "global size")
            values = overrides.get(decl.name)
            if values is not None and len(values) != size:
                raise InterpError("override for %r has %d values, need %d"
                                  % (decl.name, len(values), size))
            self.arrays[decl.name] = _Array(decl.name, size, decl.elem_type,
                                            decl.initially_full, values)
        unknown = set(overrides) - set(self.arrays)
        if unknown:
            raise InterpError("overrides for unknown symbols %s"
                              % sorted(unknown))

    def _tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError("step limit exceeded (%d); diverging loop?"
                              % self.max_steps)

    # -- expressions -------------------------------------------------------

    def eval(self, node, env):
        self._tick()
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise InterpError("unbound variable %r" % node.name)
        if isinstance(node, BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            return fold_binop(node.op, left, right)
        if isinstance(node, UnOp):
            return fold_unop(node.op, self.eval(node.operand, env))
        if isinstance(node, Aref):
            return self._load(node, env)
        if isinstance(node, IfExpr):
            cond = self.eval(node.cond, env)
            value = self.eval(node.then if cond else node.els, env)
            # Mirror lowering: the join value is typed by the then-arm,
            # and a float else-arm with an int then-arm is rejected.
            join_type = self._type_of(node.then, env)
            if join_type is INT and self._type_of(node.els, env) is FLOAT:
                raise InterpError("if-expression arms mix float and int")
            return float(value) if join_type is FLOAT else value
        raise InterpError("cannot evaluate %r" % node)

    def _type_of(self, node, env):
        """Static type of an expression, mirroring lowering exactly."""
        if isinstance(node, Num):
            return node.type
        if isinstance(node, Var):
            return FLOAT if isinstance(env.get(node.name), float) else INT
        if isinstance(node, BinOp):
            if node.op in PREDICATES:
                return INT
            if FLOAT in (self._type_of(node.left, env),
                         self._type_of(node.right, env)):
                return FLOAT
            return INT
        if isinstance(node, UnOp):
            if node.op == "float":
                return FLOAT
            if node.op == "int":
                return INT
            if node.op in ("abs", "sqrt"):
                return FLOAT
            return self._type_of(node.operand, env)
        if isinstance(node, Aref):
            array = self.arrays.get(node.array)
            if array is None:
                raise InterpError("unknown array %r" % node.array)
            return array.elem_type
        if isinstance(node, IfExpr):
            return self._type_of(node.then, env)
        raise InterpError("cannot type %r" % node)

    def _index(self, node, env, array):
        index = self.eval(node, env)
        if isinstance(index, float):
            raise InterpError("float index into %r" % array)
        return index

    def _load(self, node, env):
        array = self.arrays.get(node.array)
        if array is None:
            raise InterpError("unknown array %r" % node.array)
        index = self._index(node.index, env, node.array)
        array.check(index)
        if node.flavor in ("ff", "fe") and not array.full[index]:
            raise InterpError(
                "synchronizing load of empty %s[%d] would block forever "
                "under sequential execution" % (node.array, index))
        value = array.values[index]
        if node.flavor == "fe":
            array.full[index] = False
        return value

    # -- statements ------------------------------------------------------------

    def exec(self, node, env):
        self._tick()
        if isinstance(node, Seq):
            for child in node.body:
                self.exec(child, env)
        elif isinstance(node, Let):
            inner = dict(env)
            for name, expr in node.bindings:
                inner[name] = self.eval(expr, inner)
            self.exec(node.body, inner)
            # Mutations of outer variables must escape the let scope.
            for name in env:
                if name not in [n for n, __ in node.bindings]:
                    env[name] = inner[name]
        elif isinstance(node, SetVar):
            if node.name not in env:
                raise InterpError("set! of unbound variable %r" % node.name)
            to_type = FLOAT if isinstance(env[node.name], float) else INT
            env[node.name] = _coerce(self.eval(node.expr, env), to_type,
                                     "assignment to %r" % node.name)
        elif isinstance(node, Aset):
            self._store(node, env)
        elif isinstance(node, If):
            if self.eval(node.cond, env):
                self.exec(node.then, env)
            elif node.els is not None:
                self.exec(node.els, env)
        elif isinstance(node, While):
            while self.eval(node.cond, env):
                self.exec(node.body, env)
        elif isinstance(node, Sync):
            self.eval(node.expr, env)
        elif isinstance(node, Fork):
            self._fork(node, env)
        elif isinstance(node, ExprStmt):
            self.eval(node.expr, env)
        else:
            raise InterpError("cannot execute %r" % node)

    def _store(self, node, env):
        array = self.arrays.get(node.array)
        if array is None:
            raise InterpError("unknown array %r" % node.array)
        index = self._index(node.index, env, node.array)
        array.check(index)
        if node.flavor == "ff" and not array.full[index]:
            raise InterpError("st_ff into empty %s[%d] would block"
                              % (node.array, index))
        if node.flavor == "ef" and array.full[index]:
            raise InterpError("st_ef into full %s[%d] would block"
                              % (node.array, index))
        value = _coerce(self.eval(node.value, env), array.elem_type,
                        "store into %r" % node.array)
        array.values[index] = value
        array.full[index] = True

    def _fork(self, node, env):
        kernel = self.ast.kernels.get(node.kernel)
        if kernel is None:
            raise InterpError("fork of unknown kernel %r" % node.kernel)
        if len(kernel.params) != len(node.args):
            raise InterpError("kernel %r takes %d args, got %d"
                              % (node.kernel, len(kernel.params),
                                 len(node.args)))
        child_env = {}
        for (name, ptype), arg in zip(kernel.params, node.args):
            child_env[name] = _coerce(self.eval(arg, env), ptype,
                                      "fork argument %r" % name)
        body = expand_kernel(kernel, self.ast.kernels, self.consts)
        self.exec(body, child_env)

    def run(self):
        body = expand_thread(self.ast.main, self.ast.kernels, self.consts)
        self.exec(body, {})
        return InterpResult(
            {name: list(a.values) for name, a in self.arrays.items()},
            {name: list(a.full) for name, a in self.arrays.items()},
            self.steps)


def interpret(source, overrides=None, max_steps=_DEFAULT_STEP_LIMIT):
    """Run a source program under the reference semantics."""
    ast = source if not isinstance(source, str) else parse_program(source)
    return Interpreter(ast, overrides, max_steps).run()
