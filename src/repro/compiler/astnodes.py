"""Abstract syntax for the source language.

The surface language (paper Section 3) has simplified C semantics with
Lisp syntax: scalar variables, global arrays in node memory, arithmetic,
``while``/``for`` loops, ``if``, explicit ``fork``/``forall`` threading,
hand ``unroll``-ing, and the synchronizing array accesses of Table 1.
Procedures (``kernel`` definitions invoked with ``call``) are
macro-expanded; ``fork`` targets run as independent threads.
"""

from dataclasses import dataclass

INT = "i"
FLOAT = "f"

#: aref flavors -> load opcodes (Table 1).
LOAD_FLAVORS = {"normal": "ld", "ff": "ld_ff", "fe": "ld_fe"}
#: aset flavors -> store opcodes (Table 1).
STORE_FLAVORS = {"normal": "st", "ff": "st_ff", "ef": "st_ef"}


@dataclass
class Node:
    pass


# --- expressions ------------------------------------------------------------

@dataclass
class Num(Node):
    value: object

    @property
    def type(self):
        return FLOAT if isinstance(self.value, float) else INT


@dataclass
class Var(Node):
    name: str


@dataclass
class BinOp(Node):
    op: str
    left: Node
    right: Node


@dataclass
class UnOp(Node):
    op: str
    operand: Node


@dataclass
class Aref(Node):
    array: str
    index: Node
    flavor: str = "normal"


@dataclass
class IfExpr(Node):
    cond: Node
    then: Node
    els: Node


@dataclass
class Call(Node):
    """Inline (macro-expanded) procedure invocation."""

    name: str
    args: list


# --- statements -------------------------------------------------------------

@dataclass
class Seq(Node):
    body: list


@dataclass
class Let(Node):
    bindings: list          # [(name, expr), ...]
    body: Seq


@dataclass
class SetVar(Node):
    name: str
    expr: Node


@dataclass
class Aset(Node):
    array: str
    index: Node
    value: Node
    flavor: str = "normal"


@dataclass
class If(Node):
    cond: Node
    then: Node
    els: Node = None


@dataclass
class While(Node):
    cond: Node
    body: Seq


@dataclass
class For(Node):
    """Dynamic counted loop; sugar for Let+While."""

    var: str
    lo: Node
    hi: Node
    body: Seq
    step: Node = None


@dataclass
class Unroll(Node):
    """Statically unrolled loop (bounds must be compile-time constants);
    the paper's compiler requires loops to be unrolled by hand."""

    var: str
    lo: Node
    hi: Node
    body: Seq
    step: Node = None


@dataclass
class Fork(Node):
    """Spawn ``kernel(args)`` as a concurrently running thread."""

    kernel: str
    args: list
    cluster: int = None     # TPE placement hint
    variant: str = None     # filled in by the driver (compiled thread name)


@dataclass
class Forall(Node):
    """Spawn one thread per index value (constant bounds)."""

    var: str
    lo: Node
    hi: Node
    fork: Fork


@dataclass
class Sync(Node):
    """Evaluate an expression and block instruction issue until its
    value is present — the join primitive (compiles to ``sink``)."""

    expr: Node


@dataclass
class ExprStmt(Node):
    expr: Node


# --- top level --------------------------------------------------------------

@dataclass
class GlobalDecl(Node):
    name: str
    size: Node              # constant expression
    elem_type: str = FLOAT
    initially_full: bool = True


@dataclass
class ConstDecl(Node):
    name: str
    value: Node


@dataclass
class KernelDef(Node):
    name: str
    params: list            # [name, ...]
    body: Seq


@dataclass
class ProgramAST(Node):
    consts: list            # [ConstDecl]
    globals: list           # [GlobalDecl]
    kernels: dict           # name -> KernelDef
    main: Seq


#: Binary operators with (int opcode, float opcode); None = unsupported.
BINOPS = {
    "+": ("iadd", "fadd"),
    "-": ("isub", "fsub"),
    "*": ("imul", "fmul"),
    "/": ("idiv", "fdiv"),
    "mod": ("imod", None),
    "min": ("imin", "fmin"),
    "max": ("imax", "fmax"),
    "<<": ("ishl", None),
    ">>": ("ishr", None),
    "&": ("iand", None),
    "|": ("ior", None),
    "^": ("ixor", None),
    "<": ("ilt", "flt"),
    "<=": ("ile", "fle"),
    ">": ("igt", "fgt"),
    ">=": ("ige", "fge"),
    "==": ("ieq", "feq"),
    "!=": ("ine", "fne"),
}

#: Operators whose result is always an integer (predicates).
PREDICATES = {"<", "<=", ">", ">=", "==", "!="}

#: Unary operators with (int opcode, float opcode).
UNOPS = {
    "neg": ("ineg", "fneg"),
    "not": ("inot", None),
    "abs": (None, "fabs"),
    "sqrt": (None, "fsqrt"),
}
