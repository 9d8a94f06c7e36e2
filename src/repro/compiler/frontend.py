"""Front end: s-expression forms to the AST.

Surface syntax::

    (program
      (const N 9)
      (global A (* N N))              ; float array, initially full
      (global flags N :int :empty)    ; int array, initially empty
      (kernel row (i lim) stmt...)
      (main stmt...))

Statements: ``let``, ``set!``, ``aset!``/``aset-ff!``/``aset-ef!``,
``if``, ``while``, ``for``, ``unroll``, ``fork``, ``forall``, ``begin``,
``call``, or a bare expression.  Expressions: literals, variables,
arithmetic/comparison forms, ``aref``/``aref-ff``/``aref-fe``,
``if`` (ternary), ``neg``/``not``/``abs``/``sqrt``/``float``/``int``.
"""

from ..errors import CompileError
from .astnodes import (Aref, Aset, BINOPS, BinOp, Call, ConstDecl, ExprStmt,
                       FLOAT, For, Forall, Fork, GlobalDecl, If, IfExpr, INT,
                       KernelDef, Let, Num, ProgramAST, Seq, SetVar, Sync,
                       UnOp, UNOPS, Unroll, Var, While)
from .sexpr import Symbol, read_all, to_text

_AREF = {"aref": "normal", "aref-ff": "ff", "aref-fe": "fe"}
_ASET = {"aset!": "normal", "aset-ff!": "ff", "aset-ef!": "ef"}
_CONVERSIONS = ("float", "int")

_STMT_HEADS = {"let", "set!", "if", "while", "for", "unroll", "fork",
               "forall", "begin", "call"} | set(_ASET)


def _head(form):
    if isinstance(form, list) and form and isinstance(form[0], Symbol):
        return str(form[0])
    return None


def _need(form, condition, message):
    if not condition:
        raise CompileError(message, form=to_text(form))


def parse_expr(form):
    """Parse an expression form."""
    if isinstance(form, bool):
        raise CompileError("boolean literal not supported")
    if isinstance(form, (int, float)):
        return Num(form)
    if isinstance(form, Symbol):
        return Var(str(form))
    _need(form, isinstance(form, list) and form, "empty expression")
    head = _head(form)
    _need(form, head is not None, "expression must start with an operator")
    if head in _AREF:
        _need(form, len(form) == 3, "%s takes (array index)" % head)
        return Aref(str(form[1]), parse_expr(form[2]), _AREF[head])
    if head in BINOPS:
        _need(form, len(form) >= 3, "%s takes at least two operands" % head)
        expr = parse_expr(form[1])
        for operand in form[2:]:
            expr = BinOp(head, expr, parse_expr(operand))
        return expr
    if head in UNOPS or head in _CONVERSIONS:
        _need(form, len(form) == 2, "%s takes one operand" % head)
        return UnOp(head, parse_expr(form[1]))
    if head == "if":
        _need(form, len(form) == 4, "if-expression takes (if c then else)")
        return IfExpr(parse_expr(form[1]), parse_expr(form[2]),
                      parse_expr(form[3]))
    if head == "call":
        _need(form, len(form) >= 2, "call takes (call kernel args...)")
        return Call(str(form[1]), [parse_expr(a) for a in form[2:]])
    raise CompileError("unknown expression operator %r" % head,
                       form=to_text(form))


def _parse_loop_spec(form, spec):
    _need(form, isinstance(spec, list) and len(spec) in (3, 4),
          "loop spec must be (var lo hi [step])")
    var = str(spec[0])
    lo = parse_expr(spec[1])
    hi = parse_expr(spec[2])
    step = parse_expr(spec[3]) if len(spec) == 4 else None
    return var, lo, hi, step


def _parse_fork(form):
    _need(form, len(form) >= 2, "fork takes (fork (kernel args...))")
    invocation = form[1]
    _need(form, isinstance(invocation, list) and invocation,
          "fork target must be (kernel args...)")
    kernel = str(invocation[0])
    args = [parse_expr(a) for a in invocation[1:]]
    cluster = None
    rest = form[2:]
    while rest:
        _need(form, len(rest) >= 2 and str(rest[0]) == ":cluster",
              "fork options are [:cluster k]")
        cluster = int(rest[1])
        rest = rest[2:]
    return Fork(kernel, args, cluster=cluster)


def parse_stmt(form):
    """Parse a statement form."""
    head = _head(form)
    if head == "let":
        _need(form, len(form) >= 3, "let takes (let ((x e)...) body...)")
        bindings = []
        for binding in form[1]:
            _need(form, isinstance(binding, list) and len(binding) == 2,
                  "let binding must be (name expr)")
            bindings.append((str(binding[0]), parse_expr(binding[1])))
        return Let(bindings, Seq([parse_stmt(s) for s in form[2:]]))
    if head == "set!":
        _need(form, len(form) == 3, "set! takes (set! var expr)")
        return SetVar(str(form[1]), parse_expr(form[2]))
    if head in _ASET:
        _need(form, len(form) == 4, "%s takes (array index value)" % head)
        return Aset(str(form[1]), parse_expr(form[2]), parse_expr(form[3]),
                    _ASET[head])
    if head == "if":
        _need(form, len(form) in (3, 4), "if takes (if c then [else])")
        els = parse_stmt(form[3]) if len(form) == 4 else None
        return If(parse_expr(form[1]), parse_stmt(form[2]), els)
    if head == "while":
        _need(form, len(form) >= 3, "while takes (while c body...)")
        return While(parse_expr(form[1]),
                     Seq([parse_stmt(s) for s in form[2:]]))
    if head == "for" or head == "unroll":
        _need(form, len(form) >= 3, "%s takes ((var lo hi) body...)" % head)
        var, lo, hi, step = _parse_loop_spec(form, form[1])
        body = Seq([parse_stmt(s) for s in form[2:]])
        cls = For if head == "for" else Unroll
        return cls(var, lo, hi, body, step)
    if head == "fork":
        return _parse_fork(form)
    if head == "forall":
        _need(form, len(form) == 3,
              "forall takes (forall (var lo hi) (kernel args...))")
        var, lo, hi, step = _parse_loop_spec(form, form[1])
        _need(form, step is None, "forall does not take a step")
        invocation = form[2]
        _need(form, isinstance(invocation, list) and invocation,
              "forall body must be (kernel args...)")
        fork = Fork(str(invocation[0]),
                    [parse_expr(a) for a in invocation[1:]])
        return Forall(var, lo, hi, fork)
    if head == "sync":
        _need(form, len(form) == 2, "sync takes (sync expr)")
        return Sync(parse_expr(form[1]))
    if head == "begin":
        return Seq([parse_stmt(s) for s in form[1:]])
    return ExprStmt(parse_expr(form))


def parse_program(text):
    """Parse full source text into a :class:`ProgramAST`."""
    forms = read_all(text)
    if len(forms) != 1 or _head(forms[0]) != "program":
        raise CompileError("source must be a single (program ...) form")
    consts = []
    globals_ = []
    kernels = {}
    main = None
    for form in forms[0][1:]:
        head = _head(form)
        if head == "const":
            _need(form, len(form) == 3, "const takes (const name value)")
            consts.append(ConstDecl(str(form[1]), parse_expr(form[2])))
        elif head == "global":
            _need(form, len(form) >= 3, "global takes (global name size "
                  "[:int|:float] [:empty|:full])")
            elem_type, initially_full = FLOAT, True
            for option in form[3:]:
                option = str(option)
                if option == ":int":
                    elem_type = INT
                elif option == ":float":
                    elem_type = FLOAT
                elif option == ":empty":
                    initially_full = False
                elif option == ":full":
                    initially_full = True
                else:
                    raise CompileError("unknown global option %r" % option,
                                       form=to_text(form))
            globals_.append(GlobalDecl(str(form[1]), parse_expr(form[2]),
                                       elem_type, initially_full))
        elif head == "kernel":
            _need(form, len(form) >= 4,
                  "kernel takes (kernel name (params...) body...)")
            name = str(form[1])
            if name in kernels:
                raise CompileError("duplicate kernel %r" % name)
            params = []
            for param in form[2]:
                if isinstance(param, list):
                    _need(form, len(param) == 2
                          and str(param[1]) in (":int", ":float"),
                          "typed parameter must be (name :int|:float)")
                    ptype = FLOAT if str(param[1]) == ":float" else INT
                    params.append((str(param[0]), ptype))
                else:
                    params.append((str(param), INT))
            kernels[name] = KernelDef(
                name, params, Seq([parse_stmt(s) for s in form[3:]]))
        elif head == "main":
            if main is not None:
                raise CompileError("duplicate (main ...)")
            main = Seq([parse_stmt(s) for s in form[1:]])
        else:
            raise CompileError("unknown top-level form %r" % head,
                               form=to_text(form))
    if main is None:
        raise CompileError("program has no (main ...)")
    return ProgramAST(consts, globals_, kernels, main)
