"""S-expression reader for the source language.

The paper's compiler source language has simplified C semantics with
Lisp syntax.  This reader turns text into nested Python lists of
:class:`Symbol`, ``int``, and ``float`` atoms.  ``;`` starts a comment
that runs to end of line.
"""

import re

from ..errors import CompileError


class Symbol(str):
    """An identifier atom (distinct from Python strings/numbers)."""

    __slots__ = ()

    def __repr__(self):
        return str(self)


_DELIMITERS = "()\n\t\r ;"


def tokenize(text):
    """Yield tokens: '(', ')', or atom strings."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch
            i += 1
        else:
            start = i
            while i < n and text[i] not in _DELIMITERS:
                i += 1
            yield text[start:i]


#: A numeral starts with an optional sign, then a digit or a ``.`` and
#: a digit.  Anything else is a symbol, even where ``float()`` would
#: accept it (``inf``, ``nan``, ``-Infinity``).
_NUMERAL = re.compile(r"[+-]?\.?[0-9]")


def _atom(token):
    if _NUMERAL.match(token):
        try:
            return int(token)
        except ValueError:
            pass
        try:
            return float(token)
        except ValueError:
            pass
    return Symbol(token)


def read_all(text):
    """Parse every top-level form in ``text``."""
    stack = [[]]
    for token in tokenize(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            if len(stack) == 1:
                raise CompileError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(_atom(token))
    if len(stack) != 1:
        raise CompileError("unbalanced '(' — %d unclosed" % (len(stack) - 1))
    return stack[0]


def read_one(text):
    """Parse exactly one form."""
    forms = read_all(text)
    if len(forms) != 1:
        raise CompileError("expected one form, found %d" % len(forms))
    return forms[0]


def to_text(form, indent=0):
    """Pretty-print a form back to source text (diagnostics)."""
    if isinstance(form, list):
        inner = " ".join(to_text(item) for item in form)
        return "(" + inner + ")"
    return str(form)
