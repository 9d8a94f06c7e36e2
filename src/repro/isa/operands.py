"""Operand kinds used by machine operations.

A processor-coupled node distributes each thread's register set over the
clusters it uses, so a register operand names both a cluster and an index
within that cluster's (per-thread) register file.  Immediates may appear
in any source position; labels name instruction words within a thread.

Operands are immutable values, and a sweep holds every program it
compiled, so each kind has one interning constructor (``Reg.of``,
``Imm.of``, ``Label.of``) that returns one shared instance per value.
The code generator, the assembler and unpickling all build operands
through it: a program holds each distinct operand once, and a pickle
writes it once and refers back to it after that.  Direct construction
(``Reg(0, 1)``) still works and compares equal to the shared instance.
The intern tables only ever grow by immutable values, bounded by the
distinct registers, immediates and labels a process builds.
"""

from dataclasses import dataclass

_REGS = {}
_IMMS = {}
_LABELS = {}


@dataclass(frozen=True, order=True, slots=True)
class Reg:
    """A register in a particular cluster's register file.

    The index is a *virtual* slot: the paper's compiler assumes an
    infinite register supply and reports peak usage instead of spilling.
    """

    cluster: int
    index: int

    @staticmethod
    def of(cluster, index):
        """The shared register ``c<cluster>.r<index>``."""
        key = (cluster, index)
        shared = _REGS.get(key)
        if shared is None:
            shared = _REGS[key] = Reg(cluster, index)
        return shared

    def __reduce__(self):
        return Reg.of, (self.cluster, self.index)

    def __str__(self):
        return "c%d.r%d" % (self.cluster, self.index)


@dataclass(frozen=True, order=True, slots=True)
class Imm:
    """An immediate operand (int or float literal)."""

    value: object

    @staticmethod
    def of(value):
        """The shared immediate holding ``value``.  Keyed on the
        literal's type and repr, not on equality: ``1 == 1.0`` and
        ``0.0 == -0.0``, but each is its own operand."""
        key = (type(value), repr(value))
        shared = _IMMS.get(key)
        if shared is None:
            shared = _IMMS[key] = Imm(value)
        return shared

    def __reduce__(self):
        return Imm.of, (self.value,)

    def __str__(self):
        return "#%r" % (self.value,)


@dataclass(frozen=True, order=True, slots=True)
class Label:
    """A symbolic branch target within a thread program."""

    name: str

    @staticmethod
    def of(name):
        """The shared label ``name``."""
        shared = _LABELS.get(name)
        if shared is None:
            shared = _LABELS[name] = Label(name)
        return shared

    def __reduce__(self):
        return Label.of, (self.name,)

    def __str__(self):
        return self.name


def is_source(operand):
    """Return True for operands legal in a source position."""
    return isinstance(operand, (Reg, Imm))


def parse_reg(text):
    """Parse ``cN.rM`` into a :class:`Reg`; raise ValueError otherwise."""
    text = text.strip()
    if not text.startswith("c") or ".r" not in text:
        raise ValueError("not a register: %r" % text)
    cluster_part, __, index_part = text[1:].partition(".r")
    return Reg.of(int(cluster_part), int(index_part))


def parse_operand(text):
    """Parse a textual source operand (register or ``#imm``)."""
    text = text.strip()
    if text.startswith("#"):
        literal = text[1:]
        try:
            return Imm.of(int(literal))
        except ValueError:
            return Imm.of(float(literal))
    return parse_reg(text)
