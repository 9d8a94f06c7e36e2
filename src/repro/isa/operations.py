"""Opcode definitions for the processor-coupled node.

Each opcode is described by an :class:`OpcodeSpec`: which unit class
executes it, how many sources it reads, whether it produces a register
result, and (for arithmetic) a pure semantics function used by both the
simulator and the compiler's constant folder.

Memory opcodes carry the synchronizing precondition/postcondition pairs
of the paper's Table 1 (Tera-style presence bits on every location):

========  =================  ==============
opcode    precondition       postcondition
========  =================  ==============
ld        unconditional      leave as is
ld_ff     wait until full    leave full
ld_fe     wait until full    set empty
st        unconditional      set full
st_ff     wait until full    leave full
st_ef     wait until empty   set full
========  =================  ==============
"""

import math
from dataclasses import dataclass
from enum import Enum

from ..errors import AsmError


class UnitClass(Enum):
    """The four function-unit classes of the paper's node."""

    IU = "iu"
    FPU = "fpu"
    MEM = "mem"
    BRU = "bru"

    def __str__(self):
        return self.value


#: Memory access preconditions (paper Table 1).
PRE_ALWAYS = "unconditional"
PRE_FULL = "wait-full"
PRE_EMPTY = "wait-empty"

#: Memory access postconditions (paper Table 1).
POST_KEEP = "leave"
POST_FULL = "set-full"
POST_EMPTY = "set-empty"


@dataclass(frozen=True)
class OpcodeSpec:
    """Static description of one opcode."""

    name: str
    unit: UnitClass
    n_srcs: int
    has_dest: bool
    semantics: object = None       # pure fn(*src_values) -> value, if any
    commutative: bool = False
    is_branch: bool = False        # transfers control (br/brt/brf)
    is_fork: bool = False
    is_halt: bool = False
    is_memory: bool = False
    is_load: bool = False
    is_store: bool = False
    precondition: str = PRE_ALWAYS
    postcondition: str = POST_KEEP
    is_move: bool = False

    def __reduce__(self):
        # Registry specs pickle (and deepcopy) by name: the semantics
        # functions are lambdas, which cannot cross process boundaries,
        # but every spec is interned in ``_REGISTRY`` so a name lookup
        # restores the identical object.  This is what lets compiled
        # programs and simulation results travel to worker processes
        # and live in the on-disk compile cache.
        if _REGISTRY.get(self.name) is self:
            return (opcode, (self.name,))
        return super().__reduce__()


_REGISTRY = {}


def _define(spec):
    if spec.name in _REGISTRY:
        raise ValueError("duplicate opcode %r" % spec.name)
    _REGISTRY[spec.name] = spec
    return spec


def opcode(name):
    """Look up an :class:`OpcodeSpec` by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AsmError("unknown opcode %r" % name)


def all_opcodes():
    """Return the full opcode registry (name -> spec)."""
    return dict(_REGISTRY)


def _int2(fn):
    return lambda a, b: int(fn(int(a), int(b)))


def _idiv(a, b):
    # C-style truncating division; the simulator traps divide-by-zero.
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _imod(a, b):
    return a - b * _idiv(a, b)


def _bool(x):
    return 1 if x else 0


# --- integer unit -----------------------------------------------------------
_define(OpcodeSpec("iadd", UnitClass.IU, 2, True, _int2(lambda a, b: a + b),
                   commutative=True))
_define(OpcodeSpec("isub", UnitClass.IU, 2, True, _int2(lambda a, b: a - b)))
_define(OpcodeSpec("imul", UnitClass.IU, 2, True, _int2(lambda a, b: a * b),
                   commutative=True))
_define(OpcodeSpec("idiv", UnitClass.IU, 2, True, _idiv))
_define(OpcodeSpec("imod", UnitClass.IU, 2, True, _imod))
_define(OpcodeSpec("iand", UnitClass.IU, 2, True,
                   _int2(lambda a, b: a & b), commutative=True))
_define(OpcodeSpec("ior", UnitClass.IU, 2, True,
                   _int2(lambda a, b: a | b), commutative=True))
_define(OpcodeSpec("ixor", UnitClass.IU, 2, True,
                   _int2(lambda a, b: a ^ b), commutative=True))
_define(OpcodeSpec("ishl", UnitClass.IU, 2, True,
                   _int2(lambda a, b: a << b)))
_define(OpcodeSpec("ishr", UnitClass.IU, 2, True,
                   _int2(lambda a, b: a >> b)))
_define(OpcodeSpec("ineg", UnitClass.IU, 1, True, lambda a: -int(a)))
_define(OpcodeSpec("inot", UnitClass.IU, 1, True, lambda a: ~int(a)))
_define(OpcodeSpec("imin", UnitClass.IU, 2, True,
                   _int2(min), commutative=True))
_define(OpcodeSpec("imax", UnitClass.IU, 2, True,
                   _int2(max), commutative=True))
_define(OpcodeSpec("imov", UnitClass.IU, 1, True, lambda a: a, is_move=True))
# ``sink`` consumes one value and produces nothing.  Its sole purpose is
# synchronization: because operations issue in order, an instruction
# word containing a sink cannot be passed until the sunk value's
# presence bit is set, which is how a thread blocks on a join flag it
# loaded with a synchronizing load.
_define(OpcodeSpec("sink", UnitClass.IU, 1, False,
                   lambda a: None))
_define(OpcodeSpec("ieq", UnitClass.IU, 2, True,
                   lambda a, b: _bool(a == b), commutative=True))
_define(OpcodeSpec("ine", UnitClass.IU, 2, True,
                   lambda a, b: _bool(a != b), commutative=True))
_define(OpcodeSpec("ilt", UnitClass.IU, 2, True, lambda a, b: _bool(a < b)))
_define(OpcodeSpec("ile", UnitClass.IU, 2, True, lambda a, b: _bool(a <= b)))
_define(OpcodeSpec("igt", UnitClass.IU, 2, True, lambda a, b: _bool(a > b)))
_define(OpcodeSpec("ige", UnitClass.IU, 2, True, lambda a, b: _bool(a >= b)))

# --- floating point unit ----------------------------------------------------
_define(OpcodeSpec("fadd", UnitClass.FPU, 2, True,
                   lambda a, b: float(a) + float(b), commutative=True))
_define(OpcodeSpec("fsub", UnitClass.FPU, 2, True,
                   lambda a, b: float(a) - float(b)))
_define(OpcodeSpec("fmul", UnitClass.FPU, 2, True,
                   lambda a, b: float(a) * float(b), commutative=True))
_define(OpcodeSpec("fdiv", UnitClass.FPU, 2, True,
                   lambda a, b: float(a) / float(b)))
_define(OpcodeSpec("fneg", UnitClass.FPU, 1, True, lambda a: -float(a)))
_define(OpcodeSpec("fabs", UnitClass.FPU, 1, True, lambda a: abs(float(a))))
_define(OpcodeSpec("fsqrt", UnitClass.FPU, 1, True,
                   lambda a: math.sqrt(float(a))))
_define(OpcodeSpec("fmin", UnitClass.FPU, 2, True,
                   lambda a, b: min(float(a), float(b)), commutative=True))
_define(OpcodeSpec("fmax", UnitClass.FPU, 2, True,
                   lambda a, b: max(float(a), float(b)), commutative=True))
_define(OpcodeSpec("fmov", UnitClass.FPU, 1, True, lambda a: a,
                   is_move=True))
_define(OpcodeSpec("itof", UnitClass.FPU, 1, True, lambda a: float(a)))
_define(OpcodeSpec("ftoi", UnitClass.FPU, 1, True, lambda a: int(a)))
_define(OpcodeSpec("feq", UnitClass.FPU, 2, True,
                   lambda a, b: _bool(a == b), commutative=True))
_define(OpcodeSpec("fne", UnitClass.FPU, 2, True,
                   lambda a, b: _bool(a != b), commutative=True))
_define(OpcodeSpec("flt", UnitClass.FPU, 2, True, lambda a, b: _bool(a < b)))
_define(OpcodeSpec("fle", UnitClass.FPU, 2, True, lambda a, b: _bool(a <= b)))
_define(OpcodeSpec("fgt", UnitClass.FPU, 2, True, lambda a, b: _bool(a > b)))
_define(OpcodeSpec("fge", UnitClass.FPU, 2, True, lambda a, b: _bool(a >= b)))

# --- memory unit (Table 1) --------------------------------------------------
# Loads read (index, base) sources; the memory unit performs the address
# addition itself, exactly as the paper states.  Stores read
# (value, index, base).
_define(OpcodeSpec("ld", UnitClass.MEM, 2, True, is_memory=True,
                   is_load=True, precondition=PRE_ALWAYS,
                   postcondition=POST_KEEP))
_define(OpcodeSpec("ld_ff", UnitClass.MEM, 2, True, is_memory=True,
                   is_load=True, precondition=PRE_FULL,
                   postcondition=POST_KEEP))
_define(OpcodeSpec("ld_fe", UnitClass.MEM, 2, True, is_memory=True,
                   is_load=True, precondition=PRE_FULL,
                   postcondition=POST_EMPTY))
_define(OpcodeSpec("st", UnitClass.MEM, 3, False, is_memory=True,
                   is_store=True, precondition=PRE_ALWAYS,
                   postcondition=POST_FULL))
_define(OpcodeSpec("st_ff", UnitClass.MEM, 3, False, is_memory=True,
                   is_store=True, precondition=PRE_FULL,
                   postcondition=POST_KEEP))
_define(OpcodeSpec("st_ef", UnitClass.MEM, 3, False, is_memory=True,
                   is_store=True, precondition=PRE_EMPTY,
                   postcondition=POST_FULL))

# --- branch unit ------------------------------------------------------------
_define(OpcodeSpec("br", UnitClass.BRU, 0, False, is_branch=True))
_define(OpcodeSpec("brt", UnitClass.BRU, 1, False, is_branch=True))
_define(OpcodeSpec("brf", UnitClass.BRU, 1, False, is_branch=True))
_define(OpcodeSpec("halt", UnitClass.BRU, 0, False, is_halt=True))
_define(OpcodeSpec("fork", UnitClass.BRU, 0, False, is_fork=True))

#: Opcodes whose result copies a value unchanged, indexed by unit class.
MOVE_BY_UNIT = {UnitClass.IU: "imov", UnitClass.FPU: "fmov"}
