"""Wide instruction words and thread programs.

A thread's compiled code is a *sparse matrix of operations* (paper,
Section 2): each row is one :class:`InstructionWord`, each column an
operation field for one function unit.  A :class:`Program` bundles the
thread programs together with the node's initial memory image.
"""

import sys
from dataclasses import dataclass

from ..errors import AsmError
from .operands import Label, Reg, is_source
from .operations import UnitClass, opcode


def unit_id(cluster, kind, index=0):
    """Build the canonical unit identifier string, e.g. ``c0.iu0``.

    Interned: every instruction word keys its slots by these strings,
    so a program (and its pickle) holds each unit id once."""
    kind_name = kind.value if isinstance(kind, UnitClass) else str(kind)
    return sys.intern("c%d.%s%d" % (cluster, kind_name, index))


def parse_unit_id(text):
    """Split ``c0.iu0`` into ``(cluster, UnitClass, index)``."""
    text = text.strip()
    if not text.startswith("c") or "." not in text:
        raise AsmError("malformed unit id %r" % text)
    cluster_part, __, unit_part = text[1:].partition(".")
    for kind in UnitClass:
        if unit_part.startswith(kind.value):
            suffix = unit_part[len(kind.value):]
            try:
                return int(cluster_part), kind, int(suffix)
            except ValueError:
                break
    raise AsmError("malformed unit id %r" % text)


@dataclass(frozen=True, slots=True)
class Operation:
    """One operation: opcode, destinations, sources, control payload.

    * ``dests`` holds at most two registers (the paper's limit on
      simultaneous register destinations), possibly in different
      clusters.
    * ``target`` names the branch/fork destination label.
    * ``bindings`` (fork only) lists ``(child_reg, parent_source)``
      pairs copied into the spawned thread's register set.
    """

    name: str
    dests: tuple = ()
    srcs: tuple = ()
    target: object = None
    bindings: tuple = ()

    def __post_init__(self):
        spec = opcode(self.name)
        if len(self.dests) > 2:
            raise AsmError("%s: more than two destinations" % self.name)
        if spec.has_dest and not self.dests:
            raise AsmError("%s: missing destination" % self.name)
        if not spec.has_dest and self.dests:
            raise AsmError("%s: unexpected destination" % self.name)
        if len(self.srcs) != spec.n_srcs:
            raise AsmError("%s: expected %d sources, got %d"
                           % (self.name, spec.n_srcs, len(self.srcs)))
        for dest in self.dests:
            if not isinstance(dest, Reg):
                raise AsmError("%s: destination %r is not a register"
                               % (self.name, dest))
        for src in self.srcs:
            if not is_source(src):
                raise AsmError("%s: bad source %r" % (self.name, src))
        if (spec.is_branch or spec.is_fork) and not isinstance(self.target,
                                                               Label):
            raise AsmError("%s: missing target label" % self.name)
        for child_reg, value in self.bindings:
            if not isinstance(child_reg, Reg) or not is_source(value):
                raise AsmError("fork: bad binding (%r, %r)"
                               % (child_reg, value))

    @property
    def spec(self):
        return opcode(self.name)

    # Pickled as a tuple of the fields in declaration order (the order
    # of __slots__): Python 3.10's default protocol cannot restore a
    # frozen slotted dataclass (it assigns through the frozen
    # __setattr__).
    def __getstate__(self):
        return self.name, self.dests, self.srcs, self.target, self.bindings

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def source_regs(self):
        """Registers this operation reads (bindings included for fork)."""
        regs = [src for src in self.srcs if isinstance(src, Reg)]
        regs.extend(value for __, value in self.bindings
                    if isinstance(value, Reg))
        return regs

    def __str__(self):
        parts = []
        if self.dests:
            parts.append(" & ".join(str(d) for d in self.dests))
        parts.extend(str(s) for s in self.srcs)
        text = self.name
        if parts:
            text += " " + ", ".join(parts)
        if self.target is not None:
            text += " " + self.target.name
        if self.bindings:
            inner = ", ".join("%s=%s" % (reg, value)
                              for reg, value in self.bindings)
            text += " [" + inner + "]"
        return text


class InstructionWord:
    """One row of the sparse operation matrix: unit id -> Operation."""

    __slots__ = ("slots",)

    def __init__(self, slots=None):
        self.slots = dict(slots or {})
        self._check()

    def _check(self):
        control_ops = 0
        for uid, op in self.slots.items():
            cluster, kind, __ = parse_unit_id(uid)
            if op.spec.unit is not kind:
                raise AsmError("operation %s cannot run on unit %s"
                               % (op.name, uid))
            if op.spec.unit is UnitClass.BRU:
                control_ops += 1
        if control_ops > 1:
            raise AsmError("more than one control operation in an "
                           "instruction word (the compiler issues at most "
                           "one branch per thread per cycle)")

    def __getstate__(self):
        return self.slots

    def __setstate__(self, slots):
        self.slots = slots

    def __len__(self):
        return len(self.slots)

    def __iter__(self):
        return iter(sorted(self.slots.items()))

    def operations(self):
        return list(self.slots.values())

    def control_op(self):
        """Return the branch/fork/halt operation of this word, if any."""
        for op in self.slots.values():
            if op.spec.unit is UnitClass.BRU:
                return op
        return None

    def __str__(self):
        inner = " ; ".join("%s: %s" % (uid, op) for uid, op in self)
        return "{ %s }" % inner


class ThreadProgram:
    """A label-annotated sequence of instruction words for one thread.

    ``param_regs`` records where the compiler placed the thread's
    parameters, so fork sites know which registers to initialize.
    """

    def __init__(self, name, instructions=None, labels=None,
                 param_regs=None):
        self.name = name
        self.instructions = list(instructions or [])
        self.labels = dict(labels or {})
        self.param_regs = list(param_regs or [])

    def add_label(self, label_name):
        if label_name in self.labels:
            raise AsmError("duplicate label %r in thread %r"
                           % (label_name, self.name))
        self.labels[label_name] = len(self.instructions)

    def append(self, word):
        self.instructions.append(word)

    def resolve(self, label):
        name = label.name if isinstance(label, Label) else label
        try:
            return self.labels[name]
        except KeyError:
            raise AsmError("undefined label %r in thread %r"
                           % (name, self.name))

    def validate(self):
        """Check label targets and intra-word structural rules."""
        for word in self.instructions:
            for __, op in word:
                if op.target is not None and op.spec.is_branch:
                    self.resolve(op.target)
        for name, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise AsmError("label %r out of range" % name)

    def __len__(self):
        return len(self.instructions)


@dataclass
class SymbolSpec:
    """One named region of node memory.

    ``initially_full`` selects the initial presence bit of each word;
    the Table 3 style synchronization patterns rely on regions that
    start out empty.
    """

    name: str
    base: int
    size: int
    initially_full: bool = True
    init_values: list = None

    def addresses(self):
        return range(self.base, self.base + self.size)


class DataSegment:
    """The node's initial memory image, addressed by named symbols."""

    def __init__(self):
        self.symbols = {}
        self._next_base = 0

    def declare(self, name, size, initially_full=True, init_values=None):
        if name in self.symbols:
            raise AsmError("duplicate symbol %r" % name)
        if size <= 0:
            raise AsmError("symbol %r must have positive size" % name)
        if init_values is not None and len(init_values) != size:
            raise AsmError("symbol %r: %d init values for size %d"
                           % (name, len(init_values), size))
        spec = SymbolSpec(name, self._next_base, size, initially_full,
                          list(init_values) if init_values else None)
        self.symbols[name] = spec
        self._next_base += size
        return spec

    def __contains__(self, name):
        return name in self.symbols

    def __getitem__(self, name):
        return self.symbols[name]

    def total_size(self):
        return self._next_base


class Program:
    """A complete executable: thread programs plus initial memory.

    Do not mutate a program after its first run: the simulator keeps
    the decoded words and compiled superblocks of the last program it
    decoded, and reuses them when that same object runs again
    (:func:`repro.sim.predecode.decode_program`).
    """

    def __init__(self, main="main"):
        self.threads = {}
        self.main = main
        self.data = DataSegment()
        self.register_usage = {}   # thread name -> {cluster: peak regs}

    def add_thread(self, thread):
        if thread.name in self.threads:
            raise AsmError("duplicate thread %r" % thread.name)
        self.threads[thread.name] = thread
        return thread

    def thread(self, name):
        try:
            return self.threads[name]
        except KeyError:
            raise AsmError("undefined thread %r" % name)

    def validate(self):
        if self.main not in self.threads:
            raise AsmError("missing main thread %r" % self.main)
        for thread in self.threads.values():
            thread.validate()
            for word in thread.instructions:
                for __, op in word:
                    if op.spec.is_fork:
                        self.thread(op.target.name)

    def static_operation_count(self):
        return sum(len(word) for thread in self.threads.values()
                   for word in thread.instructions)
