"""Code generation: scheduled blocks to wide instruction words.

Assigns physical register indices (one fixed slot per (virtual
register, cluster) pair — the compiler assumes an infinite register
supply and reports peak usage), folds symbol base addresses into memory
operations as immediates, and resolves fork bindings against the callee
thread's parameter registers.
"""

from dataclasses import dataclass, field

from ..errors import CompileError
from ..isa.instruction import InstructionWord, Operation, ThreadProgram, \
    unit_id
from ..isa.operands import Imm, Label, Reg
from .ir import Const
from .schedule.scheduler import PlacedReg


@dataclass
class ThreadReport:
    """Compile-time statistics for one thread."""

    name: str
    words: int = 0
    operations: int = 0
    moves: int = 0
    block_words: dict = field(default_factory=dict)
    peak_registers: dict = field(default_factory=dict)   # cluster -> count


class _RegisterAllocator:
    """(vreg, cluster) -> physical index mapping with recycling.

    Home registers (mutable variables, parameters, join values) keep
    one stable slot per cluster for the thread's lifetime; temporaries
    are single-assignment and block-local, so their slots recycle after
    their last scheduled use.  The reported peak therefore approximates
    the paper's "peak live registers per cluster" — the paper performs
    no register allocation either, it just counts.  Recycling is safe
    at runtime because an operation does not issue while a writeback to
    its destination register is outstanding (the WAW interlock).
    """

    def __init__(self):
        self._map = {}
        self._free = {}              # cluster -> [indices]
        self._next = {}              # cluster -> next fresh index
        self._in_use = {}            # cluster -> current count
        self._peaks = {}

    def reg(self, vreg, cluster):
        key = (vreg.id, cluster)
        index = self._map.get(key)
        if index is None:
            free = self._free.setdefault(cluster, [])
            if free:
                index = free.pop()
            else:
                index = self._next.get(cluster, 0)
                self._next[cluster] = index + 1
            self._map[key] = index
            used = self._in_use.get(cluster, 0) + 1
            self._in_use[cluster] = used
            self._peaks[cluster] = max(self._peaks.get(cluster, 0), used)
        return Reg.of(cluster, index)

    def release(self, vreg, cluster):
        """Return a temporary's slot to the free pool."""
        key = (vreg.id, cluster)
        index = self._map.pop(key, None)
        if index is not None:
            self._free.setdefault(cluster, []).append(index)
            self._in_use[cluster] -= 1

    def peaks(self):
        return dict(self._peaks)


def _operand(alloc, operand):
    if isinstance(operand, Const):
        return Imm.of(operand.value)
    if isinstance(operand, PlacedReg):
        return alloc.reg(operand.vreg, operand.cluster)
    raise CompileError("unplaced operand %r" % (operand,))


def _build_operation(entry, alloc, data, child_params):
    dests = tuple(alloc.reg(vreg, cluster) for vreg, cluster in entry.dests)
    if entry.op in ("ld", "ld_ff", "ld_fe"):
        base = data[entry.sym].base
        index = _operand(alloc, entry.srcs[0])
        return Operation(entry.op, dests=dests, srcs=(index, Imm.of(base)))
    if entry.op in ("st", "st_ff", "st_ef"):
        base = data[entry.sym].base
        value = _operand(alloc, entry.srcs[0])
        index = _operand(alloc, entry.srcs[1])
        return Operation(entry.op, srcs=(value, index, Imm.of(base)))
    if entry.op == "fork":
        params = child_params(entry.target)
        if len(params) != len(entry.fork_args):
            raise CompileError(
                "fork of %r: %d bindings for %d parameters"
                % (entry.target, len(entry.fork_args), len(params)))
        bindings = tuple(
            (param, _operand(alloc, arg))
            for param, arg in zip(params, entry.fork_args))
        return Operation("fork", target=Label.of(entry.target),
                         bindings=bindings)
    if entry.op in ("br", "brt", "brf"):
        srcs = tuple(_operand(alloc, s) for s in entry.srcs)
        return Operation(entry.op, srcs=srcs,
                         target=Label.of(entry.target))
    if entry.op == "halt":
        return Operation("halt")
    srcs = tuple(_operand(alloc, s) for s in entry.srcs)
    return Operation(entry.op, dests=dests, srcs=srcs)


def _temp_release_rows(block):
    """For each temporary (vreg, cluster) defined in the block, the row
    after which its physical register can be recycled: the later of its
    definition row and its last read row (temporaries are block-local
    by construction)."""
    last_event = {}          # (vreg id, cluster) -> (row, vreg, cluster)

    def note(vreg, cluster, row):
        key = (vreg.id, cluster)
        current = last_event.get(key)
        if current is None or row > current[0]:
            last_event[key] = (row, vreg, cluster)

    for entry in block.entries():
        for vreg, cluster in entry.dests:
            if not vreg.is_home:
                note(vreg, cluster, entry.row)
        operands = list(entry.srcs) + list(entry.fork_args or ())
        for operand in operands:
            if isinstance(operand, PlacedReg) \
                    and not operand.vreg.is_home:
                note(operand.vreg, operand.cluster, entry.row)
    release_at = {}
    for row, vreg, cluster in last_event.values():
        release_at.setdefault(row, []).append((vreg, cluster))
    return release_at


def generate_thread(scheduled, data, child_params):
    """Emit a :class:`ThreadProgram` from a :class:`ScheduledThread`.

    ``child_params`` maps a forked thread's name to its parameter
    registers (the callee must already be generated).
    """
    alloc = _RegisterAllocator()
    # Parameters claim the first register slots of their home clusters,
    # so fork sites can compute bindings without running the thread.
    param_regs = [alloc.reg(vreg, cluster)
                  for vreg, cluster in scheduled.param_homes]
    thread = ThreadProgram(scheduled.name, param_regs=param_regs)
    report = ThreadReport(scheduled.name)
    for block in scheduled.blocks:
        thread.add_label(block.name)
        words_before = len(thread.instructions)
        release_at = _temp_release_rows(block)
        for row in sorted(block.rows):
            slots = {}
            for entry in block.rows[row]:
                uid = unit_id(entry.cluster, entry.kind, entry.unit_index)
                if uid in slots:
                    raise CompileError(
                        "scheduler placed two operations on %s in one row"
                        % uid)
                slots[uid] = _build_operation(entry, alloc, data,
                                              child_params)
                report.operations += 1
                if entry.op in ("imov", "fmov"):
                    report.moves += 1
            thread.append(InstructionWord(slots))
            for vreg, cluster in release_at.get(row, ()):
                alloc.release(vreg, cluster)
        report.block_words[block.name] = len(thread.instructions) \
            - words_before
    report.words = len(thread.instructions)
    report.peak_registers = alloc.peaks()
    return thread, report
