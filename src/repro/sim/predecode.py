"""Load-time predecoding of wide instruction words into slot plans.

The scan kernel re-derives everything about an operation every cycle it
is pending: opcode spec lookups (a registry dict hit per call of
``Operation.spec``), source-register list construction, branch label
resolution, and unit table lookups.  None of that can change once a
program is loaded on a machine, so the event kernel hoists it all to
load time: each :class:`~repro.isa.instruction.Operation` becomes a
:class:`SlotPlan` carrying the resolved spec, flat operand fetch
offsets, prebuilt control payloads, and the home unit's index into the
node's unit table.  The per-cycle path then touches only plain
attributes, ints, and tuples.

Plans are immutable after decoding and are shared freely between a
node, its snapshots, restored copies, and the next runs of the same
program on the same unit layout, until another program is decoded
(see :func:`decode_program`).  They deliberately reference the
original ``Operation`` objects (``plan.op``) so observers, memory
requests, and diagnostics show the exact objects the scan kernel
would.
"""

import math
import weakref
from heapq import heappop, heappush

from ..errors import SimulationError
from ..isa.operations import UnitClass
from .memory import MemRequest

def _intern(table, value):
    """One object per shape for the small tuples predecoding mints over
    and over — operand field triples, destination pairs, wait-group
    entries.  A big program reuses the same few hundred shapes
    thousands of times; ``table`` is that program's (see
    :func:`decode_program`)."""
    return table.setdefault(value, value)


class SlotPlan:
    """Everything the issue path needs about one operation, resolved."""

    __slots__ = ("uid", "unit_index", "op", "spec", "name",
                 "wait_groups", "single_wait", "src_fields",
                 "values_template", "dest_pairs", "dest_triples",
                 "semantics", "exec_fn", "is_memory", "is_load", "is_bru",
                 "control", "taken_payload", "untaken_payload",
                 "fork_name", "bindings_plan")

    def __init__(self, uid, unit_index, op, thread_program, interned):
        spec = op.spec
        self.uid = uid
        self.unit_index = unit_index
        self.op = op
        self.spec = spec
        self.name = op.name
        self.is_memory = spec.is_memory
        self.is_load = spec.is_load
        self.is_bru = spec.unit is UnitClass.BRU
        # Presence-bit wait set: every register the op reads plus every
        # register it writes (WAW interlock), grouped by cluster as an
        # integer bitmask so the hot loop's readiness test is one frame
        # lookup and one AND per cluster.
        groups = {}
        for reg in list(op.source_regs()) + list(op.dests):
            groups[reg.cluster] = groups.get(reg.cluster, 0) | (1 << reg.index)
        self.wait_groups = _intern(interned, tuple(sorted(groups.items())))
        # The overwhelmingly common single-cluster case, unpacked so the
        # issue loop's readiness test needs no iteration at all.
        self.single_wait = self.wait_groups[0] \
            if len(self.wait_groups) == 1 else None
        self.semantics = spec.semantics
        # Operand fetch: immediates are baked into the template, register
        # reads recorded as (position, cluster, index) patches.
        if op.srcs:
            template = []
            fields = []
            for pos, src in enumerate(op.srcs):
                if hasattr(src, "cluster"):
                    template.append(None)
                    fields.append(_intern(interned,
                                          (pos, src.cluster, src.index)))
                else:
                    template.append(src.value)
            self.values_template = template
            self.src_fields = _intern(interned, tuple(fields))
        else:
            self.values_template = None
            self.src_fields = ()
        self.dest_pairs = _intern(interned, tuple(
            _intern(interned, (d.cluster, d.index)) for d in op.dests))
        self.dest_triples = _intern(interned, tuple(
            _intern(interned, (d.cluster, d.index, 1 << d.index))
            for d in op.dests))
        # Control: resolve branch targets and fork wiring now, so issue
        # builds payloads from plain tuples.
        self.control = None
        self.taken_payload = None
        self.untaken_payload = None
        self.fork_name = None
        self.bindings_plan = None
        if self.is_bru:
            if spec.is_halt:
                self.control = "halt"
                self.taken_payload = ("halt",)
            elif spec.is_fork:
                self.control = "fork"
                self.fork_name = op.target.name
                plan = []
                for child_reg, value in op.bindings:
                    if hasattr(value, "cluster"):
                        plan.append((child_reg, True,
                                     value.cluster, value.index))
                    else:
                        plan.append((child_reg, False, value.value, None))
                self.bindings_plan = tuple(plan)
            else:
                target = thread_program.resolve(op.target)
                self.control = op.name
                self.taken_payload = ("jump", target)
                self.untaken_payload = ("jump", None)
        # Compute slots (ALU/FPU) get a gather-and-evaluate closure
        # specialized on operand shape; the kernel's issue path calls
        # it instead of the generic template-patching loop.
        self.exec_fn = None
        if not self.is_memory and not self.is_bru:
            self.exec_fn = _make_exec_fn(self)

    def __reduce__(self):
        # semantics and exec_fn are (closures over) lambdas and cannot
        # cross process boundaries; both are pure functions of the
        # remaining state, so rebuild them on unpickle.
        state = {name: getattr(self, name) for name in self.__slots__
                 if name not in ("semantics", "exec_fn")}
        return (_rebuild_slot_plan, (state,))

    def wait_registers(self):
        """The (cluster, index) pairs this op waits on (decoded from the
        per-cluster masks; tests and diagnostics)."""
        pairs = []
        for cluster, mask in self.wait_groups:
            index = 0
            while mask:
                if mask & 1:
                    pairs.append((cluster, index))
                mask >>= 1
                index += 1
        return pairs


def _rebuild_slot_plan(state):
    plan = SlotPlan.__new__(SlotPlan)
    for name, value in state.items():
        setattr(plan, name, value)
    plan.semantics = plan.spec.semantics
    plan.exec_fn = None
    if not plan.is_memory and not plan.is_bru:
        plan.exec_fn = _make_exec_fn(plan)
    return plan


def _make_exec_fn(plan):
    """A specialized closure for a compute plan: read the (hardcoded)
    operands out of the thread's register frames and apply the opcode
    semantics in one call.  Covers the operand shapes the compiler
    actually emits (arity <= 2); returns None for anything else, which
    falls back to the kernel's generic template-patching path.

    The closures read exactly the registers the generic path reads, in
    the same order, and perform no writes — on an ArithmeticError the
    kernel regathers the operands generically for the error report and
    gets identical values.
    """
    sem = plan.semantics
    template = plan.values_template
    if template is None:
        return lambda frames: sem()
    fields = plan.src_fields
    arity = len(template)
    if not fields:
        if arity == 1:
            k0 = template[0]
            return lambda frames: sem(k0)
        if arity == 2:
            k0, k1 = template
            return lambda frames: sem(k0, k1)
        return None
    if arity == 1:
        __, c0, i0 = fields[0]

        def unary(frames):
            frame = frames.get(c0)
            if frame is None:
                return sem(0)
            stored = frame._values
            return sem(stored[i0] if i0 < len(stored) else 0)
        return unary
    if arity != 2:
        return None
    if len(fields) == 2:
        (__, c0, i0), (__, c1, i1) = fields
        if c0 == c1:
            def reg_reg_same(frames):
                frame = frames.get(c0)
                if frame is None:
                    return sem(0, 0)
                stored = frame._values
                n = len(stored)
                return sem(stored[i0] if i0 < n else 0,
                           stored[i1] if i1 < n else 0)
            return reg_reg_same

        def reg_reg(frames):
            frame = frames.get(c0)
            if frame is None:
                a = 0
            else:
                stored = frame._values
                a = stored[i0] if i0 < len(stored) else 0
            frame = frames.get(c1)
            if frame is None:
                b = 0
            else:
                stored = frame._values
                b = stored[i1] if i1 < len(stored) else 0
            return sem(a, b)
        return reg_reg
    pos, c0, i0 = fields[0]
    if pos == 0:
        k1 = template[1]

        def reg_imm(frames):
            frame = frames.get(c0)
            if frame is None:
                return sem(0, k1)
            stored = frame._values
            return sem(stored[i0] if i0 < len(stored) else 0, k1)
        return reg_imm
    k0 = template[0]

    def imm_reg(frames):
        frame = frames.get(c0)
        if frame is None:
            return sem(k0, 0)
        stored = frame._values
        return sem(k0, stored[i0] if i0 < len(stored) else 0)
    return imm_reg


class WordPlan:
    """One predecoded instruction word (plans in slot insertion order,
    exactly the order the scan kernel's ``dict(word.slots)`` yields)."""

    __slots__ = ("plans",)

    def __init__(self, plans):
        self.plans = tuple(plans)


class DecodedThread:
    """The predecoded form of one thread program.

    ``blocks`` maps superblock entry word indexes to compiled
    :class:`BlockPlan` closures (None when fusion was not requested at
    decode time).
    """

    __slots__ = ("name", "words", "blocks")

    def __init__(self, name, words, blocks=None):
        self.name = name
        self.words = tuple(words)
        self.blocks = blocks


#: The reuse slot: load-time work of the last program decoded, as
#: ``(weak reference to the Program, shared, interned)``.  ``shared``
#: maps (layout, thread name) to the thread's ``WordPlan`` tuple, and
#: (layout, run signature, thread name) to its compiled superblock
#: code: entry ip -> template :class:`BlockPlan`, or None for an entry
#: with no run worth fusing.  ``layout`` is the unit-index mapping as a
#: tuple; ``interned`` is the program's :func:`_intern` table.  No value
#: references the program (plans hold its ``Operation`` objects, never
#: the program), so the slot neither keeps its program alive nor
#: outlives it.
_slot = None


def _forget(ref):
    global _slot
    if _slot is not None and _slot[0] is ref:
        _slot = None


def decode_program(program, unit_index, config=None):
    """Predecode every thread of ``program``.

    ``unit_index`` maps unit ids to their position in the node's unit
    table.  Returns a dict of thread name -> :class:`DecodedThread`.
    Assumes the program already passed
    :func:`~repro.sim.loader.validate_program` against the same
    machine (every uid present, no empty words).

    When ``config`` is given and its ``fusion`` toggle is on, each
    thread also gets a :class:`BlockTable` that compiles its hot
    straight-line runs into :class:`BlockPlan` superblocks.

    Word plans and compiled superblock code depend only on the
    program, the unit layout and (for code) ``config.run_signature()``,
    so the last program decoded keeps them in a one-program slot, and
    the next call with the same program object reuses them: a lane
    bundle's peeled re-runs, a sanitizer's shadow node, repeated runs
    of one program.  A call with any other program replaces the slot,
    so a sweep holds one program's plans, not every program's.  Each
    call still returns fresh ``DecodedThread`` and ``BlockTable``
    objects, so warm-up heat, quarantine tombstones and the block
    handles the kernel dispatches stay per run.  A re-run dispatches
    code the slot already holds at first sight (see
    :class:`BlockTable`), so no architectural result depends on an
    earlier run, but a re-run's engine counters (fused dispatches,
    defuse reasons) may.  A program must therefore not be mutated
    after its first run.
    """
    global _slot
    slot = _slot
    if slot is None or slot[0]() is not program:
        slot = _slot = (weakref.ref(program, _forget), {}, {})
    __, shared, interned = slot
    layout = tuple(unit_index.items())
    fuse = config is not None and getattr(config, "fusion", True)
    signature = config.run_signature() if fuse else None
    decoded = {}
    for name, thread_program in program.threads.items():
        words = shared.get((layout, name))
        if words is None:
            words = shared[layout, name] = _decode_words(
                name, thread_program, unit_index, interned)
        thread = DecodedThread(name, words)
        if fuse:
            thread.blocks = BlockTable(
                thread, config,
                shared.setdefault((layout, signature, name), {}))
        decoded[name] = thread
    return decoded


def _decode_words(name, thread_program, unit_index, interned):
    words = []
    for index, word in enumerate(thread_program.instructions):
        plans = [SlotPlan(uid, unit_index[uid], op, thread_program,
                          interned)
                 for uid, op in word.slots.items()]
        if not plans:
            raise SimulationError("thread %r word %d is empty"
                                  % (name, index))
        words.append(WordPlan(plans))
    return tuple(words)


# ---------------------------------------------------------------------------
# Superblock fusion
# ---------------------------------------------------------------------------
#
# A *superblock* is a maximal straight-line run of instruction words —
# no branch-unit slots except an optional terminal one, no
# synchronizing or miss-capable memory operations — whose intra-run
# dependences the static scheduler below can resolve exactly.  Each run
# is compiled, once its entry is hot, into one specialized Python
# closure (a :class:`BlockPlan`) that replays the event kernel's entire
# cycle-by-cycle execution of the run in a single call: operand flow
# through flat SSA locals, per-run cycle cost precomputed, statistics
# and memory effects committed in bulk.  The compiled code is shared by
# the next runs of the program on the same machine, which dispatch it
# from the entry's first visit, until another program is decoded (see
# :class:`BlockTable`).
#
# The closure is only entered when the kernel's guards hold (single
# runnable thread, fully connected interconnect, no fault plan, every
# entry presence bit valid, no timed memory event due inside the span,
# operation-cache lines resident); under those guards the event
# kernel's behaviour over the run is a pure function of the entry
# register/memory state, which is what the static schedule exploits.
# Anything the schedule cannot prove (same-address memory collisions,
# accesses touching busy/queued/parked addresses, out-of-range
# addresses, arithmetic faults) is checked at run time *before any
# state is mutated*; the closure then returns None and the kernel falls
# back to the interpreted word-by-word path, which reproduces the exact
# cycle-level behaviour — including the exact error, if any.
#
# *Interleaved multithreaded superblocks* (the second half of this
# module) extend the same machinery to a fixed set of N runnable
# threads: the compile-time scheduler below replays the arbiter's
# grant sequence — round-robin rotation or static priority order —
# cycle by cycle over the set, so the fused closure reproduces
# arbitration losses, parking, and cross-thread unit contention
# exactly.  See compile_mt_run().

_MAX_BLOCK_OPS = 512          # codegen size cap per superblock
_MIN_BLOCK_OPS = 2            # fusing smaller runs doesn't pay

_FUSIBLE_BRANCHES = ("br", "brt", "brf", "halt")

# Inline source templates for registry semantics whose Python spelling
# is trivially equivalent to the registry lambda (operations.py).
_INT2_OPS = {"iadd": "+", "isub": "-", "imul": "*", "iand": "&",
             "ior": "|", "ixor": "^", "ishl": "<<", "ishr": ">>"}
_FLT2_OPS = {"fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/"}
_CMP_OPS = {"ieq": "==", "ine": "!=", "ilt": "<", "ile": "<=",
            "igt": ">", "ige": ">=", "feq": "==", "fne": "!=",
            "flt": "<", "fle": "<=", "fgt": ">", "fge": ">="}


class BlockPlan:
    """One compiled superblock.

    ``fn(node, thread, cycle)`` executes the whole run and returns the
    absolute cycle of its last issue (the kernel's new current cycle),
    or None when a run-time guard failed and the caller must fall back
    to the interpreted path.  ``last_rel`` is the run's span in cycles
    relative to entry; ``n_plans`` the entry word's slot count (the
    dispatch check that the word is fully un-issued); ``cache_checks``
    the (unit index, line key) pairs that must be resident when an
    operation cache is configured.
    """

    __slots__ = ("entry_ip", "word_ips", "n_plans", "n_ops", "last_rel",
                 "cache_checks", "fn")

    def __init__(self, entry_ip, word_ips, n_plans, n_ops, last_rel,
                 cache_checks, fn):
        self.entry_ip = entry_ip
        self.word_ips = word_ips
        self.n_plans = n_plans
        self.n_ops = n_ops
        self.last_rel = last_rel
        self.cache_checks = cache_checks
        self.fn = fn

    def handle(self):
        """A copy for one run.  Rewrapping the copy's ``fn`` (tracers,
        tests) cannot reach the shared template it came from."""
        return BlockPlan(self.entry_ip, self.word_ips, self.n_plans,
                         self.n_ops, self.last_rel, self.cache_checks,
                         self.fn)


class _Rec:
    """One operation's slot in the static schedule of a run."""

    __slots__ = ("plan", "ip", "word_pos", "slot_pos", "t", "ready",
                 "unit_index", "kind", "rank", "submit", "apply_c",
                 "arrival", "committed", "var", "val_expr", "cond_var",
                 "k", "followed", "br_target", "assume_taken")


def _entry_points(words):
    """Superblock entry word indexes: word 0, every branch target, and
    the word after every control word."""
    entries = {0}
    for ip, word in enumerate(words):
        for plan in word.plans:
            if plan.is_bru:
                entries.add(ip + 1)
                if plan.control in ("br", "brt", "brf"):
                    target = plan.taken_payload[1]
                    if target is not None:
                        entries.add(target)
    return entries


def _word_fusible(word, mem_ok):
    """Whether a word can live inside a run; returns (ok, terminal_bru).
    A fusible word holds no control slot except possibly one plain
    branch/halt (which ends the run), and no memory operation other
    than non-synchronizing ld/st on a miss-free memory model."""
    bru = None
    for plan in word.plans:
        if plan.is_bru:
            if plan.control not in _FUSIBLE_BRANCHES or bru is not None:
                return False, None
            bru = plan
        elif plan.is_memory:
            if not mem_ok or plan.name not in ("ld", "st"):
                return False, None
    return True, bru


def _build_run(words, start, mem_ok):
    """The maximal fusible run starting at ``start``, as a list of
    (ip, word, terminal_bru) triples — or None when the run is too
    small to pay for fusing."""
    run = []
    n_ops = 0
    ip = start
    while ip < len(words):
        ok, bru = _word_fusible(words[ip], mem_ok)
        if not ok or n_ops + len(words[ip].plans) > _MAX_BLOCK_OPS:
            break
        run.append((ip, words[ip], bru))
        n_ops += len(words[ip].plans)
        ip += 1
        if bru is not None:
            break
    if not run or n_ops < _MIN_BLOCK_OPS:
        return None
    return run


#: A run is compiled only once the kernel has reached its entry this
#: many times with every dispatch guard holding.  Compiling a block
#: costs a few hundred microseconds per operation (codegen + CPython
#: ``compile``) while a dispatch saves a few microseconds per
#: operation, so break-even sits at a few dozen dispatches; entries
#: reached once (straight-line cold code, "ideal"-mode megablocks) or
#: only a handful of times never pay the compile, while hot loop
#: headers cross the threshold early in their trip count.
_WARMUP_DISPATCHES = 16


class BlockTable:
    """Lazy superblock compiler for one decoded thread, in one run.

    Entry points are discovered on first dispatch (cheap), but a run is
    scheduled and compiled only once the kernel has dispatched at its
    entry :data:`_WARMUP_DISPATCHES` times — most entries are never
    reached with the machine in a fusible state (or reached exactly
    once), and eager compilation was measurably slower than
    interpreting short benchmarks outright.

    Compiled code lives in ``code``, a dict of entry ip -> template
    :class:`BlockPlan` (or None: no run worth fusing) that
    :func:`decode_program` shares between back-to-back runs of the
    program with the same unit layout and run signature.  Warm-up gates
    compilation, not dispatch: an entry already in ``code`` is looked
    up at first sight, so a re-run dispatches its predecessor's blocks
    from their first visit, while a first run warms up exactly as it
    would alone.  The templates never leave that dict: :meth:`get`
    returns a per-table :meth:`BlockPlan.handle`.  Heat, handles and
    quarantine tombstones are this table's own, and the table itself
    is shared between a node, its snapshots, and restored copies.
    Pickling drops both the handles and the shared code and recompiles
    on demand (closures do not cross process boundaries).
    """

    __slots__ = ("_decoded", "_config", "_entries", "_mem_ok", "_cache",
                 "_heat", "_code")

    def __init__(self, decoded, config, code=None):
        # Nothing here may touch ``decoded``: it is mid-reconstruction
        # when a pickle rebuilds the decoded-thread <-> block-table
        # cycle.  Entry discovery happens on first dispatch instead.
        self._decoded = decoded
        self._config = config
        self._code = {} if code is None else code
        self._mem_ok = None
        self._entries = None
        self._cache = {}
        self._heat = {}

    def get(self, ip):
        block = self._cache.get(ip, False)
        if block is not False:
            return block
        if self._entries is None:
            self._mem_ok = self._config.memory.miss_rate == 0.0
            self._entries = _entry_points(self._decoded.words)
        if ip not in self._entries:
            self._cache[ip] = None
            return None
        template = self._code.get(ip, False)
        if template is False:
            heat = self._heat.get(ip, 0) + 1
            if heat < _WARMUP_DISPATCHES:
                self._heat[ip] = heat
                return None
            template = None
            words = self._decoded.words
            if ip < len(words):
                run = _build_run(words, ip, self._mem_ok)
                if run is not None:
                    template = _compile_run(self._decoded.name, ip, run,
                                            self._config)
            self._code[ip] = template
        block = template.handle() if template is not None else None
        self._cache[ip] = block
        return block

    def compiled_blocks(self):
        """The block handles this table has returned so far
        (diagnostics and tests)."""
        return {ip: block for ip, block in self._cache.items()
                if block is not None}

    def quarantine(self, ip):
        """Bar the entry at ``ip`` from ever dispatching again.

        Pinning the cache slot to None makes the quarantine free on the
        hot path (the same lookup that would have found the block finds
        the tombstone) and — because snapshots share the table — it
        survives the sanitizer's rollback/restore cycle without being
        re-applied.  The tombstone is this table's alone: the shared
        code keeps its template for other runs.  Pickling still drops
        it along with the rest of the cache: a replayed bundle
        re-detects and re-quarantines, which is exactly what a
        reproducer is for.
        """
        self._cache[ip] = None
        self._heat.pop(ip, None)

    def __deepcopy__(self, memo):
        # Compilation is deterministic and closures never carry run
        # state, so snapshots share the table with the live node.
        return self

    def __reduce__(self):
        return (BlockTable, (self._decoded, self._config))


def _int_src(src):
    """Source text for ``int(value)`` of an (expr, is_int) operand."""
    expr, is_int = src
    return expr if is_int else "int(%s)" % expr


def _const_expr(value, ns, counter):
    """Source text for a baked immediate, as an (expr, is_int) pair.
    Values whose repr does not round-trip exactly are bound into the
    closure's namespace instead of inlined."""
    if type(value) is int:
        return repr(value), True
    if type(value) is float and math.isfinite(value):
        return repr(value), False
    name = "k%d" % counter[0]
    counter[0] += 1
    ns[name] = value
    return name, False


def _semantics_expr(plan, srcs, ns, rank):
    """Python source computing ``plan.spec.semantics(*values)``.  Ops
    with no trivially equivalent inline spelling bind the registry
    callable itself, so the closure can never drift from operations.py.
    """
    name = plan.name
    sym = _INT2_OPS.get(name)
    if sym is not None:
        return "(%s %s %s)" % (_int_src(srcs[0]), sym, _int_src(srcs[1]))
    sym = _CMP_OPS.get(name)
    if sym is not None:                  # _bool compares raw operands
        return "(1 if %s %s %s else 0)" % (srcs[0][0], sym, srcs[1][0])
    sym = _FLT2_OPS.get(name)
    if sym is not None:
        return "(float(%s) %s float(%s))" % (srcs[0][0], sym, srcs[1][0])
    if name in ("imov", "fmov"):
        return srcs[0][0]
    if name == "ineg":
        return "(-%s)" % _int_src(srcs[0])
    if name == "inot":
        return "(~%s)" % _int_src(srcs[0])
    if name in ("imin", "imax"):
        return "%s(%s, %s)" % (name[1:], _int_src(srcs[0]),
                               _int_src(srcs[1]))
    if name == "fneg":
        return "(-float(%s))" % srcs[0][0]
    if name == "fabs":
        return "abs(float(%s))" % srcs[0][0]
    if name in ("fmin", "fmax"):
        return "%s(float(%s), float(%s))" % (name[1:], srcs[0][0],
                                             srcs[1][0])
    if name == "itof":
        return "float(%s)" % srcs[0][0]
    if name == "ftoi":
        return "int(%s)" % srcs[0][0]
    if name == "fsqrt":
        ns["_sqrt"] = math.sqrt
        return "_sqrt(float(%s))" % srcs[0][0]
    key = "s%d" % rank                   # idiv, imod, future opcodes
    ns[key] = plan.spec.semantics
    return "%s(%s)" % (key, ", ".join(expr for expr, __ in srcs))


def _compile_run(thread_name, start, run, config):
    """Statically schedule one run and compile it to a closure.

    The schedule replays the kernel's issue dynamics exactly: all slots
    of a word activate together when the previous word's last slot has
    issued; each cycle the pending slots are scanned in slot order and
    issue once their wait registers are all valid; issuing makes the
    destinations invalid until the result lands (ALU: end of the unit
    pipeline; load: the memory apply cycle).  ``valid_at`` maps
    registers to the block-relative cycle their presence bit is
    (re)set — absent means valid since entry, which the dispatch guard
    establishes.
    """
    unit_by_id = config.unit_by_id
    hit_latency = config.memory.hit_latency

    valid_at = {}
    recs = []
    t_word = 0
    terminal = None
    for word_pos, (ip, word, bru) in enumerate(run):
        pending = []
        for slot_pos, plan in enumerate(word.plans):
            rec = _Rec()
            rec.plan = plan
            rec.ip = ip
            rec.word_pos = word_pos
            rec.slot_pos = slot_pos
            rec.unit_index = plan.unit_index
            rec.val_expr = None
            rec.cond_var = None
            rec.var = None
            pending.append(rec)
            recs.append(rec)
        t = t_word
        while pending:
            remaining = []
            next_t = None
            for rec in pending:
                plan = rec.plan
                wait = t
                for pair in plan.wait_registers():
                    when = valid_at.get(pair, 0)
                    if when > wait:
                        wait = when
                if wait <= t:
                    rec.t = t
                    rec.ready = t + unit_by_id[plan.uid].latency
                    if plan.is_memory:
                        rec.kind = "mem"
                        rec.submit = rec.ready
                        rec.apply_c = rec.ready + hit_latency - 1
                        if plan.is_load:
                            for pair in plan.dest_pairs:
                                valid_at[pair] = rec.apply_c
                    elif plan.is_bru:
                        rec.kind = "bru"
                        terminal = rec
                    elif plan.dest_pairs:
                        rec.kind = "alu"
                        for pair in plan.dest_pairs:
                            valid_at[pair] = rec.ready
                    else:
                        rec.kind = "sink"
                else:
                    remaining.append(rec)
                    if next_t is None or wait < next_t:
                        next_t = wait
            pending = remaining
            if pending:
                # Presence bits only ever *become* valid at scheduled
                # cycles, so jumping to the earliest one is exact.
                t = next_t
        t_word = max(r.t for r in recs[-len(word.plans):]) + 1
    last_rel = max(r.t for r in recs)

    # Issue order: one word active at a time, pending list scanned in
    # slot order — so (cycle, word, slot) is the kernel's exact order.
    issue_order = sorted(recs, key=_issue_key)
    for rank, rec in enumerate(issue_order):
        rec.rank = rank

    # Classify each op against the block's last issue cycle: fully
    # committed inside the block, or a tail the real machinery finishes.
    for rec in recs:
        if rec.kind == "mem":
            rec.committed = rec.apply_c <= last_rel
        else:
            rec.committed = rec.ready <= last_rel

    # Memory arrival order: submits are pipe pops, ordered
    # (cycle, unit index, seq) — seq follows issue rank.
    arriving = sorted((r for r in recs
                       if r.kind == "mem" and r.submit <= last_rel),
                      key=_arrival_key)
    for arrival, rec in enumerate(arriving):
        rec.arrival = arrival

    # Same-address service windows overlapping a *committed* access
    # would queue — which the bulk counters do not model — so those
    # pairs get a run-time distinctness check.  Pairs of tail submits
    # go through the real submit path and need none.
    pairs = []
    for i, first in enumerate(arriving):
        if not first.committed:
            continue
        for second in arriving[i + 1:]:
            if second.submit <= first.apply_c:
                pairs.append((first, second))
            else:
                break
    return _emit_block(thread_name, start, run, config, recs, issue_order,
                       arriving, pairs, terminal, last_rel)


def _issue_key(rec):
    return (rec.t, rec.word_pos, rec.slot_pos)


def _arrival_key(rec):
    return (rec.submit, rec.unit_index, rec.rank)


def _emit_block(thread_name, start, run, config, recs, issue_order,
                arriving, pairs, terminal, last_rel):
    """Generate, compile, and wrap the closure for one scheduled run.

    The closure body has two halves.  The *compute* half (inside a
    ``try``) evaluates every operation in the exact event order of the
    real kernel — commits at phase 1/2 before issues at phase 5 of the
    same cycle — through single-assignment locals, and performs every
    run-time guard (address range, same-address service overlap); it
    mutates nothing, so any exception or failed guard falls back to the
    interpreted path with the machine state untouched.  The *commit*
    half then applies all effects: register file, memory values and
    bulk counters, tail submits and completion-heap entries, batched
    issue statistics, and the thread's end state.
    """
    mem_size = config.memory_size
    ns = {"heappush": heappush, "MemRequest": MemRequest}
    counter = [0]

    committed_mems = [r for r in arriving if r.committed]
    mem_tails = [r for r in arriving if not r.committed]
    use_ov = any(r.plan.is_load for r in committed_mems) \
        and any(not r.plan.is_load for r in committed_mems)

    # Event timeline: phase 1 = ALU results land (pipe pop order:
    # unit index then seq), phase 2 = memory applies (arrival order),
    # phase 5 = issues (scan order).  Ranks only compare within one
    # (cycle, phase), so the mixed int/tuple keys never meet.
    events = []
    for rec in recs:
        events.append((rec.t, 5, rec.rank, rec))
        if rec.committed:
            if rec.kind == "alu":
                events.append((rec.ready, 1, (rec.unit_index, rec.rank),
                               rec))
            elif rec.kind == "mem":
                events.append((rec.apply_c, 2, rec.arrival, rec))
    events.sort(key=lambda event: event[:3])

    compute = []
    entry_lines = []
    regvar = {}          # (cluster, index) -> current SSA local
    entry_reads = {}
    read_clusters = set()
    reg_commits = []     # (cluster, index, local) in landing order
    addr_done = set()

    def reg_read(cluster, index):
        var = regvar.get((cluster, index))
        if var is not None:
            return var
        var = entry_reads.get((cluster, index))
        if var is None:
            var = "e%d_%d" % (cluster, index)
            entry_reads[(cluster, index)] = var
            read_clusters.add(cluster)
            entry_lines.append(
                "%s = F%dv[%d] if %d < len(F%dv) else 0"
                % (var, cluster, index, index, cluster))
        return var

    def srcs_of(plan):
        out = []
        if plan.values_template is None:
            return out
        fields = {pos: (cluster, index)
                  for pos, cluster, index in plan.src_fields}
        for pos, baked in enumerate(plan.values_template):
            pair = fields.get(pos)
            if pair is not None:
                out.append((reg_read(*pair), False))
            else:
                out.append(_const_expr(baked, ns, counter))
        return out

    for __, phase, __, rec in events:
        plan = rec.plan
        rank = rec.rank
        if phase == 5:
            if rec.kind == "alu":
                rec.var = "v%d" % rank
                compute.append("%s = %s" % (
                    rec.var, _semantics_expr(plan, srcs_of(plan), ns,
                                             rank)))
            elif rec.kind == "mem":
                srcs = srcs_of(plan)
                if plan.is_load:
                    base, offset = srcs[0], srcs[1]
                else:
                    rec.val_expr = srcs[0][0]
                    base, offset = srcs[1], srcs[2]
                rec.var = "a%d" % rank
                compute.append("%s = %s + %s" % (
                    rec.var, _int_src(base), _int_src(offset)))
                if rec.submit <= last_rel:
                    compute.append("if not 0 <= %s < %d:"
                                   % (rec.var, mem_size))
                    compute.append("    return None")
                    if rec.committed:
                        # The span clamp proves no *timed* memory event
                        # falls inside the block, but addresses may
                        # still be mid-service, queued, or holding
                        # parked sync waiters; a committed access to
                        # one of those would queue (load/store) or
                        # reactivate a waiter (store), which the bulk
                        # counters do not model.  MH is 0 on a fully
                        # quiet memory system, making the guard free in
                        # the common case.
                        guard = "MQg(%s) or %s in MB" % (rec.var, rec.var)
                        if not plan.is_load:
                            guard += " or %s in MP" % rec.var
                        compute.append("if MH and (%s):" % guard)
                        compute.append("    return None")
                    addr_done.add(rank)
                    for first, second in pairs:
                        if rec in (first, second):
                            other = second if rec is first else first
                            if other.rank in addr_done:
                                compute.append(
                                    "if %s == %s:" % (first.var,
                                                      second.var))
                                compute.append("    return None")
            elif rec.kind == "bru":
                srcs = srcs_of(plan)
                if plan.control in ("brt", "brf"):
                    rec.cond_var = srcs[0][0]
            # sink: semantics is ``lambda a: None`` — nothing to do
        elif phase == 1:
            for pair in plan.dest_pairs:
                regvar[pair] = rec.var
                reg_commits.append((pair[0], pair[1], rec.var))
        else:                            # phase 2: committed mem apply
            if plan.is_load:
                value = "v%d" % rank
                rec.val_expr = value
                if use_ov:
                    compute.append(
                        "%s = OV[%s] if %s in OV else MVg(%s, 0)"
                        % (value, rec.var, rec.var, rec.var))
                else:
                    compute.append("%s = MVg(%s, 0)" % (value, rec.var))
                for pair in plan.dest_pairs:
                    regvar[pair] = value
                    reg_commits.append((pair[0], pair[1], value))
            elif use_ov:
                compute.append("OV[%s] = %s" % (rec.var, rec.val_expr))

    # ---- commit half ---------------------------------------------------
    commit = []

    # Registers: grow each touched cluster's value list (issue-time
    # invalidation grows it in the interpreted path), land committed
    # values in event order, then set the tail presence bits in one
    # store — the dispatch guard proved every frame fully valid at
    # entry, so the tail mask *is* the whole invalid mask.
    grow = {}
    tail_masks = {}
    used_masks = {}
    for rec in recs:
        dests = rec.plan.dest_pairs
        if rec.kind not in ("alu", "mem") or not dests:
            continue
        if rec.kind == "mem" and not rec.plan.is_load:
            continue
        for cluster, index in dests:
            if index + 1 > grow.get(cluster, 0):
                grow[cluster] = index + 1
            if rec.committed:
                used_masks[cluster] = used_masks.get(cluster, 0) \
                    | (1 << index)
    # A register is invalid at block end iff its last writer is a tail.
    last_landing = {}
    for rec in recs:
        if rec.kind == "alu" or (rec.kind == "mem" and rec.plan.is_load):
            landing = rec.ready if rec.kind == "alu" else rec.apply_c
            for pair in rec.plan.dest_pairs:
                if landing >= last_landing.get(pair, -1):
                    last_landing[pair] = landing
    for (cluster, index), landing in last_landing.items():
        if landing > last_rel:
            tail_masks[cluster] = tail_masks.get(cluster, 0) | (1 << index)
    for cluster in sorted(grow):
        need = grow[cluster]
        commit.append("if len(F%dv) < %d:" % (cluster, need))
        commit.append("    F%dv.extend([0] * (%d - len(F%dv)))"
                      % (cluster, need, cluster))
    for cluster, index, var in reg_commits:
        commit.append("F%dv[%d] = %s" % (cluster, index, var))
    for cluster in sorted(tail_masks):
        commit.append("F%d._invalid = %d" % (cluster, tail_masks[cluster]))
    for cluster in sorted(used_masks):
        commit.append("F%d._used |= %d" % (cluster, used_masks[cluster]))

    # Memory: bulk-advance the counters the emulated submits and
    # services would have bumped, apply committed accesses in service
    # order, then feed the tail submits to the real machinery (their
    # arrival numbers follow the bulk bump, preserving FIFO keys).
    if committed_mems:
        count = len(committed_mems)
        commit.append("M._arrivals += %d" % count)
        commit.append("M._seq += %d" % count)
        commit.append("ST.memory_accesses += %d" % count)
        for rec in committed_mems:
            if not rec.plan.is_load:
                commit.append("MV[%s] = %s" % (rec.var, rec.val_expr))
                commit.append("ME.discard(%s)" % rec.var)
            commit.append("MT[%s] = tid" % rec.var)
    for rec in mem_tails:
        ns["p%d" % rec.rank] = rec.plan
        ns["u%d" % rec.rank] = config.unit_by_id[rec.plan.uid]
        if rec.plan.is_load:
            request = "MemRequest(T, p%d.op, u%d, %s, spec=p%d.spec)" \
                % (rec.rank, rec.rank, rec.var, rec.rank)
        else:
            request = ("MemRequest(T, p%d.op, u%d, %s, store_value=%s, "
                       "spec=p%d.spec)" % (rec.rank, rec.rank, rec.var,
                                           rec.val_expr, rec.rank))
        commit.append("M.submit(%s, C0 + %d)" % (request, rec.submit))

    # Completion-heap tails, pushed in issue order with the seq numbers
    # the interpreted path would have assigned (committed ops consume
    # theirs silently via the final bump).
    pipe_tails = [rec for rec in issue_order
                  if not rec.committed
                  and not (rec.kind == "mem" and rec.submit <= last_rel)]
    if pipe_tails:
        commit.append("q = node._pipe_seq")
        commit.append("P = node._pipe")
        for rec in pipe_tails:
            rank = rec.rank
            ns["p%d" % rank] = rec.plan
            if rec.kind == "alu":
                payload = rec.var
            elif rec.kind == "sink":
                payload = "None"
            elif rec.kind == "mem":
                ns["u%d" % rank] = config.unit_by_id[rec.plan.uid]
                if rec.plan.is_load:
                    payload = "MemRequest(T, p%d.op, u%d, %s, spec=p%d" \
                        ".spec)" % (rank, rank, rec.var, rank)
                else:
                    payload = ("MemRequest(T, p%d.op, u%d, %s, "
                               "store_value=%s, spec=p%d.spec)"
                               % (rank, rank, rec.var, rec.val_expr,
                                  rank))
            else:                        # tail BRU: payload per cond
                control = rec.plan.control
                if control == "brt":
                    payload = "(p%d.taken_payload if %s else " \
                        "p%d.untaken_payload)" % (rank, rec.cond_var,
                                                  rank)
                elif control == "brf":
                    payload = "(p%d.untaken_payload if %s else " \
                        "p%d.taken_payload)" % (rank, rec.cond_var, rank)
                else:                    # br / halt
                    payload = "p%d.taken_payload" % rank
            commit.append("heappush(P, (C0 + %d, %d, q + %d, T, p%d, %s))"
                          % (rec.ready, rec.unit_index, rank + 1, rank,
                             payload))
        commit.append("node._pipe_seq = q + %d" % len(recs))
    else:
        commit.append("node._pipe_seq += %d" % len(recs))

    # Operation-cache LRU touches, one per successful issue check, in
    # issue order (the dispatch guard proved every line resident, so
    # the hit path's move_to_end is the only effect to replay).
    cache_checks = ()
    if config.op_cache is not None:
        steps = tuple((rec.unit_index, (thread_name, rec.ip))
                      for rec in issue_order)
        ns["CSTEPS"] = steps
        seen = []
        for step in steps:
            if step not in seen:
                seen.append(step)
        cache_checks = tuple(seen)
        commit.append("UL = node._units_list")
        commit.append("for cui, ckey in CSTEPS:")
        commit.append("    cc = UL[cui].opcache")
        commit.append("    if cc is not None:")
        commit.append("        cc._lines.move_to_end(ckey)")

    # Batched issue statistics.
    unit_counts = {}
    for rec in recs:
        unit_counts[rec.unit_index] = unit_counts.get(rec.unit_index,
                                                      0) + 1
    commit.append("IC = node._issued_counts")
    for unit_index in sorted(unit_counts):
        commit.append("IC[%d] += %d" % (unit_index,
                                        unit_counts[unit_index]))
    commit.append("TI = node._issued_tids")
    commit.append("TI[tid] = TI.get(tid, 0) + %d" % len(recs))
    grants = sum(len(rec.plan.dest_pairs) for rec in recs
                 if rec.committed and (rec.kind == "alu"
                                       or (rec.kind == "mem"
                                           and rec.plan.is_load)))
    if grants:
        commit.append("node._wb_grants_batch += %d" % grants)

    # Thread end state.
    commit.append("T.ip = %d" % run[-1][0])
    commit.append("T.pending_plans = []")
    if terminal is not None and not terminal.committed:
        commit.append("T.control_inflight = True")
    else:
        if terminal is not None:
            control = terminal.plan.control
            target = terminal.plan.taken_payload[1] \
                if control != "halt" else None
            if control == "halt":
                commit.append("T.halted = True")
            elif control == "br":
                commit.append("T.next_ip = %d" % target)
            elif control == "brt":
                commit.append("T.next_ip = %d if %s else None"
                              % (target, terminal.cond_var))
            else:                        # brf
                commit.append("T.next_ip = None if %s else %d"
                              % (terminal.cond_var, target))
        commit.append("T.advance_ready = True")
        commit.append("node._adv_any = True")
    if config.arbitration == "round-robin":
        commit.append("node.arbiter._next = tid + 1")
    commit.append("return C0 + %d" % last_rel)

    # ---- assemble ------------------------------------------------------
    body = ["FR = T.frames", "tid = T.tid"]
    dest_clusters = set(grow)
    for cluster in sorted(read_clusters | dest_clusters):
        body.append("F%d = FR.get(%d)" % (cluster, cluster))
        if cluster in dest_clusters:
            body.append("if F%d is None:" % cluster)
            body.append("    F%d = T.frame(%d)" % (cluster, cluster))
            body.append("F%dv = F%d._values" % (cluster, cluster))
        else:
            # Read-only cluster: the interpreted path never creates a
            # frame just to read zeros, so neither does the closure.
            body.append("F%dv = F%d._values if F%d is not None else ()"
                        % (cluster, cluster, cluster))
    if committed_mems or mem_tails:
        body.append("M = node.memory")
    if committed_mems:
        body.append("MV = M._values")
        body.append("MVg = MV.get")
        body.append("ME = M._empty")
        body.append("MT = M._last_touch")
        body.append("MB = M._busy")
        body.append("MQg = M._queues.get")
        body.append("MP = M._parked")
        body.append("MH = 1 if (MB or M._queues or MP) else 0")
        body.append("ST = node.stats")
    inner = (["OV = {}"] if use_ov else []) + entry_lines + compute
    if not inner:
        inner = ["pass"]
    body.append("try:")
    body.extend("    " + line for line in inner)
    body.append("except Exception:")
    body.append("    return None")
    body.extend(commit)
    source = "def _superblock(node, T, C0):\n" \
        + "".join("    %s\n" % line for line in body)
    code = compile(source, "<superblock %s@%d>" % (thread_name, start),
                   "exec")
    exec(code, ns)
    return BlockPlan(start, tuple(ip for ip, __, __ in run),
                     len(run[0][1].plans), len(recs), last_rel,
                     cache_checks, ns["_superblock"])


# ---------------------------------------------------------------------------
# Interleaved multithreaded superblocks
# ---------------------------------------------------------------------------
#
# When several threads are runnable at once the single-thread machinery
# above never fires — yet the kernel's behaviour over the next cycles
# is still fully determined whenever (a) the runnable set is fixed for
# the span (pipeline, wake, writeback, and spawn queues all empty, so
# nothing can spawn, retire, or unpark a thread the schedule does not
# itself model), (b) every scheduled thread sits at a fully un-issued
# word, and (c) no timed memory event lands inside the span.  Under
# those guards the arbiter's scan order is a pure function of the
# relative cycle, so :func:`_simulate_mt` replays the whole machine —
# all N threads, cross-thread unit contention, arbitration losses,
# parking and unparking — cycle by cycle at compile time, and
# :func:`_emit_mt_block` bakes the interleaving into one closure.
#
# A compiled interleaving is keyed by its *alignment*: the tuple of
# (program name, ip) per runnable thread, in arbiter scan order, with
# None placeholders for parked threads (they stay parked for the whole
# span — unparking needs a landing, and every in-span landing belongs
# to a scheduled thread — but they still occupy scan positions in the
# round-robin rotation).  The event kernel keeps a per-node table of
# compiled alignments: hot inner-loop alignments recur thousands of
# times, cold ones never cross the dispatch-count threshold.
#
# The span de-fuses at the earliest boundary the static schedule
# cannot see past: one cycle before the first branch resolution (which
# could spawn, halt, or redirect a thread), or the cycle a thread
# exhausts its fusible run.  Activity after the span's last issue,
# landing, or submit is trimmed — the closure returns the last active
# cycle, and the quiet tail (if any) is re-run by the interpreted
# kernel, whose progress/fast-forward bookkeeping must see it.  Every
# loose end — in-flight pipeline entries, partially issued words, park
# flags, the arbiter resume point — is materialized exactly as the
# interpreted kernel would have left it.

_MIN_MT_OPS = 6              # interleavings smaller than this don't pay
_MT_BIAS_SAMPLES = 8         # resolutions needed before a conditional
                             # branch may be followed through a span
_MT_BIAS_P = 0.9375          # observed direction rate needed to follow
_MT_CONF_MIN = 0.5           # cumulative follow-probability floor: stop
                             # extending a span once the chance that all
                             # its followed branches go as scheduled
                             # drops below this
_MT_SIM_CAP = 2048           # compile-time replay safety valve (cycles)


class MTBlockPlan:
    """One compiled interleaved superblock for a fixed alignment.

    ``fn(node, threads, cycle)`` executes the interleaving over the
    given thread list (arbiter scan order, parked threads included) and
    returns the absolute cycle of the span's last activity, or None
    when a run-time guard failed and the caller must fall back to the
    interpreted path.  ``last_rel`` is that cycle relative to entry.
    """

    __slots__ = ("n_slots", "n_ops", "last_rel", "fn", "emit_args",
                 "hits")

    def __init__(self, n_slots, n_ops, last_rel, fn):
        self.n_slots = n_slots
        self.n_ops = n_ops
        self.last_rel = last_rel
        self.fn = fn
        self.emit_args = None  # inputs for promote() codegen
        self.hits = 0          # successful dispatches since build

    def promote(self):
        """Swap the table-driven executor for a generated-and-compiled
        closure of the same schedule.  The closure runs several times
        faster per dispatch but costs milliseconds of ``compile()`` to
        build, so the kernel only promotes alignments whose dispatch
        count has proven the spend back."""
        if self.emit_args is None:
            return
        self.fn = _emit_mt_block(*self.emit_args).fn
        self.emit_args = None


class _MTState:
    """Compile-time replica of one scheduled thread's issue state."""

    __slots__ = ("k", "words", "mem_ok", "cap", "ops", "cur_ip",
                 "pending", "valid_at", "parked", "control_inflight",
                 "advance_ready", "next_ip", "resolve_rec", "done",
                 "fresh", "unparks")


def compile_mt_run(slots, config, arbitration, horizon, bias):
    """Compile one interleaved superblock.

    ``slots`` is the alignment in arbiter scan order: per position
    either None (a parked thread holding its scan slot) or a
    ``(decoded_thread, ip)`` pair for a runnable thread at a fully
    un-issued word.  For round-robin the caller passes ``slots``
    pre-rotated to the scan head, so relative cycle j scans from
    position ``j % N`` — the schedule is therefore shared by every
    entry state whose rotated alignment matches, regardless of tids.
    ``horizon`` caps the span length in cycles; the event kernel
    shrinks it adaptively for alignments whose long schedules keep
    failing their run-time guards.  Returns an :class:`MTBlockPlan`,
    or None when the alignment cannot be fused at this horizon.
    """
    mem_ok = config.memory.miss_rate == 0.0
    rr = arbitration == "round-robin"
    states = _mt_entry_states(slots, mem_ok)
    if states is None:
        return None
    sim = _simulate_mt(states, config, rr, horizon, True, bias)
    if sim is None:
        return None
    recs, arriving, last_rel, losses, best_cut = sim
    if best_cut is not None:
        # The horizon cut the span mid-word, which would strand the
        # threads at a here-to-fore unseen alignment: re-simulate up to
        # the last *dispatchable* point instead (all scheduled threads
        # at fresh full words, pipeline and memory drained), so the
        # span ends exactly where the next fused dispatch can pick up
        # and the alignment key set stays small and recurrent.
        snapped = _mt_entry_states(slots, mem_ok)
        sim = _simulate_mt(snapped, config, rr, best_cut, False, bias)
        if sim is not None and len(sim[0]) >= _MIN_MT_OPS:
            states = snapped
            recs, arriving, last_rel, losses, __ = sim
    if len(recs) < _MIN_MT_OPS:
        return None
    block = _build_mt_run(slots, states, config, rr, recs, arriving,
                          last_rel, losses)
    block.emit_args = (slots, states, config, rr, recs, arriving,
                       last_rel, losses)
    return block


def _mt_entry_states(slots, mem_ok):
    """Build the per-slot simulation states for one alignment, or None
    when a scheduled entry word cannot be fused at all."""
    nsched = sum(1 for slot in slots if slot is not None)
    cap = max(_MIN_MT_OPS, _MAX_BLOCK_OPS // nsched)
    states = []
    for k, slot in enumerate(slots):
        if slot is None:
            states.append(None)
            continue
        decoded, ip = slot[0], slot[1]
        mask = slot[2] if len(slot) > 2 else None
        state = _MTState()
        state.k = k
        state.words = decoded.words
        state.mem_ok = mem_ok
        state.cap = cap
        state.ops = 0
        state.cur_ip = ip
        state.pending = None
        state.valid_at = {}
        state.parked = False
        state.control_inflight = False
        state.advance_ready = False
        state.next_ip = None
        state.resolve_rec = None
        state.done = False
        state.fresh = True
        state.unparks = []
        if mask is None:
            if not _mt_fetch(state, ip):
                return None
        elif not _mt_fetch_partial(state, ip, mask):
            return None
        states.append(state)
    return states


def _mt_fetch_partial(state, target, mask):
    """Enter a partially issued word: mint records only for the plans
    still pending — ``mask`` is a bitmask over the word's slot
    positions.  Already-issued slots don't disqualify the remainder
    even when unfusible themselves: the dispatch gate requires a
    drained pipeline, so their effects have fully landed.  The word's
    op-budget charge is just the remainder."""
    words = state.words
    if target >= len(words):
        return False
    remaining = [(pos, plan)
                 for pos, plan in enumerate(words[target].plans)
                 if mask >> pos & 1]
    if not remaining or state.ops + len(remaining) > state.cap:
        return False
    bru = None
    for __, plan in remaining:
        if plan.is_bru:
            if plan.control not in _FUSIBLE_BRANCHES \
                    or bru is not None:
                return False
            bru = plan
        elif plan.is_memory:
            if not state.mem_ok or plan.name not in ("ld", "st"):
                return False
    state.cur_ip = target
    state.ops += len(remaining)
    pending = []
    for slot_pos, plan in remaining:
        rec = _Rec()
        rec.plan = plan
        rec.ip = target
        rec.k = state.k
        rec.word_pos = 0
        rec.slot_pos = slot_pos
        rec.unit_index = plan.unit_index
        rec.var = None
        rec.val_expr = None
        rec.cond_var = None
        rec.followed = False
        rec.br_target = None
        rec.assume_taken = False
        pending.append(rec)
    state.pending = pending
    state.fresh = True
    return True


def _mt_fetchable(state, target):
    """Whether ``target`` can join the span: in range (falling off the
    end is the interpreter's error to raise), within the per-thread op
    budget, and fusible."""
    words = state.words
    if target >= len(words):
        return False
    word = words[target]
    if state.ops + len(word.plans) > state.cap:
        return False
    ok, __ = _word_fusible(word, state.mem_ok)
    return ok


def _mt_fetch(state, target):
    """Enter ``target``: mint one schedule record per slot (the
    analogue of the kernel's ``pending_plans = list(word.plans)``)."""
    if not _mt_fetchable(state, target):
        return False
    word = state.words[target]
    state.cur_ip = target
    state.ops += len(word.plans)
    pending = []
    for slot_pos, plan in enumerate(word.plans):
        rec = _Rec()
        rec.plan = plan
        rec.ip = target
        rec.k = state.k
        rec.word_pos = 0
        rec.slot_pos = slot_pos
        rec.unit_index = plan.unit_index
        rec.var = None
        rec.val_expr = None
        rec.cond_var = None
        rec.followed = False
        rec.br_target = None
        rec.assume_taken = False
        pending.append(rec)
    state.pending = pending
    state.fresh = True
    return True


def _simulate_mt(states, config, rr, horizon, snap, bias):
    """Replay the event kernel cycle by cycle over one alignment.

    Models exactly the phases that matter inside a span: pipeline pops
    land results and resolve branches (phase 1 — registers are
    thread-private, so every unpark is caused by one of the thread's
    own results), memory applies land loads (phase 2), flagged threads
    advance into their next word (phase 4), and the issue scan walks
    the alignment in arbiter order (phase 5): pending slots in slot
    order, first claim per unit table index wins, losers count an
    arbitration loss and pin their thread awake, and a thread with
    nothing actionable and no side effects parks.

    Branches are *followed*: an unconditional ``br`` jumps to its
    static target, and a conditional ``brt``/``brf`` is scheduled down
    an assumed direction — taken for backward targets (loop edges),
    fall-through otherwise — which the emitted closure enforces with a
    run-time guard on the issue-time condition value, falling back to
    the interpreter when the assumption misses.  The span's hard end
    is the earliest boundary the schedule cannot cross: one cycle
    before a ``halt`` resolves (retiring the thread would change the
    runnable set), the cycle a thread's next word refuses to join the
    span, or the horizon.  ``last_rel`` additionally trims trailing
    quiet cycles — it is the relative cycle of the last issue,
    pipeline pop, or memory apply at or before the hard end, which is
    exactly the cycle the kernel's ``_last_progress`` would record.
    Returns (recs, arriving, last_rel, losses) or None.
    """
    unit_by_id = config.unit_by_id
    hit_latency = config.memory.hit_latency
    n = len(states)
    if horizon > _MT_SIM_CAP:
        horizon = _MT_SIM_CAP
    scheduled = [state for state in states if state is not None]
    recs = []
    losses = 0
    hard_end = None
    conf = 1.0           # P(every followed conditional goes as assumed)
    busy_until = -1      # last pipeline pop / memory apply scheduled
    best_cut = None      # last dispatchable top-of-cycle (snap pass)
    t = 0
    while (hard_end is None or t <= hard_end) and t < horizon:
        if snap and t and busy_until < t:
            # Nothing in flight: if every scheduled thread sits at a
            # fresh, fully un-issued word (or is parked with its wake
            # already landed), the kernel could dispatch a fused block
            # right here — remember the latest such point.
            for state in scheduled:
                if state.resolve_rec is not None or state.control_inflight:
                    break
                if not state.parked and (not state.pending
                                         or not state.fresh):
                    break
            else:
                best_cut = t
        # Peek: a branch resolving this cycle on a thread whose word is
        # already empty advances it *this same cycle*; if the (assumed)
        # target cannot join the span, the span must end before this
        # cycle — nothing at cycle t may be processed, the resolution
        # stays with the real machinery.
        stop = False
        for state in scheduled:
            rec = state.resolve_rec
            if rec is not None and rec.ready == t and not state.pending:
                target = rec.br_target if rec.br_target is not None \
                    else state.cur_ip + 1
                if not _mt_fetchable(state, target):
                    stop = True
                    break
        if stop:
            hard_end = t - 1
            break
        for state in scheduled:
            rec = state.resolve_rec
            if rec is not None and rec.ready == t:
                rec.followed = True
                state.resolve_rec = None
                state.control_inflight = False
                state.next_ip = rec.br_target
                if not state.pending:
                    target = state.next_ip if state.next_ip is not None \
                        else state.cur_ip + 1
                    state.next_ip = None
                    _mt_fetch(state, target)
            unparks = state.unparks
            if unparks and unparks[0] <= t:
                while unparks and unparks[0] <= t:
                    heappop(unparks)
                state.parked = False
            if state.advance_ready:
                state.advance_ready = False
                target = state.next_ip if state.next_ip is not None \
                    else state.cur_ip + 1
                state.next_ip = None
                _mt_fetch(state, target)     # fetchability pre-checked
        claimed = set()
        for j in range(n):
            state = states[(t + j) % n] if rr else states[j]
            if state is None or state.parked:
                continue
            pending = state.pending
            if not pending:
                continue             # control in flight / thread done
            can_park = True
            for rec in list(pending):
                plan = rec.plan
                ready = True
                for pair in plan.wait_registers():
                    if state.valid_at.get(pair, 0) > t:
                        ready = False
                        break
                if not ready:
                    continue
                if rec.unit_index in claimed:
                    losses += 1
                    can_park = False
                    continue
                rec.t = t
                rec.rank = len(recs)
                rec.ready = t + unit_by_id[plan.uid].latency
                recs.append(rec)
                claimed.add(rec.unit_index)
                pending.remove(rec)
                state.fresh = False
                can_park = False
                if rec.ready > busy_until:
                    busy_until = rec.ready
                if plan.is_memory:
                    rec.kind = "mem"
                    rec.submit = rec.ready
                    rec.apply_c = rec.ready + hit_latency - 1
                    if rec.apply_c > busy_until:
                        busy_until = rec.apply_c
                    if plan.is_load:
                        for pair in plan.dest_pairs:
                            state.valid_at[pair] = rec.apply_c
                        heappush(state.unparks, rec.apply_c)
                elif plan.is_bru:
                    rec.kind = "bru"
                    state.control_inflight = True
                    control = plan.control
                    if control == "halt":
                        end = rec.ready - 1
                        if hard_end is None or end < hard_end:
                            hard_end = end
                    elif control == "br":
                        rec.br_target = plan.taken_payload[1]
                        state.resolve_rec = rec
                    else:
                        # Follow a conditional only down a direction the
                        # interpreter has seen it take decisively, and
                        # only while the *cumulative* probability that
                        # every followed branch goes as scheduled stays
                        # high — each extra branch multiplies the whole
                        # dispatch's failure odds.  Anything else ends
                        # the span at the branch's resolution (it stays
                        # a pipeline tail with a cond-chosen payload,
                        # like any other span boundary).
                        counts = bias.get(plan)
                        follow = None
                        if counts is not None:
                            total = counts[0] + counts[1]
                            if total >= _MT_BIAS_SAMPLES:
                                p = counts[0] / total
                                if p >= _MT_BIAS_P:
                                    follow, pf = True, p
                                elif p <= 1.0 - _MT_BIAS_P:
                                    follow, pf = False, 1.0 - p
                        if follow is not None \
                                and conf * pf >= _MT_CONF_MIN:
                            conf *= pf
                            rec.assume_taken = follow
                            rec.br_target = plan.taken_payload[1] \
                                if follow else None
                            state.resolve_rec = rec
                        else:
                            end = rec.ready - 1
                            if hard_end is None or end < hard_end:
                                hard_end = end
                elif plan.dest_pairs:
                    rec.kind = "alu"
                    for pair in plan.dest_pairs:
                        state.valid_at[pair] = rec.ready
                    heappush(state.unparks, rec.ready)
                else:
                    rec.kind = "sink"
            if can_park and state.pending:
                state.parked = True
            elif not state.pending and not state.control_inflight \
                    and not state.done:
                target = state.next_ip if state.next_ip is not None \
                    else state.cur_ip + 1
                if _mt_fetchable(state, target):
                    state.advance_ready = True
                else:
                    state.done = True
                    if hard_end is None or t < hard_end:
                        hard_end = t
        t += 1
    natural = hard_end is not None and hard_end < horizon
    if hard_end is None or hard_end >= horizon:
        hard_end = horizon - 1
    if hard_end < 0 or not recs:
        return None
    if natural or best_cut is None or best_cut >= horizon \
            or best_cut < _MIN_MT_OPS:
        best_cut = None
    last_rel = 0
    for rec in recs:
        if rec.t > last_rel:
            last_rel = rec.t
        if rec.ready <= hard_end and rec.ready > last_rel:
            last_rel = rec.ready
        if rec.kind == "mem" and rec.apply_c <= hard_end \
                and rec.apply_c > last_rel:
            last_rel = rec.apply_c
    for rec in recs:
        if rec.kind == "mem":
            rec.committed = rec.apply_c <= last_rel
        elif rec.kind == "bru":
            # A followed branch resolved in-span (its pop is activity,
            # so last_rel covers it); anything else is a tail pop.
            rec.committed = rec.followed
        else:
            rec.committed = rec.ready <= last_rel
    arriving = sorted((rec for rec in recs
                       if rec.kind == "mem" and rec.submit <= last_rel),
                      key=_arrival_key)
    for arrival, rec in enumerate(arriving):
        rec.arrival = arrival
    return recs, arriving, last_rel, losses, best_cut


def _emit_mt_block(slots, states, config, rr, recs, arriving, last_rel,
                   losses):
    """Generate, compile, and wrap the closure for one interleaving.

    Same two-halves structure as :func:`_emit_block` — a compute half
    (inside a ``try``) that walks the merged event timeline through SSA
    locals and performs every run-time guard without mutating anything,
    then a commit half — generalized to per-(thread, cluster) register
    frames and per-thread end state.  The span may end with threads
    mid-word, so the end state also materializes each thread's
    partially issued ``pending_plans``, park flag, in-flight control,
    advance flag, and the arbiter's round-robin resume point.
    """
    mem_size = config.memory_size
    ns = {"heappush": heappush, "MemRequest": MemRequest}
    counter = [0]
    n = len(slots)

    committed_mems = [rec for rec in arriving if rec.committed]
    mem_tails = [rec for rec in arriving if not rec.committed]
    use_ov = any(rec.plan.is_load for rec in committed_mems) \
        and any(not rec.plan.is_load for rec in committed_mems)

    # Same-address service windows overlapping a committed access would
    # queue — not modelled by the bulk counters — so those pairs get a
    # run-time distinctness check (now also across threads).
    pairs = []
    for i, first in enumerate(arriving):
        if not first.committed:
            continue
        for second in arriving[i + 1:]:
            if second.submit <= first.apply_c:
                pairs.append((first, second))
            else:
                break

    events = []
    for rec in recs:
        events.append((rec.t, 5, rec.rank, rec))
        if rec.committed:
            if rec.kind == "alu":
                events.append((rec.ready, 1, (rec.unit_index, rec.rank),
                               rec))
            elif rec.kind == "mem":
                events.append((rec.apply_c, 2, rec.arrival, rec))
    events.sort(key=lambda event: event[:3])

    compute = []
    entry_lines = []
    regvar = {}          # (k, cluster, index) -> current SSA local
    entry_reads = {}
    read_frames = set()  # (k, cluster) pairs read before first write
    reg_commits = []     # (k, cluster, index, local) in landing order
    addr_done = set()

    def reg_read(k, cluster, index):
        key = (k, cluster, index)
        var = regvar.get(key)
        if var is not None:
            return var
        var = entry_reads.get(key)
        if var is None:
            var = "e%d_%d_%d" % key
            entry_reads[key] = var
            read_frames.add((k, cluster))
            entry_lines.append(
                "%s = F%d_%dv[%d] if %d < len(F%d_%dv) else 0"
                % (var, k, cluster, index, index, k, cluster))
        return var

    def srcs_of(rec):
        plan = rec.plan
        out = []
        if plan.values_template is None:
            return out
        fields = {pos: (cluster, index)
                  for pos, cluster, index in plan.src_fields}
        for pos, baked in enumerate(plan.values_template):
            pair = fields.get(pos)
            if pair is not None:
                out.append((reg_read(rec.k, pair[0], pair[1]), False))
            else:
                out.append(_const_expr(baked, ns, counter))
        return out

    for __, phase, __, rec in events:
        plan = rec.plan
        rank = rec.rank
        if phase == 5:
            if rec.kind == "alu":
                rec.var = "v%d" % rank
                compute.append("%s = %s" % (
                    rec.var, _semantics_expr(plan, srcs_of(rec), ns,
                                             rank)))
            elif rec.kind == "mem":
                srcs = srcs_of(rec)
                if plan.is_load:
                    base, offset = srcs[0], srcs[1]
                else:
                    rec.val_expr = srcs[0][0]
                    base, offset = srcs[1], srcs[2]
                rec.var = "a%d" % rank
                compute.append("%s = %s + %s" % (
                    rec.var, _int_src(base), _int_src(offset)))
                if rec.submit <= last_rel:
                    compute.append("if not 0 <= %s < %d:"
                                   % (rec.var, mem_size))
                    compute.append("    return None")
                    if rec.committed:
                        guard = "MQg(%s) or %s in MB" % (rec.var,
                                                         rec.var)
                        if not plan.is_load:
                            guard += " or %s in MP" % rec.var
                        compute.append("if MH and (%s):" % guard)
                        compute.append("    return None")
                    addr_done.add(rank)
                    for first, second in pairs:
                        if rec in (first, second):
                            other = second if rec is first else first
                            if other.rank in addr_done:
                                compute.append(
                                    "if %s == %s:" % (first.var,
                                                      second.var))
                                compute.append("    return None")
            elif rec.kind == "bru":
                srcs = srcs_of(rec)
                if plan.control in ("brt", "brf"):
                    rec.cond_var = srcs[0][0]
                    if rec.followed:
                        # The schedule followed an assumed direction;
                        # bail to the interpreter when the issue-time
                        # condition value disagrees.
                        want_truthy = (plan.control == "brt") \
                            == rec.assume_taken
                        compute.append("if %s%s:" % (
                            "not " if want_truthy else "", rec.cond_var))
                        compute.append("    return None")
            # sink: semantics is ``lambda a: None`` — nothing to do
        elif phase == 1:
            for cluster, index in plan.dest_pairs:
                regvar[(rec.k, cluster, index)] = rec.var
                reg_commits.append((rec.k, cluster, index, rec.var))
        else:                            # phase 2: committed mem apply
            if plan.is_load:
                value = "v%d" % rank
                rec.val_expr = value
                if use_ov:
                    compute.append(
                        "%s = OV[%s] if %s in OV else MVg(%s, 0)"
                        % (value, rec.var, rec.var, rec.var))
                else:
                    compute.append("%s = MVg(%s, 0)" % (value, rec.var))
                for cluster, index in plan.dest_pairs:
                    regvar[(rec.k, cluster, index)] = value
                    reg_commits.append((rec.k, cluster, index, value))
            elif use_ov:
                compute.append("OV[%s] = %s" % (rec.var, rec.val_expr))

    # ---- commit half ---------------------------------------------------
    commit = []

    grow = {}
    used_masks = {}
    last_landing = {}
    for rec in recs:
        dests = rec.plan.dest_pairs
        if rec.kind not in ("alu", "mem") or not dests:
            continue
        if rec.kind == "mem" and not rec.plan.is_load:
            continue
        landing = rec.ready if rec.kind == "alu" else rec.apply_c
        for cluster, index in dests:
            key = (rec.k, cluster)
            if index + 1 > grow.get(key, 0):
                grow[key] = index + 1
            if rec.committed:
                used_masks[key] = used_masks.get(key, 0) | (1 << index)
            triple = (rec.k, cluster, index)
            if landing >= last_landing.get(triple, -1):
                last_landing[triple] = landing
    tail_masks = {}
    for (k, cluster, index), landing in last_landing.items():
        if landing > last_rel:
            key = (k, cluster)
            tail_masks[key] = tail_masks.get(key, 0) | (1 << index)
    for k, cluster in sorted(grow):
        need = grow[(k, cluster)]
        commit.append("if len(F%d_%dv) < %d:" % (k, cluster, need))
        commit.append("    F%d_%dv.extend([0] * (%d - len(F%d_%dv)))"
                      % (k, cluster, need, k, cluster))
    for k, cluster, index, var in reg_commits:
        commit.append("F%d_%dv[%d] = %s" % (k, cluster, index, var))
    for k, cluster in sorted(tail_masks):
        commit.append("F%d_%d._invalid = %d"
                      % (k, cluster, tail_masks[(k, cluster)]))
    for k, cluster in sorted(used_masks):
        commit.append("F%d_%d._used |= %d"
                      % (k, cluster, used_masks[(k, cluster)]))

    if committed_mems:
        count = len(committed_mems)
        commit.append("M._arrivals += %d" % count)
        commit.append("M._seq += %d" % count)
        commit.append("ST.memory_accesses += %d" % count)
        for rec in committed_mems:
            if not rec.plan.is_load:
                commit.append("MV[%s] = %s" % (rec.var, rec.val_expr))
                commit.append("ME.discard(%s)" % rec.var)
            commit.append("MT[%s] = t%d" % (rec.var, rec.k))
    for rec in mem_tails:
        ns["p%d" % rec.rank] = rec.plan
        ns["u%d" % rec.rank] = config.unit_by_id[rec.plan.uid]
        if rec.plan.is_load:
            request = "MemRequest(T%d, p%d.op, u%d, %s, spec=p%d.spec)" \
                % (rec.k, rec.rank, rec.rank, rec.var, rec.rank)
        else:
            request = ("MemRequest(T%d, p%d.op, u%d, %s, store_value=%s,"
                       " spec=p%d.spec)"
                       % (rec.k, rec.rank, rec.rank, rec.var,
                          rec.val_expr, rec.rank))
        commit.append("M.submit(%s, C0 + %d)" % (request, rec.submit))

    pipe_tails = [rec for rec in recs
                  if not rec.committed
                  and not (rec.kind == "mem" and rec.submit <= last_rel)]
    if pipe_tails:
        commit.append("q = node._pipe_seq")
        commit.append("P = node._pipe")
        for rec in pipe_tails:
            rank = rec.rank
            ns["p%d" % rank] = rec.plan
            if rec.kind == "alu":
                payload = rec.var
            elif rec.kind == "sink":
                payload = "None"
            elif rec.kind == "mem":
                ns["u%d" % rank] = config.unit_by_id[rec.plan.uid]
                if rec.plan.is_load:
                    payload = "MemRequest(T%d, p%d.op, u%d, %s, spec=" \
                        "p%d.spec)" % (rec.k, rank, rank, rec.var, rank)
                else:
                    payload = ("MemRequest(T%d, p%d.op, u%d, %s, "
                               "store_value=%s, spec=p%d.spec)"
                               % (rec.k, rank, rank, rec.var,
                                  rec.val_expr, rank))
            else:                        # tail BRU: payload per cond
                control = rec.plan.control
                if control == "brt":
                    payload = "(p%d.taken_payload if %s else " \
                        "p%d.untaken_payload)" % (rank, rec.cond_var,
                                                  rank)
                elif control == "brf":
                    payload = "(p%d.untaken_payload if %s else " \
                        "p%d.taken_payload)" % (rank, rec.cond_var, rank)
                else:                    # br / halt
                    payload = "p%d.taken_payload" % rank
            commit.append("heappush(P, (C0 + %d, %d, q + %d, T%d, p%d, "
                          "%s))" % (rec.ready, rec.unit_index, rank + 1,
                                    rec.k, rank, payload))
        commit.append("node._pipe_seq = q + %d" % len(recs))
    else:
        commit.append("node._pipe_seq += %d" % len(recs))

    unit_counts = {}
    issued_per_thread = {}
    for rec in recs:
        unit_counts[rec.unit_index] = unit_counts.get(rec.unit_index,
                                                      0) + 1
        issued_per_thread[rec.k] = issued_per_thread.get(rec.k, 0) + 1
    commit.append("IC = node._issued_counts")
    for unit_index in sorted(unit_counts):
        commit.append("IC[%d] += %d" % (unit_index,
                                        unit_counts[unit_index]))
    commit.append("TI = node._issued_tids")
    for k in sorted(issued_per_thread):
        commit.append("TI[t%d] = TI.get(t%d, 0) + %d"
                      % (k, k, issued_per_thread[k]))
    if losses:
        commit.append("node._arb_losses += %d" % losses)
    grants = sum(len(rec.plan.dest_pairs) for rec in recs
                 if rec.committed and (rec.kind == "alu"
                                       or (rec.kind == "mem"
                                           and rec.plan.is_load)))
    if grants:
        commit.append("node._wb_grants_batch += %d" % grants)

    # Per-thread end state: the span may cut threads mid-word.
    adv_any = False
    for state in states:
        if state is None:
            continue
        k = state.k
        commit.append("T%d.ip = %d" % (k, state.cur_ip))
        remaining = state.pending
        plan_names = []
        for i, rec in enumerate(remaining):
            pname = "w%d_%d" % (k, i)
            ns[pname] = rec.plan
            plan_names.append(pname)
        commit.append("T%d.pending_plans = [%s]"
                      % (k, ", ".join(plan_names)))
        if state.control_inflight:
            commit.append("T%d.control_inflight = True" % k)
        if state.next_ip is not None:
            # A branch resolved in-span but its advance lies beyond the
            # span; the kernel's next _advance_plan consumes this.
            commit.append("T%d.next_ip = %d" % (k, state.next_ip))
        if state.parked:
            commit.append("T%d.parked = True" % k)
        if not remaining and not state.control_inflight:
            commit.append("T%d.advance_ready = True" % k)
            adv_any = True
    if adv_any:
        commit.append("node._adv_any = True")
    if rr:
        # The scan of relative cycle j starts at rotated position
        # j % N, so after the span's last cycle the arbiter resumes
        # past that position's tid — whoever holds it, parked or not.
        commit.append("node.arbiter._next = TS[%d].tid + 1"
                      % (last_rel % n))
    commit.append("return C0 + %d" % last_rel)

    # ---- assemble ------------------------------------------------------
    body = []
    sched = [state for state in states if state is not None]
    for state in sched:
        body.append("T%d = TS[%d]" % (state.k, state.k))
        body.append("t%d = T%d.tid" % (state.k, state.k))
    frames_needed = sorted(read_frames | set(grow))
    for k in sorted({k for k, __ in frames_needed}):
        body.append("F%dR = T%d.frames" % (k, k))
    for k, cluster in frames_needed:
        body.append("F%d_%d = F%dR.get(%d)" % (k, cluster, k, cluster))
        if (k, cluster) in grow:
            body.append("if F%d_%d is None:" % (k, cluster))
            body.append("    F%d_%d = T%d.frame(%d)"
                        % (k, cluster, k, cluster))
            body.append("F%d_%dv = F%d_%d._values"
                        % (k, cluster, k, cluster))
        else:
            body.append("F%d_%dv = F%d_%d._values "
                        "if F%d_%d is not None else ()"
                        % (k, cluster, k, cluster, k, cluster))
    if committed_mems or mem_tails:
        body.append("M = node.memory")
    if committed_mems:
        body.append("MV = M._values")
        body.append("MVg = MV.get")
        body.append("ME = M._empty")
        body.append("MT = M._last_touch")
        body.append("MB = M._busy")
        body.append("MQg = M._queues.get")
        body.append("MP = M._parked")
        body.append("MH = 1 if (MB or M._queues or MP) else 0")
        body.append("ST = node.stats")
    inner = (["OV = {}"] if use_ov else []) + entry_lines + compute
    if not inner:
        inner = ["pass"]
    body.append("try:")
    body.extend("    " + line for line in inner)
    body.append("except Exception:")
    body.append("    return None")
    body.extend(commit)
    label = "+".join("%s@%d" % (slot[0].name, slot[1]) if slot else "~"
                     for slot in slots)
    source = "def _mtblock(node, TS, C0):\n" \
        + "".join("    %s\n" % line for line in body)
    code = compile(source, "<mtblock %s>" % label, "exec")
    exec(code, ns)
    return MTBlockPlan(n, len(recs), last_rel, ns["_mtblock"])

# Step opcodes for the table-driven interleaved-superblock executor.
# The compute table is a flat list of tuples walked in merged event
# order; operands are *atoms* — ``(0, value)`` for a baked constant,
# ``(1, rank)`` for a scratch value produced earlier in the span, and
# ``(2, eslot)`` for an entry-time register read.  Entry reads are
# snapshotted into a flat list before the compute half runs: atoms may
# be resolved as late as the commit half (store values, tail branch
# conditions), by which point the frames have already absorbed the
# span's register writes.
_MT_ALU = 0          # (0, rank, semantics, atoms)
_MT_ADDR = 1         # (1, rank, base_atom, offset_atom)
_MT_BOUNDS = 2       # (2, rank)
_MT_HAZARD = 3       # (3, rank, is_store)
_MT_PAIR = 4         # (4, rank_a, rank_b)
_MT_BRGUARD = 5      # (5, cond_atom, want_truthy)
_MT_LOAD = 6         # (6, rank, use_overlay)
_MT_STORE_OV = 7     # (7, rank, value_atom)


def _mt_resolve(atom, vals, evals):
    """Resolve one operand atom against the span's scratch values and
    the entry-time register snapshot."""
    tag = atom[0]
    if tag == 0:
        return atom[1]
    if tag == 1:
        return vals[atom[1]]
    return evals[atom[1]]


def _build_mt_run(slots, states, config, rr, recs, arriving, last_rel,
                  losses):
    """Build the table-driven executor for one interleaving.

    Walks the same merged event timeline as :func:`_emit_mt_block` and
    enforces the same two-halves discipline — a guarded compute half
    that mutates nothing, then a commit half — but emits step *tables*
    interpreted by a generic driver instead of generating and
    ``compile()``-ing source.  A driver dispatch costs a few times a
    closure dispatch, but the build is ~50x cheaper, which is what
    makes fusing the long tail of alignments (hundreds per benchmark,
    most dispatched only a handful of times) profitable at all;
    :meth:`MTBlockPlan.promote` upgrades the few alignments hot enough
    to amortize real codegen.
    """
    mem_size = config.memory_size
    n = len(slots)

    committed_mems = [rec for rec in arriving if rec.committed]
    mem_tails = [rec for rec in arriving if not rec.committed]
    use_ov = any(rec.plan.is_load for rec in committed_mems) \
        and any(not rec.plan.is_load for rec in committed_mems)

    pairs = []
    for i, first in enumerate(arriving):
        if not first.committed:
            continue
        for second in arriving[i + 1:]:
            if second.submit <= first.apply_c:
                pairs.append((first, second))
            else:
                break

    events = []
    for rec in recs:
        events.append((rec.t, 5, rec.rank, rec))
        if rec.committed:
            if rec.kind == "alu":
                events.append((rec.ready, 1, (rec.unit_index, rec.rank),
                               rec))
            elif rec.kind == "mem":
                events.append((rec.apply_c, 2, rec.arrival, rec))
    events.sort(key=lambda event: event[:3])

    frame_slots = {}     # (k, cluster) -> fslot index
    frame_of = []        # fslot -> [k, cluster, grow_need]

    def fslot_of(k, cluster):
        key = (k, cluster)
        fslot = frame_slots.get(key)
        if fslot is None:
            fslot = len(frame_of)
            frame_slots[key] = fslot
            frame_of.append([k, cluster, 0])
        return fslot

    compute = []
    regvar = {}          # (k, cluster, index) -> scratch-rank atom
    entry_reads = {}     # (k, cluster, index) -> entry atom
    entry_list = []      # eslot -> (index, fslot) to snapshot at entry
    reg_commits = []     # (fslot, index, rank) in landing order
    store_vals = {}      # mem rank -> store-value atom
    cond_atoms = {}      # bru rank -> condition atom
    addr_done = set()

    def srcs_of(rec):
        plan = rec.plan
        out = []
        if plan.values_template is None:
            return out
        fields = {pos: (cluster, index)
                  for pos, cluster, index in plan.src_fields}
        for pos, baked in enumerate(plan.values_template):
            pair = fields.get(pos)
            if pair is not None:
                key = (rec.k, pair[0], pair[1])
                atom = regvar.get(key)
                if atom is None:
                    atom = entry_reads.get(key)
                    if atom is None:
                        atom = (2, len(entry_list))
                        entry_list.append(
                            (pair[1], fslot_of(rec.k, pair[0])))
                        entry_reads[key] = atom
                out.append(atom)
            else:
                out.append((0, baked))
        return out

    for __, phase, __, rec in events:
        plan = rec.plan
        rank = rec.rank
        if phase == 5:
            if rec.kind == "alu":
                compute.append((_MT_ALU, rank, plan.semantics,
                                tuple(srcs_of(rec))))
            elif rec.kind == "mem":
                srcs = srcs_of(rec)
                if plan.is_load:
                    base, offset = srcs[0], srcs[1]
                else:
                    store_vals[rank] = srcs[0]
                    base, offset = srcs[1], srcs[2]
                compute.append((_MT_ADDR, rank, base, offset))
                if rec.submit <= last_rel:
                    compute.append((_MT_BOUNDS, rank))
                    if rec.committed:
                        compute.append((_MT_HAZARD, rank,
                                        not plan.is_load))
                    addr_done.add(rank)
                    for first, second in pairs:
                        if rec in (first, second):
                            other = second if rec is first else first
                            if other.rank in addr_done:
                                compute.append((_MT_PAIR, first.rank,
                                                second.rank))
            elif rec.kind == "bru":
                srcs = srcs_of(rec)
                if plan.control in ("brt", "brf"):
                    cond_atoms[rank] = srcs[0]
                    if rec.followed:
                        want_truthy = (plan.control == "brt") \
                            == rec.assume_taken
                        compute.append((_MT_BRGUARD, srcs[0],
                                        want_truthy))
        elif phase == 1:
            for cluster, index in plan.dest_pairs:
                regvar[(rec.k, cluster, index)] = (1, rank)
                reg_commits.append((fslot_of(rec.k, cluster), index,
                                    rank))
        else:                            # phase 2: committed mem apply
            if plan.is_load:
                compute.append((_MT_LOAD, rank, use_ov))
                for cluster, index in plan.dest_pairs:
                    regvar[(rec.k, cluster, index)] = (1, rank)
                    reg_commits.append((fslot_of(rec.k, cluster), index,
                                        rank))
            elif use_ov:
                compute.append((_MT_STORE_OV, rank, store_vals[rank]))

    # ---- commit tables -------------------------------------------------
    grow = {}
    used_masks = {}
    last_landing = {}
    for rec in recs:
        dests = rec.plan.dest_pairs
        if rec.kind not in ("alu", "mem") or not dests:
            continue
        if rec.kind == "mem" and not rec.plan.is_load:
            continue
        landing = rec.ready if rec.kind == "alu" else rec.apply_c
        for cluster, index in dests:
            key = (rec.k, cluster)
            if index + 1 > grow.get(key, 0):
                grow[key] = index + 1
            if rec.committed:
                used_masks[key] = used_masks.get(key, 0) | (1 << index)
            triple = (rec.k, cluster, index)
            if landing >= last_landing.get(triple, -1):
                last_landing[triple] = landing
    tail_masks = {}
    for (k, cluster, index), landing in last_landing.items():
        if landing > last_rel:
            key = (k, cluster)
            tail_masks[key] = tail_masks.get(key, 0) | (1 << index)
    for (k, cluster), need in grow.items():
        frame_of[fslot_of(k, cluster)][2] = need
    invalid_list = tuple((fslot_of(k, cluster), mask)
                         for (k, cluster), mask in sorted(
                             tail_masks.items()))
    used_list = tuple((fslot_of(k, cluster), mask)
                      for (k, cluster), mask in sorted(
                          used_masks.items()))
    frame_spec = tuple(tuple(entry) for entry in frame_of)
    entry_list = tuple(entry_list)
    reg_commits = tuple(reg_commits)

    mem_bulk = tuple(
        (rec.rank, rec.k,
         None if rec.plan.is_load else store_vals[rec.rank])
        for rec in committed_mems)
    tail_submits = tuple(
        (rec.rank, rec.k, rec.plan, config.unit_by_id[rec.plan.uid],
         None if rec.plan.is_load else store_vals[rec.rank],
         rec.submit)
        for rec in mem_tails)

    pipe_list = []
    for rec in recs:
        if rec.committed or (rec.kind == "mem"
                             and rec.submit <= last_rel):
            continue
        rank = rec.rank
        if rec.kind == "alu":
            kind, aux = 0, None
        elif rec.kind == "sink":
            kind, aux = 1, None
        elif rec.kind == "mem":
            kind = 2
            aux = (config.unit_by_id[rec.plan.uid],
                   None if rec.plan.is_load else store_vals[rank])
        else:                            # tail BRU: payload per cond
            control = rec.plan.control
            if control == "brt":
                kind, aux = 3, cond_atoms[rank]
            elif control == "brf":
                kind, aux = 4, cond_atoms[rank]
            else:                        # br / halt
                kind, aux = 5, None
        pipe_list.append((rec.ready, rec.unit_index, rank, rec.k,
                          rec.plan, kind, aux))
    pipe_list = tuple(pipe_list)

    unit_counts = {}
    issued_per_thread = {}
    for rec in recs:
        unit_counts[rec.unit_index] = unit_counts.get(rec.unit_index,
                                                      0) + 1
        issued_per_thread[rec.k] = issued_per_thread.get(rec.k, 0) + 1
    unit_list = tuple(sorted(unit_counts.items()))
    thread_list = tuple(sorted(issued_per_thread.items()))
    grants = sum(len(rec.plan.dest_pairs) for rec in recs
                 if rec.committed and (rec.kind == "alu"
                                       or (rec.kind == "mem"
                                           and rec.plan.is_load)))

    adv_any = False
    end_states = []
    for state in states:
        if state is None:
            continue
        advance = not state.pending and not state.control_inflight
        adv_any = adv_any or advance
        end_states.append((state.k, state.cur_ip,
                           tuple(rec.plan for rec in state.pending),
                           state.control_inflight, state.next_ip,
                           state.parked, advance))
    end_states = tuple(end_states)
    rr_last = last_rel % n if rr else None

    n_recs = len(recs)
    mem_count = len(committed_mems)
    touch_memory = bool(committed_mems or mem_tails)
    res = _mt_resolve

    def _mtdrive(node, TS, C0):
        fobjs = []
        fvs = []
        for k, cluster, need in frame_spec:
            thread = TS[k]
            frame = thread.frames.get(cluster)
            if frame is None and need:
                frame = thread.frame(cluster)
            fobjs.append(frame)
            fvs.append(() if frame is None else frame._values)
        if touch_memory:
            memory = node.memory
        if mem_count:
            MV = memory._values
            MVg = MV.get
            MB = memory._busy
            MQg = memory._queues.get
            MP = memory._parked
            MH = 1 if (MB or memory._queues or MP) else 0
        vals = [None] * n_recs
        addrs = [0] * n_recs
        evals = []
        for index, fslot in entry_list:
            fv = fvs[fslot]
            evals.append(fv[index] if index < len(fv) else 0)
        OV = {} if use_ov else None
        try:
            for step in compute:
                op = step[0]
                if op == 0:
                    vals[step[1]] = step[2](
                        *[res(atom, vals, evals) for atom in step[3]])
                elif op == 1:
                    addrs[step[1]] = int(res(step[2], vals, evals)) \
                        + int(res(step[3], vals, evals))
                elif op == 2:
                    if not 0 <= addrs[step[1]] < mem_size:
                        return None
                elif op == 3:
                    addr = addrs[step[1]]
                    if MH and (MQg(addr) or addr in MB
                               or (step[2] and addr in MP)):
                        return None
                elif op == 4:
                    if addrs[step[1]] == addrs[step[2]]:
                        return None
                elif op == 5:
                    if bool(res(step[1], vals, evals)) != step[2]:
                        return None
                elif op == 6:
                    addr = addrs[step[1]]
                    if step[2] and addr in OV:
                        vals[step[1]] = OV[addr]
                    else:
                        vals[step[1]] = MVg(addr, 0)
                else:
                    OV[addrs[step[1]]] = res(step[2], vals, evals)
        except Exception:
            return None
        # ---- commit (mirrors _emit_mt_block's commit half) -----------
        for fslot in range(len(frame_spec)):
            need = frame_spec[fslot][2]
            if need:
                fv = fvs[fslot]
                if len(fv) < need:
                    fv.extend([0] * (need - len(fv)))
        for fslot, index, rank in reg_commits:
            fvs[fslot][index] = vals[rank]
        for fslot, mask in invalid_list:
            fobjs[fslot]._invalid = mask
        for fslot, mask in used_list:
            fobjs[fslot]._used |= mask
        if mem_count:
            memory._arrivals += mem_count
            memory._seq += mem_count
            node.stats.memory_accesses += mem_count
            ME = memory._empty
            MT = memory._last_touch
            for rank, k, value_atom in mem_bulk:
                addr = addrs[rank]
                if value_atom is not None:
                    MV[addr] = res(value_atom, vals, evals)
                    ME.discard(addr)
                MT[addr] = TS[k].tid
        for rank, k, plan, unit, value_atom, submit in tail_submits:
            if value_atom is None:
                request = MemRequest(TS[k], plan.op, unit, addrs[rank],
                                     spec=plan.spec)
            else:
                request = MemRequest(TS[k], plan.op, unit, addrs[rank],
                                     store_value=res(value_atom, vals,
                                                     evals),
                                     spec=plan.spec)
            memory.submit(request, C0 + submit)
        seq = node._pipe_seq
        if pipe_list:
            pipe = node._pipe
            for ready, unit_index, rank, k, plan, kind, aux in pipe_list:
                if kind == 0:
                    payload = vals[rank]
                elif kind == 1:
                    payload = None
                elif kind == 2:
                    unit, value_atom = aux
                    if value_atom is None:
                        payload = MemRequest(TS[k], plan.op, unit,
                                             addrs[rank],
                                             spec=plan.spec)
                    else:
                        payload = MemRequest(
                            TS[k], plan.op, unit, addrs[rank],
                            store_value=res(value_atom, vals, evals),
                            spec=plan.spec)
                elif kind == 5:
                    payload = plan.taken_payload
                else:
                    cond = res(aux, vals, evals)
                    if kind == 3:
                        payload = plan.taken_payload if cond \
                            else plan.untaken_payload
                    else:
                        payload = plan.untaken_payload if cond \
                            else plan.taken_payload
                heappush(pipe, (C0 + ready, unit_index, seq + rank + 1,
                                TS[k], plan, payload))
        node._pipe_seq = seq + n_recs
        issued = node._issued_counts
        for unit_index, count in unit_list:
            issued[unit_index] += count
        issued_tids = node._issued_tids
        for k, count in thread_list:
            tid = TS[k].tid
            issued_tids[tid] = issued_tids.get(tid, 0) + count
        if losses:
            node._arb_losses += losses
        if grants:
            node._wb_grants_batch += grants
        for k, ip, plans, inflight, next_ip, parked, advance \
                in end_states:
            thread = TS[k]
            thread.ip = ip
            thread.pending_plans = list(plans)
            if inflight:
                thread.control_inflight = True
            if next_ip is not None:
                thread.next_ip = next_ip
            if parked:
                thread.parked = True
            if advance:
                thread.advance_ready = True
        if adv_any:
            node._adv_any = True
        if rr_last is not None:
            node.arbiter._next = TS[rr_last].tid + 1
        return C0 + last_rel

    return MTBlockPlan(n, n_recs, last_rel, _mtdrive)
