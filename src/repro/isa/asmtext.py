"""Textual assembly for processor-coupled programs.

The compiler emits this format (mirroring the paper's compiler, which
produced assembly code for the simulator), and the simulator's loader
accepts it, so hand-written kernels and round-trip tests are easy.

Grammar sketch::

    ; comment
    .symbol NAME SIZE full|empty
    .thread NAME [params=c0.r0,c0.r1]
    LABEL:
    {
      c0.iu0: iadd c0.r1, c0.r2, #4
      c0.fpu0: fmul c1.r3 & c0.r5, c0.r4, c0.r6
      c4.bru0: brt c0.r1, LABEL
      c4.bru0: fork CHILD [c0.r0=c0.r9, c0.r1=#3]
    }

Each ``{ ... }`` block is one wide instruction word; destinations are
joined with ``&`` (at most two); immediates are written ``#value``.
"""

from ..errors import AsmError
from .instruction import InstructionWord, Operation, Program, ThreadProgram
from .operands import Label, parse_operand, parse_reg
from .operations import opcode


def emit_operation(op):
    """Render one operation in the canonical text form."""
    fields = []
    if op.dests:
        fields.append(" & ".join(str(d) for d in op.dests))
    fields.extend(str(s) for s in op.srcs)
    if op.target is not None:
        fields.append(op.target.name)
    text = op.name
    if fields:
        text += " " + ", ".join(fields)
    if op.bindings:
        inner = ", ".join("%s=%s" % (reg, value)
                          for reg, value in op.bindings)
        text += " [" + inner + "]"
    return text


def emit(program):
    """Serialize a :class:`Program` to assembly text."""
    lines = []
    # Base-address order: the parser allocates sequentially, so this is
    # what makes emit/parse preserve every symbol's address.
    for sym in sorted(program.data.symbols.values(),
                      key=lambda s: s.base):
        state = "full" if sym.initially_full else "empty"
        lines.append(".symbol %s %d %s" % (sym.name, sym.size, state))
    thread_names = [program.main] + sorted(
        n for n in program.threads if n != program.main)
    for thread_name in thread_names:
        thread = program.threads[thread_name]
        header = ".thread %s" % thread.name
        if thread.param_regs:
            header += " params=%s" % ",".join(str(r)
                                              for r in thread.param_regs)
        lines.append(header)
        labels_at = {}
        for label, index in thread.labels.items():
            labels_at.setdefault(index, []).append(label)
        for index, word in enumerate(thread.instructions):
            for label in sorted(labels_at.get(index, [])):
                lines.append("%s:" % label)
            lines.append("{")
            for uid, op in word:
                lines.append("  %s: %s" % (uid, emit_operation(op)))
            lines.append("}")
        for label in sorted(labels_at.get(len(thread.instructions), [])):
            lines.append("%s:" % label)
    return "\n".join(lines) + "\n"


def _split_commas(text):
    """Split on top-level commas (none are nested in this grammar)."""
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_operation(text):
    """Parse the canonical text form back into an :class:`Operation`."""
    text = text.strip()
    name, __, rest = text.partition(" ")
    spec = opcode(name)
    rest = rest.strip()
    bindings = []
    if spec.is_fork:
        if "[" in rest:
            rest, __, binding_text = rest.partition("[")
            binding_text = binding_text.rstrip()
            if not binding_text.endswith("]"):
                raise AsmError("fork: unterminated bindings in %r" % text)
            for pair in _split_commas(binding_text[:-1]):
                child_text, __, value_text = pair.partition("=")
                bindings.append((parse_reg(child_text),
                                 parse_operand(value_text)))
        target = Label.of(rest.strip().rstrip(","))
        if not target.name:
            raise AsmError("fork: missing target in %r" % text)
        return Operation(name, target=target, bindings=tuple(bindings))
    fields = _split_commas(rest)
    target = None
    if spec.is_branch:
        if not fields:
            raise AsmError("%s: missing label in %r" % (name, text))
        target = Label.of(fields.pop())
    dests = ()
    if spec.has_dest:
        if not fields:
            raise AsmError("%s: missing destination in %r" % (name, text))
        dests = tuple(parse_reg(part)
                      for part in fields.pop(0).split("&"))
    srcs = tuple(parse_operand(part) for part in fields)
    return Operation(name, dests=dests, srcs=srcs, target=target)


def parse(text, main="main"):
    """Parse assembly text into a :class:`Program`."""
    program = Program(main=main)
    thread = None
    word_slots = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith(".symbol"):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in ("full", "empty"):
                    raise AsmError("malformed .symbol directive")
                program.data.declare(parts[1], int(parts[2]),
                                     initially_full=parts[3] == "full")
            elif line.startswith(".thread"):
                parts = line.split()
                params = []
                for part in parts[2:]:
                    if part.startswith("params="):
                        params = [parse_reg(p)
                                  for p in part[len("params="):].split(",")
                                  if p]
                thread = program.add_thread(
                    ThreadProgram(parts[1], param_regs=params))
            elif line.startswith("{") and line.endswith("}") and \
                    len(line) > 1:
                # One-line form: { uid: op ; uid: op }
                if thread is None:
                    raise AsmError("instruction outside .thread")
                if word_slots is not None:
                    raise AsmError("nested instruction word")
                slots = {}
                for part in line[1:-1].split(" ; "):
                    part = part.strip()
                    if not part:
                        continue
                    uid, __, op_text = part.partition(":")
                    if not op_text:
                        raise AsmError("missing ':' after unit id")
                    uid = uid.strip()
                    if uid in slots:
                        raise AsmError("unit %s used twice in one word"
                                       % uid)
                    slots[uid] = parse_operation(op_text)
                thread.append(InstructionWord(slots))
            elif line == "{":
                if thread is None:
                    raise AsmError("instruction outside .thread")
                if word_slots is not None:
                    raise AsmError("nested instruction word")
                word_slots = {}
            elif line == "}":
                if word_slots is None:
                    raise AsmError("unmatched '}'")
                thread.append(InstructionWord(word_slots))
                word_slots = None
            elif line.endswith(":") and word_slots is None:
                if thread is None:
                    raise AsmError("label outside .thread")
                thread.add_label(line[:-1].strip())
            else:
                if word_slots is None:
                    raise AsmError("operation outside instruction word")
                uid, __, op_text = line.partition(":")
                if not op_text:
                    raise AsmError("missing ':' after unit id")
                uid = uid.strip()
                if uid in word_slots:
                    raise AsmError("unit %s used twice in one word" % uid)
                word_slots[uid] = parse_operation(op_text)
        except AsmError as exc:
            raise AsmError("line %d: %s" % (line_no, exc))
    if word_slots is not None:
        raise AsmError("unterminated instruction word at end of input")
    program.validate()
    return program
