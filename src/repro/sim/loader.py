"""Program loading: static validation against a machine configuration
and construction of the initial memory image."""

from ..errors import SimulationError


def validate_program(program, config):
    """Check that a program only names units/clusters the machine has
    and that every non-fork source register is local to its unit's
    cluster (units read only their own cluster's register file)."""
    program.validate()
    for thread in program.threads.values():
        for index, word in enumerate(thread.instructions):
            if not word.slots:
                raise SimulationError(
                    "thread %r word %d is empty" % (thread.name, index))
            for uid, op in word:
                slot = config.unit_by_id.get(uid)
                if slot is None:
                    raise SimulationError(
                        "thread %r uses unit %s absent from machine %s"
                        % (thread.name, uid, config.name))
                for src in op.srcs:
                    if hasattr(src, "cluster") and src.cluster != slot.cluster:
                        raise SimulationError(
                            "thread %r: %s at %s reads remote register %s "
                            "(units read only their own register file)"
                            % (thread.name, op.name, uid, src))
                for dest in op.dests:
                    if not 0 <= dest.cluster < config.n_clusters:
                        raise SimulationError(
                            "thread %r: destination %s names a missing "
                            "cluster" % (thread.name, dest))
                for child_reg, value in op.bindings:
                    if not 0 <= child_reg.cluster < config.n_clusters:
                        raise SimulationError(
                            "thread %r: fork binding %s names a missing "
                            "cluster" % (thread.name, child_reg))


def load_memory(memory_system, program, overrides=None):
    """Install the program's data segment (and optional per-symbol
    overrides from the experiment harness) into simulated memory."""
    overrides = overrides or {}
    for name in overrides:
        if name not in program.data:
            raise SimulationError("override for unknown symbol %r" % name)
    for name, sym in program.data.symbols.items():
        values = overrides.get(name, sym.init_values)
        if values is not None and len(values) != sym.size:
            raise SimulationError(
                "symbol %r: %d values for size %d"
                % (name, len(values), sym.size))
        for offset, addr in enumerate(sym.addresses()):
            value = values[offset] if values is not None else 0
            memory_system.poke(addr, value, full=sym.initially_full)
