"""Per-block data dependence graphs.

Nodes are the block's instructions (terminator included, last).  Edge
kinds:

* ``true``   — definition to use.  The scheduler satisfies these via
  value locations (which already include the producer's latency), but
  the edge still orders list-scheduling.
* ``anti``   — use to the *next* redefinition of the same register.
  Operations in one instruction word may issue in any order (only rows
  are ordered), so an anti-dependent pair must sit in different rows.
* ``output`` — redefinition after definition; same row rule.
* ``mem``    — memory ordering: stores against later loads/stores of
  the same symbol that may alias; synchronizing accesses and forks are
  full barriers against all memory operations.
* ``ctrl``   — everything before the block terminator.

All non-true edges carry delay 1 (strictly later row); true edges carry
the producer's latency.

Alias analysis is *affine*: each memory index is reduced to a linear
form c0 + sum(ci * leaf) over opaque leaves (block-entry registers and
non-affine definitions, versioned by defining instruction).  Two
accesses whose forms share the same leaves but differ in the constant
provably touch different words — this is what lets hand-unrolled loops
(the paper unrolls all inner loops by hand) schedule their independent
iterations in parallel.  Any structural difference falls back to
"may alias".
"""

from dataclasses import dataclass

from ..ir import Const

_AFFINE_OPS = ("iadd", "isub", "imul", "ineg", "imov")


@dataclass
class Edge:
    pred: int
    succ: int
    delay: int
    kind: str


class DependenceGraph:
    """Dependences over one block's instruction list."""

    def __init__(self, instrs):
        self.instrs = instrs
        self.preds = [[] for __ in instrs]
        self.succs = [[] for __ in instrs]
        self.producer = [dict() for __ in instrs]  # node -> {vreg id: def}

    def add_edge(self, pred, succ, delay, kind):
        if pred == succ:
            return
        edge = Edge(pred, succ, delay, kind)
        self.preds[succ].append(edge)
        self.succs[pred].append(edge)

    def priorities(self, weight_fn):
        """Critical-path-to-exit priority per node (longest path)."""
        n = len(self.instrs)
        priority = [0] * n
        for index in range(n - 1, -1, -1):
            best = 0
            for edge in self.succs[index]:
                best = max(best, edge.delay + priority[edge.succ])
            priority[index] = weight_fn(self.instrs[index]) + best
        return priority


class _AffineForms:
    """Linear forms for every in-block definition, built sequentially so
    each form captures the operand versions visible at its definition."""

    def __init__(self):
        self.by_node = {}            # def node -> (coeffs dict, const)

    def operand_form(self, operand, last_def):
        if isinstance(operand, Const):
            if isinstance(operand.value, int):
                return ({}, operand.value)
            return None
        node = last_def.get(operand.id)
        if node is None:
            return ({("entry", operand.id): 1}, 0)
        return self.by_node.get(node)

    def record(self, node, instr, last_def):
        if instr.dest is None:
            return
        form = self._compute(node, instr, last_def)
        if form is None:
            form = ({("node", node): 1}, 0)
        self.by_node[node] = form

    def _compute(self, node, instr, last_def):
        if instr.op not in _AFFINE_OPS:
            return None
        forms = [self.operand_form(s, last_def) for s in instr.srcs]
        if any(f is None for f in forms):
            return None
        if instr.op in ("imov",):
            return forms[0]
        if instr.op == "ineg":
            coeffs, const = forms[0]
            return ({k: -v for k, v in coeffs.items()}, -const)
        if instr.op == "iadd" or instr.op == "isub":
            sign = 1 if instr.op == "iadd" else -1
            coeffs = dict(forms[0][0])
            for key, value in forms[1][0].items():
                coeffs[key] = coeffs.get(key, 0) + sign * value
                if coeffs[key] == 0:
                    del coeffs[key]
            return (coeffs, forms[0][1] + sign * forms[1][1])
        if instr.op == "imul":
            for scale_form, other in ((forms[0], forms[1]),
                                      (forms[1], forms[0])):
                if not scale_form[0]:           # pure constant
                    scale = scale_form[1]
                    coeffs = {k: v * scale for k, v in other[0].items()
                              if v * scale != 0}
                    return (coeffs, other[1] * scale)
            return None
        return None


def _forms_may_alias(form_a, form_b):
    """Conservative alias test on two affine index forms."""
    if form_a is None or form_b is None:
        return True
    coeffs_a, const_a = form_a
    coeffs_b, const_b = form_b
    if coeffs_a == coeffs_b:
        return const_a == const_b
    return True


def build_ddg(block, latency_fn, affine_alias=True):
    """Build the dependence graph for a block.

    ``latency_fn(instr)`` gives the producer-to-consumer delay for true
    dependences (the executing unit's pipeline latency; loads add the
    memory hit latency).  ``affine_alias=False`` disables index
    disambiguation: every same-symbol pair involving a store aliases.
    """
    instrs = block.all_instrs()
    graph = DependenceGraph(instrs)
    affine = _AffineForms()
    last_def = {}
    uses_since_def = {}
    barrier = None
    mem_since_barrier = []           # (node, is_store, sym, index form)
    terminator_index = len(instrs) - 1 if block.terminator is not None \
        else None

    for index, instr in enumerate(instrs):
        for vreg in instr.source_vregs():
            producer = last_def.get(vreg.id)
            if producer is not None:
                graph.producer[index][vreg.id] = producer
                graph.add_edge(producer, index,
                               latency_fn(instrs[producer]), "true")
            uses_since_def.setdefault(vreg.id, []).append(index)
        spec = instr.spec
        # Memory and fork ordering (uses pre-update last_def so index
        # forms reference operands as they stand *before* this instr).
        if spec.is_fork or instr.is_sync_memory:
            if barrier is not None:
                graph.add_edge(barrier, index, 1, "mem")
            for node, __, __, __ in mem_since_barrier:
                graph.add_edge(node, index, 1, "mem")
            barrier = index
            mem_since_barrier = []
        elif spec.is_memory:
            if barrier is not None:
                graph.add_edge(barrier, index, 1, "mem")
            index_operand = instr.srcs[0] if spec.is_load else instr.srcs[1]
            form = affine.operand_form(index_operand, last_def) \
                if affine_alias else None
            for node, node_is_store, node_sym, node_form \
                    in mem_since_barrier:
                if not (spec.is_store or node_is_store):
                    continue
                if node_sym != instr.sym:
                    continue
                if _forms_may_alias(form, node_form):
                    graph.add_edge(node, index, 1, "mem")
            mem_since_barrier.append((index, spec.is_store, instr.sym,
                                      form))
        # Anti and output dependences, then the new definition.
        dest = instr.dest
        if dest is not None:
            for user in uses_since_def.get(dest.id, ()):
                graph.add_edge(user, index, 1, "anti")
            previous = last_def.get(dest.id)
            if previous is not None:
                graph.add_edge(previous, index, 1, "output")
            affine.record(index, instr, last_def)
            last_def[dest.id] = index
            uses_since_def[dest.id] = []
        if terminator_index is not None and index != terminator_index:
            graph.add_edge(index, terminator_index, 0, "ctrl")
    return graph
