"""Critical-path list scheduling onto clusters.

Per basic block (the paper's compiler does not move code across basic
block boundaries), operations are placed most-critical-first onto
(cluster, unit, row) slots:

* a unit reads sources only from its own cluster's register file, so
  when an operand lives elsewhere the scheduler either adds a second
  destination to the producing operation (operations may name up to two
  simultaneous register destinations, possibly in different clusters)
  or inserts an explicit register move executed by an ALU in a cluster
  that holds the value;
* operations are placed to minimize communication between function
  units (candidate clusters are scored by resulting row and fixup
  count, preferring the thread's cluster ordering);
* rows become wide instruction words; dependent operations always sit
  in later rows than their producers, so runtime presence bits only
  ever *stretch* the schedule, never reorder it;
* at most one branch-unit operation per row (the compiler allows each
  thread at most one branch operation per cycle);
* the block terminator is placed in the last row.
"""

import heapq
from dataclasses import dataclass, field

from ...errors import CompileError
from ...isa.operations import UnitClass
from ..ir import is_vreg
from ..options import DEFAULT_OPTIONS
from .ddg import build_ddg
from .slots import SlotBoard, find_slot


@dataclass(frozen=True)
class PlacedReg:
    """A virtual register resolved to a cluster's register file."""

    vreg: object
    cluster: int

    def __str__(self):
        return "%s@c%d" % (self.vreg, self.cluster)


@dataclass
class SchedEntry:
    """One operation placed at (cluster, unit, row)."""

    op: str
    row: int
    cluster: int
    kind: UnitClass
    unit_index: int
    dests: list = field(default_factory=list)    # [(vreg, cluster)]
    srcs: list = field(default_factory=list)     # PlacedReg | Const
    sym: str = None
    target: str = None
    fork_args: list = None
    avail: int = 0          # row at which the result becomes readable


@dataclass
class ScheduledBlock:
    name: str
    rows: dict                                   # row -> [SchedEntry]

    def max_row(self):
        return max(self.rows) if self.rows else -1

    def entries(self):
        for row in sorted(self.rows):
            for entry in self.rows[row]:
                yield entry

    def n_words(self):
        return len(self.rows)


@dataclass
class ScheduledThread:
    name: str
    blocks: list
    param_homes: list        # [(vreg, cluster)] in parameter order
    home_loc: dict

    def n_words(self):
        return sum(block.n_words() for block in self.blocks)


class ThreadScheduler:
    """Schedules one thread's IR for one cluster assignment.

    Scheduling runs in two passes: the first places operations with
    lazily assigned home-register clusters and records which clusters
    actually read each home; the second pins every home to its
    majority-use cluster and re-schedules, minimizing the inter-cluster
    moves that loop-carried variables would otherwise pay on every
    iteration (the paper: operations are placed to minimize
    communication between function units).  A block's dependence graph
    and priorities do not depend on where homes live, so the second
    pass reuses the first pass's.
    """

    def __init__(self, thread_ir, config, spec, live_in, home_plan=None,
                 options=None):
        self.ir = thread_ir
        self.config = config
        self.spec = spec
        self.options = options or DEFAULT_OPTIONS
        self.allowed = list(spec.allowed_clusters)
        self.live_in = live_in
        self._home_plan = home_plan
        self.alu_allowed = [c for c in self.allowed
                            if config.clusters[c].has_alu]
        if not self.alu_allowed:
            raise CompileError(
                "thread %r is restricted to clusters %r, none of which "
                "has an ALU" % (thread_ir.name, self.allowed))
        self.bru_clusters = config.branch_clusters() + [
            c for c in self.allowed
            if config.clusters[c].has(UnitClass.BRU)
            and c not in config.branch_clusters()]
        if not self.bru_clusters:
            raise CompileError("no branch unit available")
        self.home_loc = dict(home_plan or {})
        self._home_rr = 0
        for position, (__, vreg) in enumerate(thread_ir.params):
            self.home_loc.setdefault(vreg.id, self.alu_allowed[
                position % len(self.alu_allowed)])
        self._temp_rr = 0
        self._use_votes = {}
        # One slot board per (cluster, unit kind), cleared per block.
        # The memos below hold boards directly and are keyed by opcode
        # name or value type, never by UnitClass (whose hash runs
        # Python code).
        latencies = {}
        for slot in config.units:
            latencies.setdefault((slot.cluster, slot.kind),
                                 []).append(slot.latency)
        self._boards = {key: SlotBoard(values)
                        for key, values in latencies.items()}
        # The block's control rows: one pseudo-unit shared by every
        # branch unit, so a row holds at most one control operation.
        self._control = SlotBoard((0,))
        self._latency = {}       # opcode -> dependence delay
        self._placements = {}    # opcode -> [(cluster, board)], preferred first
        self._moves = {}         # (cluster, value type) -> (op, kind, board)

    # -- small helpers ---------------------------------------------------

    def _home_of(self, vreg_id, prefer=None):
        cluster = self.home_loc.get(vreg_id)
        if cluster is None:
            if prefer is not None and prefer in self.alu_allowed:
                cluster = prefer
            else:
                cluster = self.alu_allowed[self._home_rr
                                           % len(self.alu_allowed)]
                self._home_rr += 1
            self.home_loc[vreg_id] = cluster
        return cluster

    def _true_latency(self, instr):
        """Producer-to-consumer delay used for dependence estimates."""
        latency = self._latency.get(instr.op)
        if latency is not None:
            return latency
        kind = instr.spec.unit
        candidates = [c for c in self.allowed if (c, kind) in self._boards]
        if not candidates:
            candidates = [c for c in range(self.config.n_clusters)
                          if (c, kind) in self._boards]
        if not candidates:
            raise CompileError("machine has no %s unit for %s"
                               % (kind, instr))
        latency = min(min(self._boards[c, kind].latencies)
                      for c in candidates)
        if instr.spec.is_load:
            latency += self.config.memory.hit_latency - 1
        self._latency[instr.op] = latency
        return latency

    # -- operand placement -------------------------------------------------

    def _locations(self, vreg):
        locations = self._loc.get(vreg.id)
        if locations is None:
            home = self._home_of(vreg.id)
            locations = self._loc[vreg.id] = {home: 0}
        return locations

    def _move_options(self, vreg, locations):
        """Clusters that hold the value and can execute a register move
        (have an IU or FPU) within the thread's allowance."""
        return [c for c in locations if c in self.alu_allowed]

    def _operand_avail(self, vreg, cluster, producer_entry, mutate):
        """Row at which ``vreg`` is readable in ``cluster``, adding a
        second producer destination or a move when needed."""
        locations = self._locations(vreg)
        avail = locations.get(cluster)
        if avail is not None:
            return avail
        option_extra = None
        if self.options.dual_destinations and producer_entry is not None \
                and len(producer_entry.dests) < 2:
            option_extra = producer_entry.avail
        option_move = None
        move_from = None
        for source in self._move_options(vreg, locations):
            board = self._move(source, vreg)[2]
            row, __, latency = find_slot(board, locations[source])
            candidate = row + latency
            if option_move is None or candidate < option_move:
                option_move = candidate
                move_from = source
        if option_extra is None and option_move is None:
            raise CompileError(
                "thread %r: value %s cannot reach cluster %d (no free "
                "destination and no movable copy)"
                % (self.ir.name, vreg, cluster))
        use_extra = option_extra is not None and (
            option_move is None or option_extra <= option_move)
        if not mutate:
            return option_extra if use_extra else option_move
        if use_extra:
            producer_entry.dests.append((vreg, cluster))
            locations[cluster] = option_extra
            return option_extra
        move_op, kind, board = self._move(move_from, vreg)
        row, index, latency = find_slot(board, locations[move_from],
                                        mark=True)
        entry = SchedEntry(move_op, row, move_from, kind, index,
                           dests=[(vreg, cluster)],
                           srcs=[PlacedReg(vreg, move_from)],
                           avail=row + latency)
        self._rows.setdefault(row, []).append(entry)
        self._max_row = max(self._max_row, row)
        locations[cluster] = row + latency
        return row + latency

    def _move(self, cluster, vreg):
        """``(opcode, unit kind, board)`` of a register move of ``vreg``
        executed in ``cluster``: an IU move for integers and an FPU move
        for floats, or whichever of the two the cluster has."""
        key = (cluster, vreg.type)
        move = self._moves.get(key)
        if move is None:
            spec = self.config.clusters[cluster]
            kind = UnitClass.IU if vreg.type == "i" else UnitClass.FPU
            if not spec.has(kind):
                kind = UnitClass.FPU if kind is UnitClass.IU \
                    else UnitClass.IU
            move_op = "imov" if kind is UnitClass.IU else "fmov"
            move = self._moves[key] = (move_op, kind,
                                       self._boards[cluster, kind])
        return move

    # -- instruction placement ------------------------------------------------

    def _candidates(self, instr):
        """``[(cluster, board)]`` that can execute ``instr``, in the
        thread's preference order."""
        placements = self._placements.get(instr.op)
        if placements is not None:
            return placements
        kind = instr.spec.unit
        if kind is UnitClass.BRU:
            clusters = self.bru_clusters
        else:
            clusters = [c for c in self.allowed
                        if (c, kind) in self._boards]
            if not clusters:
                raise CompileError(
                    "thread %r: no %s unit among allowed clusters %r "
                    "for %s" % (self.ir.name, kind, self.allowed, instr))
        placements = self._placements[instr.op] = [
            (c, self._boards[c, kind]) for c in clusters]
        return placements

    def _base_est(self, node, graph, entries):
        est = 0
        for edge in graph.preds[node]:
            if edge.kind == "true":
                continue
            est = max(est, entries[edge.pred].row + edge.delay)
        return est

    def _estimate(self, instr, node, cluster, graph, entries, base_est):
        est = base_est
        fixups = 0
        for operand in instr.srcs:
            if not is_vreg(operand):
                continue
            producer_node = graph.producer[node].get(operand.id)
            producer_entry = entries.get(producer_node) \
                if producer_node is not None else None
            locations = self._locations(operand)
            if cluster in locations:
                est = max(est, locations[cluster])
            else:
                est = max(est, self._operand_avail(operand, cluster,
                                                   producer_entry,
                                                   mutate=False))
                fixups += 1
        return est, fixups

    def _commit(self, instr, node, cluster, board, control, graph, entries,
                base_est, min_row=0):
        est = base_est
        placed_srcs = []
        for operand in instr.srcs:
            if not is_vreg(operand):
                placed_srcs.append(operand)
                continue
            producer_node = graph.producer[node].get(operand.id)
            producer_entry = entries.get(producer_node) \
                if producer_node is not None else None
            est = max(est, self._operand_avail(operand, cluster,
                                               producer_entry,
                                               mutate=True))
            placed_srcs.append(PlacedReg(operand, cluster))
            if operand.is_home and cluster in self.alu_allowed:
                votes = self._use_votes.setdefault(operand.id, {})
                votes[cluster] = votes.get(cluster, 0) + 1
        placed_args = None
        if instr.fork_args is not None:
            placed_args = []
            for operand in instr.fork_args:
                if not is_vreg(operand):
                    placed_args.append(operand)
                    continue
                locations = self._locations(operand)
                source, avail = min(locations.items(), key=lambda kv: kv[1])
                est = max(est, avail)
                placed_args.append(PlacedReg(operand, source))
        spec = instr.spec
        row, index, latency = find_slot(board, max(est, min_row), control,
                                        mark=True)
        avail = row + latency
        if spec.is_load:
            avail += self.config.memory.hit_latency - 1
        entry = SchedEntry(instr.op, row, cluster, spec.unit, index,
                           srcs=placed_srcs, sym=instr.sym,
                           target=instr.target, fork_args=placed_args,
                           avail=avail)
        if instr.dest is not None:
            dest = instr.dest
            if dest.is_home:
                dest_cluster = self._home_of(dest.id, prefer=cluster)
            elif cluster in self.alu_allowed:
                dest_cluster = cluster
            else:
                dest_cluster = self.alu_allowed[self._temp_rr
                                                % len(self.alu_allowed)]
                self._temp_rr += 1
            entry.dests = [(dest, dest_cluster)]
            # A redefinition invalidates every tracked copy.
            self._loc[dest.id] = {dest_cluster: avail}
        self._rows.setdefault(row, []).append(entry)
        self._max_row = max(self._max_row, row)
        entries[node] = entry
        return entry

    def _place(self, instr, node, graph, entries, is_terminator):
        base_est = self._base_est(node, graph, entries)
        control = self._control if instr.spec.unit is UnitClass.BRU \
            else None
        best = None
        for preference, (cluster, board) in enumerate(
                self._candidates(instr)):
            est, fixups = self._estimate(instr, node, cluster, graph,
                                         entries, base_est)
            row = find_slot(board, est, control)[0]
            score = (row, fixups, preference)
            if best is None or score < best[0]:
                best = (score, cluster, board)
        min_row = self._max_row if is_terminator else 0
        self._commit(instr, node, best[1], best[2], control, graph,
                     entries, base_est, min_row=min_row)

    # -- per-block driver ---------------------------------------------------

    def _schedule_block(self, block, graph, priority):
        instrs = graph.instrs
        self._loc = {}
        for home_id in self.live_in.get(block.name, ()):
            home = self._home_of(home_id)
            self._loc[home_id] = {home: 0}
        for board in self._boards.values():
            board.clear()
        self._control.clear()
        self._rows = {}
        self._max_row = -1
        entries = {}
        terminator = len(instrs) - 1 if block.terminator is not None \
            else None
        remaining = [len(preds) for preds in graph.preds]
        # Most critical first, ties to the earlier instruction: the heap
        # pops the least (-priority, node) key, which is unique per node.
        ready = [(-priority[i], i) for i, count in enumerate(remaining)
                 if count == 0]
        heapq.heapify(ready)
        scheduled = 0
        while ready:
            node = heapq.heappop(ready)[1]
            self._place(instrs[node], node, graph, entries,
                        node == terminator)
            scheduled += 1
            for edge in graph.succs[node]:
                succ = edge.succ
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    heapq.heappush(ready, (-priority[succ], succ))
        if scheduled != len(instrs):
            raise CompileError("dependence cycle while scheduling block %r"
                               % block.name)
        return ScheduledBlock(block.name, self._rows)

    def _run_all(self, graphs):
        """Schedule every block.  ``graphs`` holds each block's
        (dependence graph, priorities): the first pass builds them as it
        reaches each block, the home-placement pass reuses them."""
        blocks = []
        for index, block in enumerate(self.ir.blocks):
            if index == len(graphs):
                graph = build_ddg(block, self._true_latency,
                                  affine_alias=self.options.affine_alias)
                graphs.append((graph, graph.priorities(self._true_latency)))
            blocks.append(self._schedule_block(block, *graphs[index]))
        param_homes = [(vreg, self.home_loc[vreg.id])
                       for __, vreg in self.ir.params]
        return ScheduledThread(self.ir.name, blocks, param_homes,
                               dict(self.home_loc))

    def _revised_home_plan(self):
        """Pin each home register to the cluster that read it most."""
        plan = dict(self.home_loc)
        for home_id, votes in self._use_votes.items():
            best = max(sorted(votes), key=lambda c: votes[c])
            plan[home_id] = best
        return plan

    def schedule(self):
        graphs = []
        first = self._run_all(graphs)
        if self._home_plan is not None or not self.options.two_pass_homes:
            return first
        plan = self._revised_home_plan()
        if plan == self.home_loc:
            return first
        second = ThreadScheduler(self.ir, self.config, self.spec,
                                 self.live_in, home_plan=plan,
                                 options=self.options)
        return second._run_all(graphs)
