"""Whole-node machine configurations.

A :class:`MachineConfig` plays the role of the paper's configuration
file: it specifies the number and type of function units, each unit's
pipeline latency, the grouping of units into clusters, the behaviour of
the unit interconnection network, and the memory model.  Both the
compiler (for static scheduling) and the simulator consume it.
"""

from dataclasses import dataclass

from ..errors import ConfigError
from ..isa.operations import UnitClass
from .cluster import ClusterSpec, arithmetic_cluster, branch_cluster
from .interconnect import CommScheme, InterconnectSpec
from .memory import min_memory
from .units import FunctionUnitSpec, fpu, iu, mem

#: Arbitration policies for unit contention between threads.
ARBITRATION_POLICIES = ("priority", "round-robin")

#: Simulator kernels.  Both produce bit-identical results; "event" is
#: the fast predecoded/wake-queue kernel, "scan" the reference
#: cycle-by-cycle rescan loop kept for differential testing.
ENGINES = ("event", "scan")


@dataclass(frozen=True)
class UnitSlot:
    """One concrete function unit within a configuration."""

    uid: str
    cluster: int
    spec: FunctionUnitSpec

    @property
    def kind(self):
        return self.spec.kind

    @property
    def latency(self):
        return self.spec.latency


class MachineConfig:
    """An immutable node description plus derived lookup tables."""

    def __init__(self, clusters, interconnect=None, memory=None,
                 arbitration="priority", memory_size=65536, seed=12345,
                 name="custom", op_cache=None, max_active_threads=None,
                 fault_plan=None, engine="event", fusion=True):
        self.clusters = tuple(clusters)
        if isinstance(interconnect, (CommScheme, str)):
            interconnect = InterconnectSpec.from_scheme(interconnect)
        self.interconnect = interconnect or InterconnectSpec.from_scheme(
            CommScheme.FULL)
        self.memory = memory or min_memory()
        if arbitration not in ARBITRATION_POLICIES:
            raise ConfigError("unknown arbitration policy %r" % arbitration)
        self.arbitration = arbitration
        self.memory_size = memory_size
        self.seed = seed
        self.name = name
        self.op_cache = op_cache          # None = perfect (the paper)
        if max_active_threads is not None and max_active_threads < 1:
            raise ConfigError("max_active_threads must be >= 1")
        self.max_active_threads = max_active_threads
        self.fault_plan = fault_plan      # None = fault-free (the paper)
        if engine not in ENGINES:
            raise ConfigError("unknown simulator engine %r (have: %s)"
                              % (engine, ", ".join(ENGINES)))
        self.engine = engine
        self.fusion = bool(fusion)
        self._build_tables()
        self._validate()
        if fault_plan is not None:
            fault_plan.validate_against(self)

    def _build_tables(self):
        self.units = []
        for cluster_index, cluster in enumerate(self.clusters):
            ids = cluster.unit_ids(cluster_index)
            slots = [UnitSlot(uid, cluster_index, spec)
                     for uid, spec in zip(ids, cluster.units)]
            self.units.extend(slots)
        self.unit_by_id = {slot.uid: slot for slot in self.units}

    def _validate(self):
        if not self.clusters:
            raise ConfigError("machine needs at least one cluster")
        if not self.units_of_kind(UnitClass.BRU):
            raise ConfigError("machine needs at least one branch unit")
        if not any(c.has_alu for c in self.clusters):
            raise ConfigError("machine needs at least one IU or FPU")

    # -- lookups -------------------------------------------------------

    def units_of_kind(self, kind, cluster=None):
        return [slot for slot in self.units
                if slot.kind is kind
                and (cluster is None or slot.cluster == cluster)]

    def count(self, kind):
        return len(self.units_of_kind(kind))

    @property
    def n_clusters(self):
        return len(self.clusters)

    def arithmetic_clusters(self):
        """Indices of clusters usable for computation (non branch-only)."""
        return [i for i, c in enumerate(self.clusters)
                if not c.is_branch_cluster]

    def branch_clusters(self):
        return [i for i, c in enumerate(self.clusters)
                if c.is_branch_cluster]

    # -- derivation ----------------------------------------------------

    def _with(self, **changes):
        """A copy of this config with ``changes`` replacing the
        constructor arguments of the same names."""
        args = dict(clusters=self.clusters, interconnect=self.interconnect,
                    memory=self.memory, arbitration=self.arbitration,
                    memory_size=self.memory_size, seed=self.seed,
                    name=self.name, op_cache=self.op_cache,
                    max_active_threads=self.max_active_threads,
                    fault_plan=self.fault_plan, engine=self.engine,
                    fusion=self.fusion)
        args.update(changes)
        return MachineConfig(**args)

    def with_interconnect(self, scheme):
        return self._with(interconnect=scheme,
                          name="%s/%s" % (self.name, CommScheme(scheme)))

    def with_memory(self, memory_spec):
        return self._with(memory=memory_spec,
                          name="%s/%s" % (self.name, memory_spec.name))

    def with_arbitration(self, policy):
        return self._with(arbitration=policy)

    def with_seed(self, seed):
        return self._with(seed=seed)

    def with_op_cache(self, op_cache_spec):
        """Replace the paper's perfect-instruction-cache assumption
        with a finite per-unit operation cache (or None to restore)."""
        return self._with(op_cache=op_cache_spec)

    def with_max_active_threads(self, limit):
        """Bound the hardware active set (paper Section 2: "hardware is
        provided to sequence and synchronize a small number of active
        threads"); forks beyond the limit wait for a slot.  None
        restores the paper's unbounded assumption."""
        return self._with(max_active_threads=limit)

    def with_faults(self, fault_plan):
        """Attach a fault-injection plan (``repro.sim.faults.FaultPlan``)
        to be replayed by every simulation of this configuration; None
        restores the paper's fault-free machine.  The compiler is
        unaffected — faults are a purely dynamic disturbance, which is
        exactly what runtime arbitration is supposed to absorb."""
        return self._with(fault_plan=fault_plan)

    def with_engine(self, engine):
        """Select the simulator kernel (``"event"`` or ``"scan"``).
        Both kernels are bit-identical — the toggle exists for
        differential testing and perf comparison."""
        return self._with(engine=engine)

    def with_fusion(self, fusion):
        """Toggle superblock fusion in the event kernel (see
        ``repro.sim.predecode``).  Like ``engine``, the toggle cannot
        change any simulated outcome — fused execution is bit-identical
        to the interpreted path — so it is excluded from
        ``run_signature()`` and exists for differential testing and
        perf measurement."""
        return self._with(fusion=fusion)

    def schedule_signature(self):
        """Hashable summary of everything the *compiler* depends on;
        two configs with equal signatures can share compiled code."""
        clusters = tuple(tuple((u.kind.value, u.latency) for u in c.units)
                         for c in self.clusters)
        return (clusters, self.memory.hit_latency)

    def run_signature(self):
        """Hashable summary of everything a *simulation* depends on:
        two configs with equal run signatures produce bit-identical
        runs of the same program.  This is the cache key the experiment
        harness uses, so every dynamic knob — interconnect, memory
        model, arbitration, seed, operation cache, active-set limit,
        and the fault plan — must participate; ``name`` and other
        cosmetics must not.  ``engine`` is deliberately excluded: the
        event and scan kernels are bit-identical, so results cache
        across the toggle — and so is ``fusion``, for the same
        reason."""
        fault_sig = None
        if self.fault_plan is not None:
            fault_sig = (self.fault_plan.reroute, self.fault_plan.events)
        return (self.schedule_signature(), self.interconnect,
                self.memory, self.arbitration, self.memory_size,
                self.seed, self.op_cache, self.max_active_threads,
                fault_sig)

    def describe(self):
        """Human-readable summary (one line per cluster)."""
        lines = ["machine %s: %d clusters, interconnect=%s, memory=%s, "
                 "engine=%s, fusion=%s"
                 % (self.name, self.n_clusters, self.interconnect.scheme,
                    self.memory.name, self.engine,
                    "on" if self.fusion else "off")]
        for index, cluster in enumerate(self.clusters):
            kinds = ", ".join("%s(lat=%d)" % (u.kind, u.latency)
                              for u in cluster.units)
            lines.append("  cluster %d: %s" % (index, kinds))
        return "\n".join(lines)


def baseline(n_arith_clusters=4, n_branch_clusters=2, **kwargs):
    """The paper's baseline machine: four arithmetic clusters (each an
    IU, an FPU, a memory unit, and a shared register file) plus two
    branch clusters, fully connected, single-cycle memory, all unit
    latencies one cycle."""
    clusters = tuple(arithmetic_cluster() for __ in range(n_arith_clusters))
    clusters += tuple(branch_cluster() for __ in range(n_branch_clusters))
    kwargs.setdefault("name", "baseline")
    return MachineConfig(clusters, **kwargs)


def unit_mix(n_iu, n_fpu, n_mem=4, n_branch_clusters=1, **kwargs):
    """A configuration for the Figure 8 sweep: ``n_mem`` arithmetic
    clusters where cluster *i* holds an IU if ``i < n_iu``, an FPU if
    ``i < n_fpu``, and always a memory unit; plus branch cluster(s).

    The paper sweeps up to four IUs and four FPUs while keeping the
    number of memory units constant at four and finds a single branch
    unit sufficient.
    """
    if not (1 <= n_iu <= n_mem and 1 <= n_fpu <= n_mem):
        raise ConfigError("unit mix must satisfy 1 <= n <= %d" % n_mem)
    clusters = []
    for i in range(n_mem):
        units = []
        if i < n_iu:
            units.append(iu())
        if i < n_fpu:
            units.append(fpu())
        units.append(mem())
        clusters.append(ClusterSpec(units=tuple(units)))
    clusters.extend(branch_cluster() for __ in range(n_branch_clusters))
    kwargs.setdefault("name", "mix-%diu-%dfpu" % (n_iu, n_fpu))
    return MachineConfig(tuple(clusters), **kwargs)


def single_cluster(**kwargs):
    """A one-arithmetic-cluster machine (plus one branch cluster);
    useful for tests and as the smallest sequential node."""
    kwargs.setdefault("name", "single-cluster")
    return MachineConfig((arithmetic_cluster(), branch_cluster()), **kwargs)
