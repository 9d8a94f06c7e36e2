"""Cluster descriptions.

Function units are grouped into clusters sharing a register file; a
cluster can write to its own register file or to another cluster's
through the unit interconnection network (paper Section 2).
"""

from dataclasses import dataclass

from ..errors import ConfigError
from ..isa.instruction import unit_id
from ..isa.operations import UnitClass
from .units import FunctionUnitSpec


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster: an ordered tuple of function units plus a register
    file.  ``register_file_size`` is advisory (the compiler reports peak
    usage against it rather than spilling, following the paper)."""

    units: tuple
    register_file_size: int = 64

    def __post_init__(self):
        if not self.units:
            raise ConfigError("cluster must contain at least one unit")
        for unit in self.units:
            if not isinstance(unit, FunctionUnitSpec):
                raise ConfigError("bad unit spec %r" % (unit,))

    def unit_ids(self, cluster_index):
        """Canonical unit ids for this cluster at the given position."""
        counters = {}
        ids = []
        for unit in self.units:
            n = counters.get(unit.kind, 0)
            counters[unit.kind] = n + 1
            ids.append(unit_id(cluster_index, unit.kind, n))
        return ids

    def count(self, kind):
        return sum(1 for unit in self.units if unit.kind is kind)

    def has(self, kind):
        return self.count(kind) > 0

    @property
    def is_branch_cluster(self):
        """True when the cluster holds only branch units."""
        return all(unit.kind is UnitClass.BRU for unit in self.units)

    @property
    def has_alu(self):
        """True when the cluster can execute register moves (IU/FPU)."""
        return self.has(UnitClass.IU) or self.has(UnitClass.FPU)


def arithmetic_cluster(iu_latency=1, fpu_latency=1, mem_latency=1,
                       register_file_size=64):
    """The paper's baseline arithmetic cluster: IU + FPU + MEM."""
    from .units import fpu, iu, mem
    return ClusterSpec(units=(iu(iu_latency), fpu(fpu_latency),
                              mem(mem_latency)),
                       register_file_size=register_file_size)


def branch_cluster(latency=1, register_file_size=16):
    """The paper's branch cluster: a lone branch unit + register file."""
    from .units import bru
    return ClusterSpec(units=(bru(latency),),
                       register_file_size=register_file_size)
