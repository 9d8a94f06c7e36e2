"""Machine descriptions: units, clusters, configurations."""

import pytest

from repro.errors import ConfigError
from repro.isa.operations import UnitClass
from repro.machine import (ClusterSpec, MachineConfig, arithmetic_cluster,
                           baseline, branch_cluster, bru, fpu, iu, mem,
                           single_cluster, unit_mix)


class TestUnits:
    def test_latency_must_be_positive(self):
        with pytest.raises(ConfigError):
            iu(latency=0)

    def test_kinds(self):
        assert iu().kind is UnitClass.IU
        assert fpu().kind is UnitClass.FPU
        assert mem().kind is UnitClass.MEM
        assert bru().kind is UnitClass.BRU


class TestClusters:
    def test_arithmetic_cluster_contents(self):
        cluster = arithmetic_cluster()
        assert cluster.count(UnitClass.IU) == 1
        assert cluster.count(UnitClass.FPU) == 1
        assert cluster.count(UnitClass.MEM) == 1
        assert cluster.has_alu
        assert not cluster.is_branch_cluster

    def test_branch_cluster_is_branch_only(self):
        cluster = branch_cluster()
        assert cluster.is_branch_cluster
        assert not cluster.has_alu

    def test_unit_ids_number_within_kind(self):
        cluster = ClusterSpec(units=(iu(), iu(), mem()))
        assert cluster.unit_ids(3) == ["c3.iu0", "c3.iu1", "c3.mem0"]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(units=())


class TestBaseline:
    def test_paper_shape(self):
        config = baseline()
        assert config.n_clusters == 6       # 4 arithmetic + 2 branch
        assert config.count(UnitClass.IU) == 4
        assert config.count(UnitClass.FPU) == 4
        assert config.count(UnitClass.MEM) == 4
        assert config.count(UnitClass.BRU) == 2
        assert config.arithmetic_clusters() == [0, 1, 2, 3]
        assert config.branch_clusters() == [4, 5]

    def test_unit_lookup(self):
        config = baseline()
        slot = config.unit_by_id["c2.fpu0"]
        assert slot.cluster == 2 and slot.kind is UnitClass.FPU

    def test_describe_mentions_clusters(self):
        text = baseline().describe()
        assert "cluster 0" in text and "cluster 5" in text


class TestDerivation:
    def test_with_interconnect_preserves_clusters(self):
        config = baseline().with_interconnect("tri-port")
        assert config.n_clusters == 6
        assert config.interconnect.scheme.value == "tri-port"

    def test_with_memory(self):
        from repro.machine import mem2
        config = baseline().with_memory(mem2())
        assert config.memory.miss_rate == 0.10

    def test_with_seed(self):
        assert baseline().with_seed(7).seed == 7

    def test_schedule_signature_ignores_interconnect(self):
        a = baseline()
        assert a.schedule_signature() == \
            a.with_interconnect("shared-bus").schedule_signature()

    def test_schedule_signature_sees_structure(self):
        assert baseline().schedule_signature() != \
            single_cluster().schedule_signature()


class TestUnitMix:
    def test_counts(self):
        config = unit_mix(2, 3)
        assert config.count(UnitClass.IU) == 2
        assert config.count(UnitClass.FPU) == 3
        assert config.count(UnitClass.MEM) == 4
        assert config.count(UnitClass.BRU) == 1

    def test_memory_only_clusters_allowed(self):
        config = unit_mix(1, 1)
        assert not config.clusters[3].has_alu

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            unit_mix(0, 1)
        with pytest.raises(ConfigError):
            unit_mix(5, 1)


class TestValidation:
    def test_needs_branch_unit(self):
        with pytest.raises(ConfigError):
            MachineConfig((arithmetic_cluster(),))

    def test_needs_alu(self):
        with pytest.raises(ConfigError):
            MachineConfig((branch_cluster(),))

    def test_unknown_arbitration_rejected(self):
        with pytest.raises(ConfigError):
            baseline(arbitration="lottery")
