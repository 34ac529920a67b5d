"""Tests for the POWER7, Nehalem, and generic architecture models."""

import numpy as np
import pytest

from repro.arch import (
    Architecture,
    CacheGeometry,
    InstrClass,
    Mix,
    generic_core,
    get_architecture,
    list_architectures,
    nehalem,
    power7,
    register_architecture,
)


class TestPower7:
    def setup_method(self):
        self.arch = power7()

    def test_paper_parameters(self):
        assert self.arch.smt_levels == (1, 2, 4)
        assert self.arch.cores_per_chip == 8
        assert self.arch.partition.fetch_width == 8
        assert self.arch.partition.dispatch_width == 6
        assert self.arch.partition.issue_width == 8

    def test_ideal_mix_is_paper_eq2(self):
        # 1/7 loads, 1/7 stores, 1/7 branches, 2/7 FX, 2/7 VS
        ideal = self.arch.ideal_vector()
        assert np.allclose(ideal, [1 / 7, 1 / 7, 1 / 7, 2 / 7, 2 / 7])

    def test_metric_space_is_class(self):
        assert self.arch.metric_space == "class"
        assert self.arch.metric_labels() == ("LOAD", "STORE", "BRANCH", "FX", "VS")

    def test_ideal_mix_deviation_zero(self):
        ideal_mix = Mix(self.arch.ideal_vector())
        assert self.arch.mix_deviation(ideal_mix) == pytest.approx(0.0, abs=1e-12)

    def test_fx_only_mix_has_large_deviation(self):
        fx_only = Mix({InstrClass.FX: 1.0})
        # deviation of a degenerate mix must be near its max (~0.87)
        assert self.arch.mix_deviation(fx_only) > 0.7

    def test_dispatch_held_event_name(self):
        assert self.arch.dispatch_held_event == "PM_DISP_CLB_HELD_RES"

    def test_lower_smt_level_chain(self):
        assert self.arch.lower_smt_level(4) == 2
        assert self.arch.lower_smt_level(2) == 1
        assert self.arch.lower_smt_level(1) is None

    def test_validate_smt_level(self):
        with pytest.raises(ValueError, match="SMT3"):
            self.arch.validate_smt_level(3)

    def test_custom_core_count(self):
        small = power7(cores_per_chip=2)
        assert small.cores_per_chip == 2
        assert small.caches.l3_mb == pytest.approx(8.0)


class TestNehalem:
    def setup_method(self):
        self.arch = nehalem()

    def test_paper_parameters(self):
        assert self.arch.smt_levels == (1, 2)
        assert self.arch.cores_per_chip == 4
        assert self.arch.topology.n_ports == 6

    def test_ideal_is_uniform_sixth(self):
        assert np.allclose(self.arch.ideal_vector(), 1 / 6)

    def test_port_fractions_for_pure_load_mix(self):
        loads = Mix({InstrClass.LOAD: 1.0})
        fracs = self.arch.metric_fractions(loads)
        p2 = self.arch.topology.port_index("P2")
        assert fracs[p2] == pytest.approx(1.0)

    def test_store_splits_across_p3_p4(self):
        stores = Mix({InstrClass.STORE: 1.0})
        fracs = self.arch.metric_fractions(stores)
        topo = self.arch.topology
        assert fracs[topo.port_index("P3")] == pytest.approx(0.5)
        assert fracs[topo.port_index("P4")] == pytest.approx(0.5)

    def test_fx_spreads_three_ways(self):
        fx = Mix({InstrClass.FX: 1.0})
        fracs = self.arch.metric_fractions(fx)
        topo = self.arch.topology
        for port in ("P0", "P1", "P5"):
            assert fracs[topo.port_index(port)] == pytest.approx(1 / 3)

    def test_dispatch_held_event_name(self):
        assert "RAT_STALLS" in self.arch.dispatch_held_event

    def test_balanced_mix_deviation_smaller_than_skewed(self):
        balanced = Mix({InstrClass.LOAD: 0.17, InstrClass.STORE: 0.16,
                        InstrClass.BRANCH: 0.17, InstrClass.FX: 0.25, InstrClass.VS: 0.25})
        skewed = Mix({InstrClass.VS: 0.9, InstrClass.LOAD: 0.1})
        assert self.arch.mix_deviation(balanced) < self.arch.mix_deviation(skewed)


class TestGenericAndRegistry:
    def test_generic_default_builds(self):
        g = generic_core()
        assert g.smt_levels == (1, 2)
        assert g.metric_space == "port"

    def test_generic_custom_ports(self):
        g = generic_core("Wide", port_capacities={"LS": 3.0, "FX": 3.0, "VS": 2.0, "BR": 1.0})
        assert g.topology.ideal_port_fractions()[0] == pytest.approx(3 / 9)

    def test_registry_lookup(self):
        assert get_architecture("power7").name == "POWER7"
        assert get_architecture("NEHALEM").name == "Nehalem"

    def test_registry_unknown(self):
        with pytest.raises(KeyError, match="unknown architecture"):
            get_architecture("sparc")

    def test_registry_lists_builtins(self):
        names = list_architectures()
        assert {"power7", "nehalem", "generic"} <= set(names)

    def test_register_rejects_shadowing(self):
        with pytest.raises(ValueError, match="already registered"):
            register_architecture("power7", power7)

    def test_registry_returns_one_instance_per_name(self):
        # Identity-keyed memos (serial rates, run-cache fingerprints) and
        # the columnar engine's grouping hit only on a shared instance.
        for name in list_architectures():
            assert get_architecture(name) is get_architecture(name)
        assert get_architecture("POWER7") is get_architecture("power7")

    def test_reregistered_name_rebuilds(self):
        from repro.arch.registry import _BUILDERS

        name = "tmp_rebuilt_arch"
        register_architecture(name, lambda: generic_core("First"))
        try:
            first = get_architecture(name)
            del _BUILDERS[name]
            register_architecture(name, lambda: generic_core("Second"))
            second = get_architecture(name)
            assert second is get_architecture(name)
        finally:
            _BUILDERS.pop(name, None)
        assert first.name == "First"
        assert second.name == "Second"


class TestArchitectureValidation:
    def test_smt_levels_must_include_one(self):
        arch = power7()
        with pytest.raises(ValueError, match="SMT1"):
            Architecture(
                name="bad", description="", frequency_ghz=3.0, cores_per_chip=4,
                smt_levels=(2, 4), topology=arch.topology, partition=arch.partition,
                caches=arch.caches, branch_penalty=15.0, metric_space="class",
                ideal_class_fractions=(1/7, 1/7, 1/7, 2/7, 2/7),
            )

    def test_class_space_requires_ideal(self):
        arch = power7()
        with pytest.raises(ValueError, match="ideal_class_fractions"):
            Architecture(
                name="bad", description="", frequency_ghz=3.0, cores_per_chip=4,
                smt_levels=(1, 2, 4), topology=arch.topology, partition=arch.partition,
                caches=arch.caches, branch_penalty=15.0, metric_space="class",
            )

    def test_bad_metric_space(self):
        arch = power7()
        with pytest.raises(ValueError, match="metric_space"):
            Architecture(
                name="bad", description="", frequency_ghz=3.0, cores_per_chip=4,
                smt_levels=(1, 2, 4), topology=arch.topology, partition=arch.partition,
                caches=arch.caches, branch_penalty=15.0, metric_space="weird",
            )

    def test_cache_latency_ordering_enforced(self):
        with pytest.raises(ValueError, match="latencies"):
            CacheGeometry(
                l1d_kb=32, l2_kb=256, l3_mb=8, line_bytes=64,
                lat_l2=30, lat_l3=10, lat_mem=200, mem_bandwidth_gbps=20,
            )

    def test_cycles_per_second(self):
        assert power7().cycles_per_second() == pytest.approx(3.8e9)

    def test_l3_per_core(self):
        assert power7().l3_mb_per_core() == pytest.approx(4.0)
