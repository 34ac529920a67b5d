"""The columnar ScenarioTable engine vs the serial reference.

Every test drives the same :class:`RunSpec` set down both paths and
holds the table's results to the repository-wide 1e-9 equivalence bound
via the differential pillar's ``compare_runs`` — including the shapes
the lockstep solver finds hardest: ragged batches mixing architectures,
SMT levels, thread counts and chip counts; and degenerate single-row
tables where no lockstep amortization exists at all.
"""

import numpy as np
import pytest

from repro.arch import nehalem, power7
from repro.check.differential import REL_TOL, compare_runs
from repro.experiments.runner import resolve_system
from repro.obs import configure
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.table import ScenarioTable, simulate_many_columnar
from repro.simos import SystemSpec
from repro.workloads import all_workloads

from .helpers import balanced_stream, memory_stream, thrashy_fp_stream


#: One shared instance per architecture: a ScenarioTable groups rows by
#: Architecture identity, exactly as run_catalog and the api session do.
P7 = power7()
NHM = nehalem()


def _catalog_spec(name, level, *, arch=None, n_chips=1, seed=11, **kwargs):
    workload = all_workloads()[name]
    system = SystemSpec(arch if arch is not None else P7, n_chips)
    return RunSpec(system=system, smt_level=level, stream=workload.stream,
                   sync=workload.sync, seed=seed, **kwargs)


def assert_equivalent(specs, results):
    assert len(results) == len(specs)
    for spec, got in zip(specs, results):
        diffs = compare_runs(simulate_run(spec), got, REL_TOL)
        assert not diffs, (spec.smt_level, diffs)


class TestRoundTrip:
    def test_single_row_table(self):
        specs = [_catalog_spec("EP", 4)]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_catalog_batch(self):
        specs = [
            _catalog_spec(name, level)
            for name in ("EP", "SSCA2", "Fluidanimate", "SPECjbb_contention")
            for level in (1, 2, 4)
        ]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_ragged_batch_mixed_archs_levels_and_chips(self):
        p7, nhm = P7, NHM
        specs = [
            _catalog_spec("EP", 4, arch=p7),
            _catalog_spec("SSCA2", 1, arch=nhm, seed=3),
            _catalog_spec("Fluidanimate", 2, arch=p7, n_chips=2),
            _catalog_spec("IS", 2, arch=nhm, n_chips=2, seed=7),
            _catalog_spec("SPECjbb_contention", 4, arch=p7,
                          n_threads=3, noise_rel=0.0),
            _catalog_spec("EP", 1, arch=p7, seed=5),
        ]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_synthetic_streams_round_trip(self):
        arch = P7
        workload = all_workloads()["SPECjbb_contention"]
        specs = [
            RunSpec(system=SystemSpec(arch, 1), smt_level=level,
                    stream=stream, sync=workload.sync, seed=11)
            for stream in (balanced_stream(), memory_stream(),
                           thrashy_fp_stream())
            for level in (1, 4)
        ]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_empty_batch(self):
        assert simulate_many_columnar([]) == []

    def test_input_order_preserved_across_arch_groups(self):
        # Interleave the two architecture groups: results must come back
        # in input order even though the table solves them group-wise.
        p7, nhm = P7, NHM
        specs = [
            _catalog_spec("EP", 4, arch=p7),
            _catalog_spec("EP", 2, arch=nhm),
            _catalog_spec("SSCA2", 4, arch=p7),
            _catalog_spec("SSCA2", 2, arch=nhm),
        ]
        results = simulate_many_columnar(specs)
        for spec, got in zip(specs, results):
            assert got.n_threads == spec.resolved_threads()
        assert_equivalent(specs, results)


class TestHoistedPerTableWork:
    """Placement, serial rates and time accounting run once per table.

    ``p7`` and ``p7x2`` resolve to one registry ``Architecture``, so a
    batch mixing them lowers into a single table whose placement memo
    must tell one- and two-chip layouts apart; streams repeat across
    levels (one serial-rate lookup serves several runs) and noisy runs
    sit beside noise-free ones.
    """

    def _mixed_specs(self):
        system_1 = resolve_system("p7")
        system_2 = resolve_system("p7x2")
        assert system_1.arch is system_2.arch
        workloads = all_workloads()
        specs = []
        for i, name in enumerate(("EP", "SSCA2", "SPECjbb_contention", "IS")):
            workload = workloads[name]
            for system in (system_1, system_2):
                for level in (1, 2, 4):
                    for noise_rel in (0.0, 0.01, 0.05):
                        specs.append(RunSpec(
                            system=system, smt_level=level,
                            stream=workload.stream, sync=workload.sync,
                            seed=i + 3, noise_rel=noise_rel))
                # Same (level, threads) on both chip counts: only the
                # chip count tells the two placements apart.
                specs.append(RunSpec(system=system, smt_level=4,
                                     stream=workload.stream, sync=workload.sync,
                                     n_threads=5, seed=i))
        return specs

    def test_mixed_chip_counts_share_one_table_and_match_serial(self):
        specs = self._mixed_specs()
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            results = simulate_many_columnar(specs)
            counters = tracer.counters()
        finally:
            configure(enabled=False)
            tracer.reset()
        assert counters["table.tables"] == 1
        for spec, got in zip(specs, results):
            assert got.n_chips == spec.system.n_chips
        assert_equivalent(specs, results)

    def test_run_subsets_match_whole_table(self):
        specs = self._mixed_specs()
        table = ScenarioTable(specs)
        whole = table.run()
        subset = np.arange(len(specs))[::3]
        part = table.finalize(table.drive(subset), subset)
        for i, got in zip(subset, part):
            assert compare_runs(whole[i], got, rel_tol=0.0) == []


class TestScenarioTable:
    def test_table_run_matches_serial(self):
        specs = [_catalog_spec("EP", level) for level in (1, 2, 4)]
        table = ScenarioTable(specs)
        assert_equivalent(specs, table.run())

    def test_table_rejects_mixed_architectures(self):
        specs = [_catalog_spec("EP", 4, arch=P7),
                 _catalog_spec("EP", 2, arch=NHM)]
        with pytest.raises(ValueError):
            ScenarioTable(specs)

    def test_run_is_repeatable(self):
        specs = [_catalog_spec("SSCA2", 4)]
        table = ScenarioTable(specs)
        first = table.run()[0]
        second = ScenarioTable(specs).run()[0]
        assert compare_runs(first, second, rel_tol=0.0) == []
