"""The default (columnar) sweep must reproduce the serial reference and
honour the run cache."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.runner import Strategy, run_catalog
from repro.experiments.systems import nehalem_system, p7_system
from repro.sim.runcache import RunCache
from repro.workloads.catalog import all_workloads

REL_TOL = 1e-9

# Equake stresses the bandwidth bisection; SPECjbb_contention and
# Fluidanimate take the spin/lock fixed-point loop; EP short-circuits it.
SUBSET_NAMES = ("EP", "Equake", "Fluidanimate", "SPECjbb_contention")


def subset():
    specs = all_workloads()
    return {n: specs[n] for n in SUBSET_NAMES}


def close(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= REL_TOL * (np.abs(a) + 1e-12)))


def assert_run_matches(scalar, fast):
    assert fast.arch.name == scalar.arch.name
    assert fast.smt_level == scalar.smt_level
    assert fast.n_threads == scalar.n_threads
    assert fast.n_chips == scalar.n_chips
    assert fast.useful_instructions == scalar.useful_instructions
    st, ft = dataclasses.asdict(scalar.times), dataclasses.asdict(fast.times)
    assert st.keys() == ft.keys()
    for key in st:
        assert close(st[key], ft[key]), f"times.{key}"
    assert scalar.events.keys() == fast.events.keys()
    for key in scalar.events:
        assert close(scalar.events[key], fast.events[key]), f"events[{key}]"
    assert close(scalar.spin_fraction, fast.spin_fraction)
    assert close(scalar.blocked_fraction, fast.blocked_fraction)
    assert close(scalar.mem_latency_mult, fast.mem_latency_mult)
    assert close(scalar.mem_utilization, fast.mem_utilization)
    assert close(scalar.per_thread_ipc, fast.per_thread_ipc)
    assert close(scalar.dispatch_held_fraction, fast.dispatch_held_fraction)


def assert_catalogs_match(scalar_runs, fast_runs):
    assert scalar_runs.levels() == fast_runs.levels()
    assert set(scalar_runs.names()) == set(fast_runs.names())
    for name, by_level in scalar_runs.runs.items():
        for level, scalar in by_level.items():
            assert_run_matches(scalar, fast_runs.runs[name][level])


@pytest.fixture(scope="module")
def scalar_runs():
    return run_catalog(p7_system(), subset(), (1, 2, 4), strategy="serial", seed=5)


class TestColumnarCatalog:
    """Whole-catalog sweeps on ``run_catalog``'s default strategy."""

    def test_matches_scalar_engine(self, scalar_runs):
        runs = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, use_cache=False
        )
        assert_catalogs_match(scalar_runs, runs)

    def test_nehalem_matches(self):
        names = ("EP", "Equake", "SSCA2")
        sub = {n: all_workloads()[n] for n in names}
        scalar = run_catalog(nehalem_system(), sub, (1, 2), strategy="serial", seed=5)
        runs = run_catalog(
            nehalem_system(), sub, (1, 2), seed=5, use_cache=False
        )
        assert_catalogs_match(scalar, runs)

    def test_cache_round_trip(self, scalar_runs, tmp_path):
        cache = RunCache(tmp_path / "rc")
        cold = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, cache=cache
        )
        assert len(cache) == len(SUBSET_NAMES) * 3
        warm = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, cache=cache
        )
        assert_catalogs_match(cold, warm)
        assert_catalogs_match(scalar_runs, warm)

    def test_cache_partial_hits(self, tmp_path):
        # Warm only one level, then ask for all three: the cached level
        # must blend seamlessly with freshly simulated ones.
        cache = RunCache(tmp_path / "rc")
        run_catalog(p7_system(), subset(), (2,), seed=5, cache=cache)
        assert len(cache) == len(SUBSET_NAMES)
        full = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, cache=cache
        )
        assert len(cache) == len(SUBSET_NAMES) * 3
        assert full.levels() == (1, 2, 4)

    def test_use_cache_false_writes_nothing(self, tmp_path):
        cache = RunCache(tmp_path / "rc")
        run_catalog(
            p7_system(), {"EP": all_workloads()["EP"]}, (1,),
            seed=5, cache=cache, use_cache=False,
        )
        assert len(cache) == 0

    def test_seed_changes_bypass_cache_entries(self, tmp_path):
        cache = RunCache(tmp_path / "rc")
        sub = {"EP": all_workloads()["EP"]}
        run_catalog(p7_system(), sub, (1,), seed=5, cache=cache)
        run_catalog(p7_system(), sub, (1,), seed=6, cache=cache)
        assert len(cache) == 2


class TestExplicitStrategies:
    def test_exact_strategies_match_scalar(self, scalar_runs):
        runs = run_catalog(
            p7_system(), subset(), (1, 2, 4), strategy="columnar",
            seed=5, use_cache=False,
        )
        assert_catalogs_match(scalar_runs, runs)

    def test_strategy_options_are_the_two_engines(self):
        assert Strategy.options() == ("columnar", "serial")

    def test_unknown_strategy_raises(self):
        # The removed engines are unknown now, like any typo.
        for strategy in ("bogus", "batched", "parallel", "surrogate"):
            with pytest.raises(ValueError, match="unknown strategy"):
                run_catalog(p7_system(), subset(), (1,), strategy=strategy)
