"""Tests for the extension experiments (beyond the paper's figures)."""

import pytest

from repro.experiments import (
    armsmt_transfer,
    batch_scheduler,
    coschedule_symbiosis,
    hetero_biglittle,
    offline_vs_online,
    online_optimizer,
    priority_shielding,
    scaling_cores,
    threshold_transfer,
)


class TestPriorityShielding:
    @pytest.fixture(scope="class")
    def result(self):
        return priority_shielding.run()

    def test_monotone_in_priority(self, result):
        prios = sorted(result.foreground_ipc)
        series = [result.foreground_ipc[p] for p in prios]
        assert series == sorted(series)

    def test_never_exceeds_solo(self, result):
        assert max(result.foreground_ipc.values()) <= result.solo_ipc * 1.001

    def test_core_throughput_conserved(self, result):
        core = list(result.core_ipc.values())
        assert max(core) / min(core) < 1.2

    def test_render(self, result):
        assert "priority" in result.render()


class TestCoschedule:
    @pytest.fixture(scope="class")
    def result(self):
        return coschedule_symbiosis.run(seed=11)

    def test_policy_ordering(self, result):
        assert result.guided.weighted_speedup >= result.random_mean
        assert result.random_mean > result.adversarial.weighted_speedup

    def test_guided_avoids_hot_hot_pairs(self, result):
        hot = {"Streamcluster", "SPECjbb", "IS"}
        for a, b in result.guided.pairing:
            assert not ({a.name, b.name} <= hot), (a.name, b.name)

    def test_render(self, result):
        assert "weighted speedup" in result.render()


class TestThresholdTransfer:
    @pytest.fixture(scope="class")
    def result(self, p7_catalog_runs):
        return threshold_transfer.run(runs=p7_catalog_runs)

    def test_leave_one_out_robust(self, result):
        assert result.loo_rate >= 0.85

    def test_seed_transfer_robust(self, result):
        assert result.transfer_rate >= 0.85

    def test_loo_misses_are_the_calibrated_borderliners(self, result):
        assert set(result.loo_misses) <= {"Gafort", "IS", "MG", "Stream",
                                          "Dedup", "Streamcluster"}


class TestScalingCores:
    @pytest.fixture(scope="class")
    def result(self):
        return scaling_cores.run(seed=11)

    def test_accuracy_never_improves_with_size(self, result):
        rates = result.success_rates()
        assert rates[4] <= rates[2] + 1e-9 <= rates[1] + 2e-9

    def test_lock_bound_workloads_always_degrade(self, result):
        for chips, scatter in result.per_chips.items():
            by_name = {p.name: p for p in scatter.points}
            assert by_name["SPECjbb_contention"].speedup < 0.5


class TestBatchScheduler:
    @pytest.fixture(scope="class")
    def result(self, p7_catalog_runs):
        return batch_scheduler.run(runs=p7_catalog_runs)

    def test_policy_ordering(self, result):
        makespans = result.makespans()
        assert makespans["oracle"] <= makespans["smtsm"] * 1.02
        assert makespans["smtsm"] < makespans["static-4"]
        assert makespans["smtsm"] < makespans["static-1"]

    def test_decisions_are_mixed(self, result):
        levels = {r.level for r in result.outcomes["smtsm"].records}
        assert {1, 4} <= levels

    def test_render(self, result):
        assert "makespan" in result.render()


class TestOfflineVsOnline:
    @pytest.fixture(scope="class")
    def result(self, p7_catalog_runs):
        return offline_vs_online.run(runs=p7_catalog_runs)

    def test_online_beats_offline(self, result):
        assert result.online_success() > result.offline_success()

    def test_flips_exist(self, result):
        assert result.preference_flips() >= 3

    def test_blind_spot_documented(self, result):
        equake = next(o for o in result.outcomes if o.name == "Equake")
        assert not equake.online_correct
        assert equake.prod_speedup > 1.0

    def test_render(self, result):
        text = result.render()
        assert "STALE" in text and "offline" in text


class TestOnlineOptimizerExperiment:
    def test_beats_default(self, p7_catalog_runs):
        result = online_optimizer.run(runs=p7_catalog_runs)
        assert result.adaptive_wall < result.static_walls[4] * 0.8
        assert result.adaptive.n_switches >= 1
        assert "adaptive" in result.render()


class TestTransferValidity:
    def test_threshold_is_valid_is_a_plain_bool(self):
        # The golden snapshots compare values and their JSON types, so a
        # numpy bool here fails the armsmt01/hetero01 goldens.
        assert type(armsmt_transfer.run().threshold_is_valid()) is bool
        hetero = hetero_biglittle.run()
        for cluster in hetero.scatters:
            assert type(hetero.threshold_is_valid(cluster)) is bool
