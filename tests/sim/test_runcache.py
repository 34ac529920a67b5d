"""Persistent run-cache correctness: hits, misses, invalidation."""

import dataclasses
import json

import pytest

from repro.arch import nehalem, power7
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.runcache import (
    MODEL_VERSION,
    RunCache,
    cache_enabled_by_default,
    default_cache_dir,
    run_cache_key,
)
from repro.simos import SystemSpec
from repro.util.rng import RngStream
from repro.workloads.synthetic import random_workload


def make_spec(**overrides):
    workload = random_workload(RngStream(5))
    kwargs = dict(
        system=SystemSpec(power7(), 1),
        smt_level=2,
        stream=workload.stream,
        sync=workload.sync,
        seed=11,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def assert_results_equal(a, b):
    assert a.arch is b.arch
    assert a.smt_level == b.smt_level
    assert a.n_threads == b.n_threads
    assert a.n_chips == b.n_chips
    assert a.useful_instructions == b.useful_instructions
    assert dataclasses.asdict(a.times) == dataclasses.asdict(b.times)
    assert dict(a.events) == dict(b.events)
    assert a.spin_fraction == b.spin_fraction
    assert a.blocked_fraction == b.blocked_fraction
    assert a.mem_latency_mult == b.mem_latency_mult
    assert a.mem_utilization == b.mem_utilization
    assert a.per_thread_ipc == b.per_thread_ipc
    assert a.dispatch_held_fraction == b.dispatch_held_fraction


class TestCacheKey:
    def test_deterministic(self):
        spec = make_spec()
        assert run_cache_key(spec) == run_cache_key(spec)

    def test_same_values_same_key_across_instances(self):
        # Content-addressed: two independently built but identical specs
        # share one entry (the point of reusing runs across sessions).
        assert run_cache_key(make_spec()) == run_cache_key(make_spec())

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 12},
            {"smt_level": 4},
            {"useful_instructions": 3e10},
            {"noise_rel": 0.02},
            {"n_threads": 5},
        ],
    )
    def test_spec_field_changes_key(self, override):
        assert run_cache_key(make_spec(**override)) != run_cache_key(make_spec())

    def test_sync_profile_changes_key(self):
        base = make_spec()
        changed = make_spec(
            sync=dataclasses.replace(base.sync, spin_coeff=base.sync.spin_coeff + 0.05)
        )
        assert run_cache_key(changed) != run_cache_key(base)

    def test_stream_changes_key(self):
        base = make_spec()
        changed = make_spec(stream=base.stream.scaled_misses(1.01))
        assert run_cache_key(changed) != run_cache_key(base)

    def test_arch_changes_key(self):
        assert run_cache_key(
            make_spec(system=SystemSpec(nehalem(), 1))
        ) != run_cache_key(make_spec())

    def test_arch_parameter_changes_key(self):
        base_arch = power7()
        tweaked = dataclasses.replace(base_arch, branch_penalty=base_arch.branch_penalty + 1)
        assert run_cache_key(
            make_spec(system=SystemSpec(tweaked, 1))
        ) != run_cache_key(make_spec(system=SystemSpec(base_arch, 1)))

    def test_n_chips_changes_key(self):
        assert run_cache_key(
            make_spec(system=SystemSpec(power7(), 2))
        ) != run_cache_key(make_spec())

    def test_model_version_changes_key(self, monkeypatch):
        import repro.sim.runcache as rc

        spec = make_spec()
        before = run_cache_key(spec)
        monkeypatch.setattr(rc, "MODEL_VERSION", MODEL_VERSION + 1)
        monkeypatch.setattr(rc, "_CONSTANTS_FP_JSON", None)
        after = run_cache_key(spec)
        monkeypatch.setattr(rc, "_CONSTANTS_FP_JSON", None)
        assert before != after


class TestCacheStore:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        assert cache.get(spec) is None
        result = simulate_run(spec)
        cache.put(spec, result)
        assert len(cache) == 1
        cached = cache.get(spec)
        assert cached is not None
        assert_results_equal(cached, result)

    def test_different_spec_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        assert cache.get(make_spec(seed=99)) is None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        path = tmp_path / f"{run_cache_key(spec)}.json"
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_corrupt_entry_is_deleted_and_counted(self, tmp_path):
        from repro.obs import configure

        cache = RunCache(tmp_path)
        spec = make_spec()
        result = simulate_run(spec)
        cache.put(spec, result)
        path = tmp_path / f"{run_cache_key(spec)}.json"
        path.write_text("{not json")
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            assert cache.get(spec) is None
            counters = tracer.counters()
            assert counters.get("runcache.corrupt") == 1
            assert counters.get("runcache.misses") == 1
        finally:
            configure(enabled=False)
            tracer.reset()
        # The bad entry is gone: a re-put works and the next get hits.
        assert not path.exists()
        cache.put(spec, result)
        cached = cache.get(spec)
        assert cached is not None
        assert_results_equal(cached, result)

    def test_valid_payload_with_missing_key_is_corrupt(self, tmp_path):
        # Malformed means structurally wrong too, not just bad JSON.
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        path = tmp_path / f"{run_cache_key(spec)}.json"
        payload = json.loads(path.read_text())
        del payload["times"]
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert not path.exists()

    def test_stale_schema_entry_is_rejected(self, tmp_path):
        # An entry written under a different payload layout may parse
        # cleanly yet mean something else; it must never deserialize.
        from repro.obs import configure
        from repro.sim.runcache import PAYLOAD_SCHEMA

        cache = RunCache(tmp_path)
        spec = make_spec()
        result = simulate_run(spec)
        cache.put(spec, result)
        path = tmp_path / f"{run_cache_key(spec)}.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == PAYLOAD_SCHEMA
        payload["schema"] = PAYLOAD_SCHEMA - 1
        path.write_text(json.dumps(payload))
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            assert cache.get(spec) is None
            counters = tracer.counters()
            assert counters.get("runcache.schema_mismatch") == 1
            assert counters.get("runcache.misses") == 1
            assert counters.get("runcache.corrupt") is None
        finally:
            configure(enabled=False)
            tracer.reset()
        # Deleted on first sight, so a fresh put repopulates cleanly.
        assert not path.exists()
        cache.put(spec, result)
        cached = cache.get(spec)
        assert cached is not None
        assert_results_equal(cached, result)

    def test_pre_versioning_entry_is_rejected(self, tmp_path):
        # Entries from before the schema field existed carry no marker
        # at all — those are exactly the "stale format" class.
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        path = tmp_path / f"{run_cache_key(spec)}.json"
        payload = json.loads(path.read_text())
        del payload["schema"]
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(spec) is None

    def test_payload_is_plain_json(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        payload = json.loads(
            (tmp_path / f"{run_cache_key(spec)}.json").read_text()
        )
        assert set(payload) >= {"times", "events", "per_thread_ipc"}

    def test_unwritable_root_is_silent(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should go")
        cache = RunCache(blocker / "sub")
        spec = make_spec()
        cache.put(spec, simulate_run(spec))  # must not raise
        assert cache.get(spec) is None


class TestArchFingerprintMemo:
    def test_memo_is_capped(self, monkeypatch):
        # Every hand-built Architecture is a new identity-keyed entry;
        # the cap keeps the memo from pinning them all.
        from repro.sim import runcache

        monkeypatch.setattr(runcache, "_ARCH_FP_CACHE", {})
        monkeypatch.setattr(runcache, "_ARCH_FP_CACHE_MAX", 3)
        keys = set()
        for _ in range(7):
            keys.add(run_cache_key(make_spec(system=SystemSpec(power7(), 1))))
            assert len(runcache._ARCH_FP_CACHE) <= 3
        # Rebuilt but identical machines still share one content key.
        assert len(keys) == 1


class TestEnvironmentSwitches:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNCACHE", raising=False)
        assert cache_enabled_by_default()

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNCACHE", "0")
        assert not cache_enabled_by_default()

    def test_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert RunCache().root == tmp_path / "alt"
