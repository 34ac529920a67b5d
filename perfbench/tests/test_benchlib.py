"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import math
import shutil
import subprocess
import sys
import time
import types

import pytest

from benchlib import layers, loadgen, stats, trace
from benchlib.record import git_tree_id


# -- the tail-percentile rule ------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9),   # rank 9990: 10 beyond
    (9_999, 99.0),    # rank 9990: 9 beyond p99.9
    (1_000, 99.0),    # rank 990: exactly 10 beyond
    (999, 95.0),
    (200, 95.0),
    (199, 90.0),
    (20, 50.0),
    (19, None),
    (0, None),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_gated_ladder_stays_on_its_rung_as_samples_grow():
    ladder = stats.ladder_from(95.0)
    assert ladder == (95.0, 90.0, 75.0, 50.0)
    assert stats.tail_percentile(2_000, ladder) == 95.0
    assert stats.tail_percentile(199, ladder) == 90.0


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert stats.percentile(values, 50.0) == 500
    assert stats.percentile(values, 99.0) == 990
    assert stats.percentile(values, 100.0) == 1000


def test_summary_caps_failures_and_falls_back_to_max():
    summary = stats.summarize_ms([0.001] * 14 + [math.inf] * 5, cap_ms=50.0)
    assert summary["tail_q"] == 100.0      # 19 samples: no rung has 10 beyond
    assert summary["p50_ms"] == pytest.approx(1.0)
    assert summary["tail_ms"] == 50.0       # failed -> the cap, not inf
    full = stats.summarize_ms([0.001 * i for i in range(1, 1001)])
    assert full["tail_q"] == 99.0
    assert full["tail_ms"] == pytest.approx(990.0)


# -- open-loop due times and lateness ----------------------------------


def test_due_times_are_evenly_spaced():
    due = loadgen.due_times(100.0, 50.0, 2.0)
    assert len(due) == 100
    assert due[0] == 100.0
    assert due[-1] == pytest.approx(100.0 + 99 / 50.0)
    assert loadgen.due_times(0.0, 0.0, 1.0) == []


def test_latency_counts_from_due_time_and_failures_miss():
    late = loadgen.Outcome(due=1.0, sent=1.25, done=1.5, ok=True)
    assert late.latency == pytest.approx(0.5)   # includes the late send
    assert late.lateness == pytest.approx(0.25)
    early = loadgen.Outcome(due=1.0, sent=1.0, done=1.1, ok=True)
    assert early.lateness == 0.0
    failed = loadgen.Outcome(due=1.0, sent=1.0, done=1.1, ok=False)
    assert failed.latency == math.inf
    unanswered = loadgen.Outcome(due=1.0, sent=1.0, ok=True)
    assert unanswered.latency == math.inf


class _FakeClient:
    """Answers every request ``service_s`` after it is sent."""

    def __init__(self, service_s, fail_every=0):
        self.service_s = service_s
        self.fail_every = fail_every
        self.sent = 0

    def send(self, conn, op, params):
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.sent += 1
        ok = not (self.fail_every and self.sent % self.fail_every == 0)
        loop.call_later(self.service_s, lambda: future.done() or
                        future.set_result((time.perf_counter(), {"ok": ok})))
        return future


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    def make_request(i):
        if i == 5:
            time.sleep(0.2)        # the generator stalls before request 5
        return ("predict", {"i": i})

    phase = asyncio.run(loadgen.open_loop(
        _FakeClient(0.005), "t", 100.0, 0.3, make_request, 2, grace_s=2.0))
    assert phase.attempted == 30 and phase.failed == 0
    delayed = phase.outcomes[5]
    assert delayed.lateness >= 0.19
    assert delayed.latency >= delayed.lateness + 0.004
    # Requests due during the stall were sent late too, and their
    # latency is timed from when they were due.
    assert phase.outcomes[10].lateness > 0.1
    assert phase.outcomes[10].latency > 0.1
    assert max(o.lateness for o in phase.outcomes[25:]) < 0.05
    assert loadgen.lateness_ms([phase])[-1] >= 190.0


def test_open_loop_counts_failures_as_missing_the_limit():
    phase = asyncio.run(loadgen.open_loop(
        _FakeClient(0.001, fail_every=4), "t", 200.0, 0.1,
        lambda i: ("predict", {}), 2, grace_s=1.0))
    assert phase.failed == phase.attempted // 4
    assert phase.latencies()[-phase.failed:] == [math.inf] * phase.failed


def test_closed_loop_keeps_one_request_per_caller():
    client = _FakeClient(0.01)
    phase = asyncio.run(loadgen.closed_loop(
        client, "t", 4, 0.2, lambda i: ("predict", {}), 2, grace_s=1.0))
    assert phase.failed == 0
    # ~20 rounds of 4 callers; an open loop would not be bounded this way.
    assert 40 <= phase.attempted <= 4 * 21
    assert loadgen.completed_in(phase) <= phase.attempted


# -- self time -----------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = _Clock()
    rec = trace.SpanRecorder(clock)
    with rec.span("root"):
        clock.now = 1.0
        with rec.span("a"):
            clock.now = 4.0
        clock.now = 5.0
        with rec.span("b"):
            clock.now = 5.5
            with rec.span("c"):
                clock.now = 6.0
            clock.now = 7.0
        clock.now = 10.0
    times = trace.self_times(rec.spans)
    assert times["root"] == [pytest.approx(5.0), 1, pytest.approx(10.0)]
    assert times["a"][0] == pytest.approx(3.0)
    assert times["b"][0] == pytest.approx(1.5)
    assert times["c"][0] == pytest.approx(0.5)
    # Self times of a tree add up to its root's wall time.
    assert sum(t[0] for t in times.values()) == pytest.approx(10.0)
    assert layers.attributed_share(rec.spans, ["root"]) == pytest.approx(0.5)


def test_spans_round_trip_through_the_file(tmp_path):
    clock = _Clock()
    rec = trace.SpanRecorder(clock)
    with rec.span("outer"):
        clock.now = 2.0
        with rec.span("inner") as inner:
            inner[4] = {"size": 3}
            clock.now = 3.0
    path = tmp_path / "spans.jsonl"
    assert trace.write_spans(path, rec.spans) == 2
    back = trace.read_spans(path)
    assert trace.self_times(back) == trace.self_times(rec.spans)
    assert [s[4] for s in back if s[0] == "inner"] == [{"size": 3}]


# -- installing and removing the wrappers -------------------------------


_FAKE_SOURCE = """
def work(x):
    return x * 2


class Thing:
    def method(self, x):
        return work(x) + 1

    @classmethod
    def build(cls):
        return cls()


class Child(Thing):
    pass
"""


@pytest.fixture
def fake_program(monkeypatch):
    """A tiny package ``fakeprog`` standing in for the program."""
    pkg = types.ModuleType("fakeprog")
    exec(_FAKE_SOURCE, pkg.__dict__)
    user = types.ModuleType("fakeprog.user")
    user.work = pkg.work                # as ``from fakeprog import work``
    monkeypatch.setitem(sys.modules, "fakeprog", pkg)
    monkeypatch.setitem(sys.modules, "fakeprog.user", user)
    monkeypatch.setattr(trace, "PROGRAM_PREFIX", "fakeprog")
    return pkg, user


def test_install_times_calls_and_uninstall_restores_everything(fake_program):
    pkg, user = fake_program
    work, method = pkg.work, pkg.Thing.__dict__["method"]
    build = pkg.Thing.__dict__["build"]
    rec = trace.SpanRecorder()
    targets = [
        trace.Target("fakeprog", "work", "work",
                     observe=lambda a, k, r: {"in": a[0]}),
        trace.Target("fakeprog", "Thing.build", "build"),
        trace.Target("fakeprog", "Child.method", "child"),   # inherited
    ]
    with trace.Instrumentation(rec).install(targets):
        assert user.work is not work            # copied reference patched too
        assert isinstance(pkg.Thing.__dict__["build"], classmethod)
        assert pkg.Child().method(3) == 7
        assert isinstance(pkg.Thing.build(), pkg.Thing)
        # A module loaded while the shims are live copies one.
        late = types.ModuleType("fakeprog.late")
        late.work = pkg.work
        sys.modules["fakeprog.late"] = late
        assert trace.live_shims()
    try:
        names = sorted(s[0] for s in rec.spans)
        assert names == ["build", "child", "work"]
        child = next(s for s in rec.spans if s[0] == "child")
        inner = next(s for s in rec.spans if s[0] == "work")
        assert inner[3] is child and inner[4] == {"in": 3}
        assert trace.live_shims() == []
        assert pkg.work is work and user.work is work and late.work is work
        assert pkg.Thing.__dict__["method"] is method
        assert pkg.Thing.__dict__["build"] is build
        assert "method" not in pkg.Child.__dict__
        before = len(rec.spans)
        pkg.Child().method(1)
        assert len(rec.spans) == before        # untraced after uninstall
    finally:
        del sys.modules["fakeprog.late"]


def test_failed_install_leaves_nothing_behind(fake_program):
    pkg, user = fake_program
    work = pkg.work
    shims = trace.Instrumentation(trace.SpanRecorder())
    with pytest.raises(AttributeError):
        shims.install([trace.Target("fakeprog", "work", "work"),
                       trace.Target("fakeprog", "Thing.missing", "x")])
    assert pkg.work is work and user.work is work
    assert trace.live_shims() == []


def test_program_layers_install_and_uninstall_cleanly():
    """The real targets: an untraced run after a traced one has no shims."""
    from repro.experiments import runner
    from repro.sim.table import ScenarioTable

    original_run_catalog = runner.run_catalog
    original_drive = ScenarioTable.__dict__["drive"]
    rec = trace.SpanRecorder()
    with trace.Instrumentation(rec).install(layers.TARGETS):
        runner.run_catalog("nehalem", strategy="columnar", use_cache=False)
    assert trace.live_shims() == []
    assert runner.run_catalog is original_run_catalog
    assert ScenarioTable.__dict__["drive"] is original_drive
    metrics = layers.layer_metrics(rec.spans)
    assert metrics["runner.run_catalog.calls"] == 1
    assert metrics["sim.table.drive.calls"] == 1
    assert metrics["sim.table.runs"] == 44
    assert set(metrics) <= set(layers.per_layer_units())
    count = len(rec.spans)
    runner.run_catalog("nehalem", strategy="columnar", use_cache=False)
    assert len(rec.spans) == count


# -- source identity -----------------------------------------------------


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_tree_id_matches_git(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "sub" / "b.py").write_text("y = 2\n")
    (tmp_path / "pkg" / "sub-file").write_text("z\n")
    (tmp_path / "pkg" / "run.sh").write_text("#!/bin/sh\n")
    (tmp_path / "pkg" / "run.sh").chmod(0o755)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    git = ["git", "-C", str(tmp_path)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "pkg/a.py", "pkg/sub", "pkg/sub-file",
                          "pkg/run.sh"], check=True)
    tree = subprocess.run(git + ["write-tree"], check=True,
                          capture_output=True, text=True).stdout.strip()
    expected = subprocess.run(git + ["rev-parse", f"{tree}:pkg"], check=True,
                              capture_output=True, text=True).stdout.strip()
    assert git_tree_id(tmp_path / "pkg") == expected


# -- BENCHMARK.json ------------------------------------------------------


def test_benchmark_json_names_what_the_command_prints():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.per_layer_units()
