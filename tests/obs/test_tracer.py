"""Tracer unit behaviour: span nesting, counters, disabled no-op mode."""

import asyncio
import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    ListSink,
    Tracer,
    telemetry_enabled_by_env,
)
from repro.obs.core import ENV_TELEMETRY


class FakeClock:
    """Deterministic monotonic clock: advances only when told to."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(enabled=True, clock=clock)


class TestSpans:
    def test_duration_from_monotonic_clock(self, tracer, clock):
        with tracer.span("work"):
            clock.tick(2.5)
        (record,) = tracer.spans()
        assert record.name == "work"
        assert record.duration_s == pytest.approx(2.5)

    def test_nesting_builds_paths_and_depths(self, tracer, clock):
        with tracer.span("sweep"):
            with tracer.span("simulate"):
                with tracer.span("solve"):
                    clock.tick(1.0)
            with tracer.span("store"):
                clock.tick(1.0)
        paths = {r.path: r.depth for r in tracer.spans()}
        assert paths == {
            "sweep/simulate/solve": 2,
            "sweep/simulate": 1,
            "sweep/store": 1,
            "sweep": 0,
        }

    def test_children_close_before_parents(self, tracer, clock):
        with tracer.span("outer"):
            clock.tick(1.0)
            with tracer.span("inner"):
                clock.tick(2.0)
        inner, outer = tracer.spans()
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.duration_s == pytest.approx(3.0)
        assert inner.duration_s == pytest.approx(2.0)

    def test_attrs_at_open_and_via_set(self, tracer):
        with tracer.span("sweep", runs=84) as span:
            span.set(cache_hits=84, cache_misses=0)
        (record,) = tracer.spans()
        assert record.attrs == {"runs": 84, "cache_hits": 84, "cache_misses": 0}

    def test_start_offsets_are_relative_to_tracer_creation(self, tracer, clock):
        clock.tick(5.0)
        with tracer.span("late"):
            pass
        (record,) = tracer.spans()
        assert record.start_s == pytest.approx(5.0)

    def test_exception_still_closes_span(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                clock.tick(1.0)
                raise RuntimeError("x")
        with tracer.span("after"):
            pass
        boom, after = tracer.spans()
        assert boom.duration_s == pytest.approx(1.0)
        assert (after.path, after.depth) == ("after", 0)

    def test_gathered_tasks_open_sibling_spans(self, tracer):
        async def batch(started, release):
            with tracer.span("serve.batch"):
                started.release()
                await release.wait()

        async def main():
            started, release = asyncio.Semaphore(0), asyncio.Event()
            tasks = [asyncio.ensure_future(batch(started, release))
                     for _ in range(3)]
            for _ in tasks:
                await started.acquire()     # all three spans are open
            release.set()
            await asyncio.gather(*tasks)

        asyncio.run(main())
        assert [(r.path, r.depth) for r in tracer.spans()] == [
            ("serve.batch", 0)] * 3

    def test_spans_on_two_threads_do_not_nest(self, tracer):
        both_open = threading.Barrier(2, timeout=10)

        def work(name):
            with tracer.span(name):
                both_open.wait()
                with tracer.span("solve"):
                    pass
                both_open.wait()

        threads = [threading.Thread(target=work, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        depths = {(r.path, r.depth) for r in tracer.spans()}
        assert depths == {("a", 0), ("b", 0), ("a/solve", 1), ("b/solve", 1)}


class TestCountersAndGauges:
    def test_counters_accumulate(self, tracer):
        tracer.add("hits")
        tracer.add("hits", 2)
        tracer.add("misses", 0.5)
        assert tracer.counters() == {"hits": 3.0, "misses": 0.5}

    def test_gauges_keep_last_value(self, tracer):
        tracer.gauge("depth", 4)
        tracer.gauge("depth", 7)
        assert tracer.gauges() == {"depth": 7.0}

    def test_snapshot_and_reset(self, tracer, clock):
        tracer.add("n")
        tracer.gauge("g", 1)
        with tracer.span("s"):
            clock.tick(1.0)
        snap = tracer.snapshot()
        assert snap["counters"] == {"n": 1.0}
        assert snap["gauges"] == {"g": 1.0}
        assert [e["name"] for e in snap["spans"]] == ["s"]
        tracer.reset()
        assert tracer.snapshot() == {"counters": {}, "gauges": {}, "spans": []}


class TestDisabledMode:
    def test_span_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", runs=3)
        assert span is NULL_SPAN
        with span as s:
            assert s.set(more=1) is s
        assert tracer.spans() == []

    def test_counters_and_gauges_are_noops(self):
        tracer = Tracer(enabled=False)
        tracer.add("hits")
        tracer.gauge("g", 1)
        assert tracer.counters() == {}
        assert tracer.gauges() == {}

    def test_nothing_reaches_the_sink(self):
        sink = ListSink()
        tracer = Tracer(enabled=False, sink=sink)
        with tracer.span("s"):
            pass
        tracer.add("n")
        tracer.flush()
        assert sink.events == []

    def test_env_gate_parsing(self, monkeypatch):
        for value, expected in [
            ("1", True), ("on", True), ("TRUE", True), ("yes", True),
            ("0", False), ("", False), ("off", False), ("no", False),
        ]:
            monkeypatch.setenv(ENV_TELEMETRY, value)
            assert telemetry_enabled_by_env() is expected
        monkeypatch.delenv(ENV_TELEMETRY)
        assert telemetry_enabled_by_env() is False


class TestSinkStreaming:
    def test_spans_stream_counters_aggregate_until_flush(self, clock):
        sink = ListSink()
        tracer = Tracer(enabled=True, sink=sink, clock=clock)
        tracer.add("hits", 2)
        with tracer.span("s"):
            clock.tick(1.0)
        assert [e["type"] for e in sink.events] == ["span"]
        tracer.flush()
        kinds = [(e["type"], e.get("name")) for e in sink.events]
        assert ("counter", "hits") in kinds
        counter = next(e for e in sink.events if e["type"] == "counter")
        assert counter["value"] == 2.0
