"""The micro-batcher's single dispatch plane, driven without sockets.

``dispatch`` is a stub coroutine, so slot accounting and drain are
observable directly: ``max_concurrent`` bounds groups in flight (one
slot = strictly sequential batches), and a graceful drain never drops a
batch the collector has dequeued but not yet dispatched.
"""

import asyncio

from repro.faults.retry import RetryPolicy
from repro.serve import MicroBatcher

POLICY = RetryPolicy(task_timeout_s=10.0, max_retries=0, backoff_s=0.0)


class TestSlots:
    def _peak_groups_in_flight(self, max_concurrent):
        async def main():
            inflight = peak = 0

            async def dispatch(key, payloads, deadlines):
                nonlocal inflight, peak
                inflight += 1
                peak = max(peak, inflight)
                await asyncio.sleep(0.01)
                inflight -= 1
                return [{"key": key, "payload": p} for p in payloads]

            batcher = MicroBatcher(dispatch, retry_policy=POLICY,
                                   max_linger_s=0.05, max_batch=64,
                                   max_concurrent=max_concurrent)
            batcher.start()
            futures = [batcher.submit(("k", i % 4), i) for i in range(12)]
            results = await asyncio.gather(*futures)
            await batcher.drain()
            assert [r["payload"] for r in results] == list(range(12))
            return peak

        return asyncio.run(main())

    def test_one_slot_runs_groups_one_at_a_time(self):
        assert self._peak_groups_in_flight(1) == 1

    def test_slots_bound_groups_in_flight(self):
        # One batch of four keys: each group beyond the first takes its
        # own slot, so two slots never see three groups at once.
        assert self._peak_groups_in_flight(2) == 2


class TestDrain:
    def test_drain_waits_for_a_batch_still_lingering(self):
        async def main():
            release_a = asyncio.Event()
            a_dispatched = asyncio.Event()

            async def dispatch(key, payloads, deadlines):
                if payloads == ["A"]:
                    a_dispatched.set()
                    await release_a.wait()
                return [{"echo": p} for p in payloads]

            batcher = MicroBatcher(dispatch, retry_policy=POLICY,
                                   max_linger_s=0.2, max_concurrent=2)
            batcher.start()
            future_a = batcher.submit(("k",), "A")
            await a_dispatched.wait()
            # The collector holds the second slot: it dequeues B at once
            # and lingers for company while A is still in flight.
            future_b = batcher.submit(("k",), "B")
            await asyncio.sleep(0.02)
            assert batcher.depth() == 0
            release_a.set()
            await future_a
            await batcher.drain()
            assert future_b.done() and not future_b.cancelled()
            return future_b.result()

        assert asyncio.run(main()) == {"echo": "B"}
