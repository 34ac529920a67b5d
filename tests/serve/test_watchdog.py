"""Pool supervision: hang detection, quarantine, close hygiene.

The liveness contract from docs/robustness.md: a worker holding
in-flight jobs with no progress for ``hang_timeout_s`` is declared
hung and killed; the ordinary crash path then fails its jobs with
retryable :class:`WorkerCrashed` and respawns it.  Idle silence is
never a hang.  Repeat offenders blow the restart budget and are
quarantined (routed around) for an exponentially growing sentence.
"""

import asyncio
import threading
import time

import pytest

from repro.serve import WorkerCrashed, WorkerPool

SESSION = {"seed": 11, "use_cache": False}


def run_pool(coro_fn, **pool_kwargs):
    async def main():
        kwargs = dict(session_defaults=SESSION, start_method="fork")
        kwargs.update(pool_kwargs)
        pool = WorkerPool(2, **kwargs).start()
        try:
            return await coro_fn(pool)
        finally:
            pool.close(timeout_s=5.0)

    return asyncio.run(main())


def patch_hanging_dispatch(monkeypatch):
    """Make the ``__hang__`` sentinel workload sleep forever in workers.

    Patched *before* the pool forks so the children inherit it — the
    deterministic stand-in for a deadlocked solver.
    """
    import repro.serve.workers as workers_mod

    real_dispatch = workers_mod.dispatch_batch

    def hanging_dispatch(key, payloads, defaults):
        if payloads and payloads[0].get("workload") == "__hang__":
            time.sleep(600)
        return real_dispatch(key, payloads, defaults)

    monkeypatch.setattr(workers_mod, "dispatch_batch", hanging_dispatch)


class TestHangDetection:
    def test_hung_worker_failed_killed_and_respawned(self, tracer, monkeypatch):
        patch_hanging_dispatch(monkeypatch)

        async def body(pool):
            key = ("predict", "p7", 1)
            job = asyncio.get_running_loop().create_task(
                pool.dispatch(key, [{"workload": "__hang__"}])
            )
            with pytest.raises(WorkerCrashed):
                await asyncio.wait_for(job, timeout=10.0)
            # The respawned worker serves the same sticky key again.
            deadline = asyncio.get_running_loop().time() + 30.0
            results = None
            while asyncio.get_running_loop().time() < deadline:
                try:
                    results = await pool.dispatch(key, [{"workload": "EP"}])
                    break
                except WorkerCrashed:
                    await asyncio.sleep(0.05)
            assert results is not None
            assert results[0]["workload"] == "EP"
            assert pool.depths() == [0, 0]

        run_pool(body, hang_timeout_s=0.2)
        counters = tracer.counters()
        assert counters["serve.watchdog.hangs"] >= 1.0
        assert counters["serve.watchdog.kills"] >= 1.0
        assert counters["serve.worker.restarts"] >= 1.0

    def test_sweep_is_deterministic_and_idle_is_never_hung(
            self, tracer, monkeypatch):
        patch_hanging_dispatch(monkeypatch)

        async def body(pool):
            # Sweeps are driven by hand with injected clocks; the pool's
            # own sweep cannot fire inside the 5 s silence budget.
            # Idle workers are never hung, however stale they look.
            assert all(w.inflight_jobs == 0 for w in pool._workers)
            assert pool.sweep(now=time.monotonic() + 3600.0) == 0

            job = asyncio.get_running_loop().create_task(
                pool.dispatch(("predict", "p7", 1), [{"workload": "__hang__"}])
            )
            await asyncio.sleep(0.1)        # the job reaches the worker
            # Within the silence budget: healthy.
            assert pool.sweep(now=time.monotonic()) == 0
            # Past it: declared hung and killed; the crash path fails
            # the waiting job retryable.
            assert pool.sweep(now=time.monotonic() + 10.0) == 1
            with pytest.raises(WorkerCrashed):
                await asyncio.wait_for(job, timeout=10.0)

        run_pool(body, hang_timeout_s=5.0)
        counters = tracer.counters()
        assert counters["serve.watchdog.hangs"] == 1.0
        assert counters["serve.watchdog.kills"] == 1.0

    def test_watchdog_validates_timeout(self):
        with pytest.raises(ValueError):
            WorkerPool(2, hang_timeout_s=0.0)


class TestQuarantine:
    def test_restart_budget_quarantines_repeat_offenders(self, tracer):
        async def body(pool):
            offender = pool._workers[0]
            sibling = pool._workers[1]
            for _ in range(pool.restart_budget):
                pool._note_restart(offender)
            assert not offender.quarantined()       # within budget
            pool._note_restart(offender)            # one over
            assert offender.quarantined()
            assert pool.quarantined_count() == 1
            assert not pool.all_quarantined()
            first_sentence = offender.quarantined_until - time.monotonic()
            pool._note_restart(offender)            # repeat offense
            second_sentence = offender.quarantined_until - time.monotonic()
            # Exponential re-admit: the sentence grows with each offense.
            assert second_sentence > first_sentence
            # Routing avoids the quarantined worker entirely...
            for i in range(6):
                assert pool.route(("predict", "p7", i)) is sibling
                assert pool.route(("ping", i)) is sibling
            # ...and admission reads the healthy sibling's depth.
            assert pool.load(("predict", "p7", 0)) == sibling.inflight_requests

        run_pool(body, quarantine_base_s=30.0)
        assert tracer.counters()["serve.watchdog.quarantines"] == 2.0

    def test_all_quarantined_still_routes_somewhere(self, tracer):
        async def body(pool):
            for worker in pool._workers:
                for _ in range(pool.restart_budget + 1):
                    pool._note_restart(worker)
            assert pool.all_quarantined()
            # Serving degraded beats serving nothing: routing falls back
            # to the full fleet and dispatch still answers.
            assert pool.route(("ping", 0)) in pool._workers
            results = await pool.dispatch(("ping", 1), [{}])
            assert results == [{"pong": True}]
            # Sentences lapse: quarantine is a routing state, not death.
            for worker in pool._workers:
                worker.quarantined_until = 0.0
            assert pool.quarantined_count() == 0
            assert not pool.all_quarantined()

        run_pool(body, quarantine_base_s=30.0)

    def test_restart_budget_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(2, restart_budget=0)


class TestCloseHygiene:
    def test_close_is_idempotent_and_reaps_everything(self):
        async def body(pool):
            await pool.dispatch(("ping", 0), [{}])
            pool.close(timeout_s=5.0)
            pool.close(timeout_s=5.0)       # second close: silent no-op
            for worker in pool._workers:
                assert not worker.process.is_alive()
                assert not worker.reader.is_alive()
            with pytest.raises(WorkerCrashed):
                await pool.dispatch(("ping", 1), [{}])

        run_pool(body)      # run_pool's own close is the third no-op

    def test_close_fails_inflight_jobs_instead_of_stranding_them(
            self, monkeypatch):
        patch_hanging_dispatch(monkeypatch)

        async def body(pool):
            job = asyncio.get_running_loop().create_task(
                pool.dispatch(("predict", "p7", 1), [{"workload": "__hang__"}])
            )
            await asyncio.sleep(0.1)        # the job reaches the worker
            pool.close(timeout_s=0.5)       # worker is asleep: terminated
            with pytest.raises(WorkerCrashed):
                await asyncio.wait_for(job, timeout=10.0)

        run_pool(body)

    def test_close_counts_readers_that_outlive_it(self, tracer):
        async def body(pool):
            await pool.dispatch(("ping", 0), [{}])
            # Swap in a reader stand-in that ignores close — the
            # pathological stuck-pipe case the counter exists for.
            straggler = threading.Thread(
                target=time.sleep, args=(8.0,), daemon=True
            )
            straggler.start()
            pool._workers[0].reader = straggler
            pool.close(timeout_s=5.0)

        run_pool(body)
        assert tracer.counters()["serve.worker.close_leaks"] == 1.0
