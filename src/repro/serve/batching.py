"""Dynamic micro-batching: coalesce concurrent requests, dispatch once.

The same shape ML inference servers use: requests enter a bounded
admission queue; a single collector loop takes the first waiting
request, lingers up to ``max_linger_s`` for company, closes the batch
at ``max_batch``, groups it by batch key (requests that may legally be
answered by one handler call), and dispatches each group.

One dispatch plane: ``dispatch(key, payloads, deadlines)`` is an
awaitable returning one result per payload.  The in-process server
passes one that runs :func:`repro.serve.workers._run_job` on its single
executor thread; the pool server passes
:meth:`repro.serve.workers.WorkerPool.dispatch`, which runs the same
function in a worker process.

``max_concurrent`` bounds *groups in flight*.  The collector takes a
slot before it collects a batch (that slot carries the batch's first
group), and each further group of the batch takes its own slot before
it dispatches; a group gives its slot back when it settles.  With one
slot (the in-process server) batches run strictly one after another —
a full queue then turns into honest backpressure instead of unbounded
buffering.  With ``2 × workers`` slots (the pool server) the collector
assembles the next batch while earlier groups run on different worker
processes.

Failure handling follows :class:`repro.faults.RetryPolicy`: a group
whose dispatch raises (or exceeds ``task_timeout_s``), or whose result
batch fails the :func:`repro.serve.workers.validate_results` shape
check (a corrupted response), is retried with exponential backoff;
exhausted retries fail that group's requests with the dispatch error,
never the whole service.

Deadlines travel with the work: each item's absolute deadline is
forwarded to ``dispatch`` so already-expired positions are abandoned
(returned as the :data:`~repro.serve.workers.EXPIRED` sentinel,
surfaced here as the same ``deadline exceeded`` timeout the
pre-dispatch expiry check raises).

Telemetry (``repro.obs``): ``serve.queue_depth`` gauge,
``serve.batches`` / ``serve.batched_requests`` counters (their ratio is
the mean batch size), a ``serve.batch_size_le_N`` histogram,
``serve.dispatch_retries`` / ``serve.dispatch_failures``, and one
``serve.batch`` span per dispatched group.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Hashable, List, Optional, Sequence

from repro.faults.retry import RetryPolicy
from repro.obs import get_tracer
from repro.serve.workers import EXPIRED, validate_results

#: Histogram bucket upper bounds for the batch-size distribution.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32)

#: ``dispatch(key, payloads, deadlines)`` → one result per payload.
Dispatch = Callable[
    [Hashable, Sequence[Any], Sequence[Optional[float]]], Awaitable[Sequence[Any]]
]


class QueueFull(Exception):
    """Admission queue at capacity — reject with 429 semantics."""


class BatcherClosed(Exception):
    """The batcher is draining/closed and accepts no new work."""


@dataclass
class PendingItem:
    """One admitted request waiting for (or undergoing) dispatch."""

    key: Hashable                    # batch-compatibility key
    payload: Any                     # handler input (request params)
    future: "asyncio.Future[Any]"    # resolves to the handler output
    deadline_t: Optional[float]      # loop-clock deadline, None = no deadline
    enqueued_t: float = 0.0

    def expired(self, now: float) -> bool:
        return self.deadline_t is not None and now >= self.deadline_t

    def abandoned(self) -> bool:
        return self.future.done()     # cancelled or already failed


class MicroBatcher:
    """Coalesces :class:`PendingItem` submissions into dispatched batches.

    ``dispatch`` is awaited once per group (see :data:`Dispatch`);
    ``retry_policy`` governs re-dispatch of failed groups.  Must be
    constructed and used on a running loop.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        *,
        retry_policy: RetryPolicy,
        max_batch: int = 16,
        max_linger_s: float = 0.002,
        queue_size: int = 256,
        max_concurrent: int = 1,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_linger_s < 0:
            raise ValueError(f"max_linger_s must be >= 0, got {max_linger_s}")
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self._dispatch = dispatch
        self.retry_policy = retry_policy
        self.max_batch = max_batch
        self.max_linger_s = max_linger_s
        self.max_concurrent = max_concurrent
        self._queue: "asyncio.Queue[PendingItem]" = asyncio.Queue(maxsize=queue_size)
        self._closed = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._task: Optional[asyncio.Task] = None
        self._inflight: set = set()          # dispatched group tasks
        self._held = False                   # dequeued, groups not all launched
        self._slots = asyncio.Semaphore(max_concurrent)

    # -- admission -----------------------------------------------------

    def submit(self, key: Hashable, payload: Any,
               deadline_t: Optional[float] = None) -> "asyncio.Future[Any]":
        """Admit one request; raises :class:`QueueFull`/:class:`BatcherClosed`."""
        if self._closed:
            raise BatcherClosed("batcher is draining")
        loop = asyncio.get_running_loop()
        item = PendingItem(
            key=key, payload=payload, future=loop.create_future(),
            deadline_t=deadline_t, enqueued_t=loop.time(),
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            raise QueueFull(
                f"admission queue at capacity ({self._queue.maxsize})"
            ) from None
        self._idle.clear()
        get_tracer().gauge("serve.queue_depth", self._queue.qsize())
        return item.future

    def depth(self) -> int:
        return self._queue.qsize()

    # -- the collector loop --------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Stop admitting, finish everything already admitted, stop."""
        self._closed = True
        await self._idle.wait()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _collect(self) -> List[PendingItem]:
        """One batch: first waiter + whoever arrives within the linger.

        The batch counts as held from its first dequeue, so drain()
        cannot see the batcher idle while a batch lingers for company.
        """
        first = await self._queue.get()
        self._held = True
        batch = [first]
        loop = asyncio.get_running_loop()
        linger_until = loop.time() + self.max_linger_s
        while len(batch) < self.max_batch:
            timeout = linger_until - loop.time()
            if timeout <= 0:
                # Linger over; keep draining only what is already queued.
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
                continue
            try:
                batch.append(await asyncio.wait_for(self._queue.get(), timeout))
            except asyncio.TimeoutError:
                break
        get_tracer().gauge("serve.queue_depth", self._queue.qsize())
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._slots.acquire()
            batch = await self._collect()
            try:
                groups = self._live_groups(batch, loop.time())
                if not groups:
                    self._slots.release()
                for index, (key, items) in enumerate(groups.items()):
                    if index:
                        await self._slots.acquire()
                    task = loop.create_task(self._dispatch_group(key, items))
                    self._inflight.add(task)
                    task.add_done_callback(self._on_group_done)
            finally:
                self._held = False
                self._maybe_idle()

    def _on_group_done(self, task: "asyncio.Task") -> None:
        self._inflight.discard(task)
        self._slots.release()
        self._maybe_idle()

    def _maybe_idle(self) -> None:
        if self._queue.empty() and not self._inflight and not self._held:
            self._idle.set()

    @staticmethod
    def _live_groups(batch: List[PendingItem],
                     now: float) -> Dict[Hashable, List[PendingItem]]:
        """Drop abandoned items, fail expired ones, group the rest by key."""
        groups: Dict[Hashable, List[PendingItem]] = {}
        for item in batch:
            if item.abandoned():
                continue
            if item.expired(now):
                item.future.set_exception(asyncio.TimeoutError("deadline exceeded"))
                get_tracer().add("serve.deadline_expirations")
                continue
            groups.setdefault(item.key, []).append(item)
        return groups

    async def _dispatch_group(self, key: Hashable,
                              items: List[PendingItem]) -> None:
        try:
            await self._dispatch_with_retries(key, items)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)

    async def _dispatch_with_retries(self, key: Hashable,
                                     items: List[PendingItem]) -> None:
        tracer = get_tracer()
        size = len(items)
        tracer.add("serve.batches")
        tracer.add("serve.batched_requests", size)
        for bucket in BATCH_SIZE_BUCKETS:
            if size <= bucket:
                tracer.add(f"serve.batch_size_le_{bucket}")
                break
        else:
            tracer.add("serve.batch_size_le_inf")

        payloads = [item.payload for item in items]
        deadlines = [item.deadline_t for item in items]
        policy = self.retry_policy
        attempt = 0
        with tracer.span("serve.batch", size=size):
            while True:
                try:
                    results = await asyncio.wait_for(
                        self._dispatch(key, payloads, deadlines),
                        timeout=policy.task_timeout_s,
                    )
                    # Shape-check inside the retry loop: a corrupted
                    # response (short batch, junk bodies) raises a
                    # retryable CorruptResponse and re-dispatches.
                    validate_results(key, results, size)
                    break
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    attempt += 1
                    if attempt > policy.max_retries or not _retryable(exc):
                        tracer.add("serve.dispatch_failures")
                        for item in items:
                            if not item.future.done():
                                item.future.set_exception(exc)
                        return
                    tracer.add("serve.dispatch_retries")
                    delay = policy.backoff_for(attempt)
                    if delay > 0:
                        await asyncio.sleep(delay)
        for item, result in zip(items, results):
            if item.future.done():
                continue
            if isinstance(result, str) and result == EXPIRED:
                tracer.add("serve.deadline_expirations")
                item.future.set_exception(
                    asyncio.TimeoutError("deadline exceeded")
                )
            else:
                item.future.set_result(result)


def _retryable(exc: BaseException) -> bool:
    """Client errors are final; timeouts and transient faults retry."""
    return not isinstance(exc, (ValueError, KeyError, TypeError))
