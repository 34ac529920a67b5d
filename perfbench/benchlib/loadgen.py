"""Open- and closed-loop NDJSON load from one asyncio process.

Open loop: request ``i`` of a phase is due at ``start + i / rate``
whatever the server does; latency is timed from that due time, so a
stall also charges the requests it delayed, and the generator's own
lateness (send time minus due time) is reported beside it.  Closed
loop: each caller sends its next request only when the previous one
has been answered.  A request that fails or gets no answer counts as
an infinite latency: it misses any limit.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Request = Tuple[str, dict]          # (op, params)


def due_times(start: float, rate: float, duration: float) -> List[float]:
    """Send schedule of an open-loop phase: ``rate`` per second for
    ``duration`` seconds, evenly spaced from ``start``."""
    if rate <= 0 or duration <= 0:
        return []
    return [start + i / rate for i in range(int(round(rate * duration)))]


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and how."""

    due: float
    sent: float = math.nan
    done: float = math.nan
    ok: bool = False
    request: Optional[Request] = None
    response: Optional[dict] = None

    @property
    def latency(self) -> float:
        """Seconds from due time to answer; infinite when it failed."""
        if not self.ok or math.isnan(self.done):
            return math.inf
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return max(0.0, self.sent - self.due)


@dataclass
class PhaseResult:
    """Requests of one phase, which may run as several time windows."""

    name: str
    windows: List[Tuple[float, float]]
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.windows)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def latencies(self) -> List[float]:
        return sorted(o.latency for o in self.outcomes)


def merge(phases: Sequence[PhaseResult]) -> PhaseResult:
    """One phase from the rounds of it (windows and requests pooled)."""
    return PhaseResult(phases[0].name,
                       [w for p in phases for w in p.windows],
                       [o for p in phases for o in p.outcomes])


class NdjsonClient:
    """Several connections to one server, answers matched by request id."""

    def __init__(self):
        self._conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._readers: List[asyncio.Task] = []
        self._pending: Dict[str, asyncio.Future] = {}
        self._ids = itertools.count()

    async def connect(self, host: str, port: int, n: int) -> "NdjsonClient":
        for _ in range(n):
            reader, writer = await asyncio.open_connection(host, port)
            self._conns.append((reader, writer))
            self._readers.append(asyncio.get_running_loop().create_task(
                self._read(reader)))
        return self

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            done = time.perf_counter()
            message = json.loads(line)
            future = self._pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result((done, message))
        # Connection closed: nothing outstanding on it will be answered.
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(ConnectionError("connection closed"))

    def send(self, conn: int, op: str, params: dict) -> asyncio.Future:
        """Write one request; the future resolves to (answer time, message)."""
        request_id = f"r{next(self._ids)}"
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        _, writer = self._conns[conn % len(self._conns)]
        writer.write((json.dumps({"id": request_id, "op": op,
                                  "params": params}) + "\n").encode())
        return future

    async def call(self, conn: int, op: str, params: dict,
                   timeout: float) -> dict:
        _, message = await asyncio.wait_for(
            self.send(conn, op, params), timeout)
        return message

    async def close(self) -> None:
        for _, writer in self._conns:
            writer.close()
        for _, writer in self._conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for future in self._pending.values():
            future.cancel()
        self._pending.clear()


async def _settle(outcome: Outcome, future: asyncio.Future,
                  timeout: float) -> None:
    try:
        done, message = await asyncio.wait_for(future, timeout)
    except (asyncio.TimeoutError, ConnectionError):
        return
    outcome.done = done
    outcome.ok = bool(message.get("ok"))
    outcome.response = message


async def open_loop(client: NdjsonClient, name: str, rate: float,
                    duration: float, make_request: Callable[[int], Request],
                    n_conns: int, grace_s: float) -> PhaseResult:
    """Send on the :func:`due_times` schedule; wait ``grace_s`` past the
    last due time for the stragglers."""
    start = time.perf_counter() + 0.01
    end = start + duration
    schedule = due_times(start, rate, duration)
    phase = PhaseResult(name, [(start, end)])
    waits = []
    for i, due in enumerate(schedule):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        request = make_request(i)
        outcome = Outcome(due=due, request=request)
        outcome.sent = time.perf_counter()
        future = client.send(i % n_conns, *request)
        phase.outcomes.append(outcome)
        waits.append(asyncio.ensure_future(_settle(
            outcome, future, max(0.0, end + grace_s - outcome.sent))))
    await asyncio.gather(*waits)
    return phase


async def closed_loop(client: NdjsonClient, name: str, callers: int,
                      duration: float, make_request: Callable[[int], Request],
                      n_conns: int, grace_s: float) -> PhaseResult:
    """``callers`` tasks, each waiting for its answer before sending again.

    A request counts when it was sent inside the phase; its latency is
    timed from its send, which is its due time in a closed loop.
    """
    start = time.perf_counter()
    end = start + duration
    phase = PhaseResult(name, [(start, end)])
    counter = itertools.count()

    async def caller(k: int) -> None:
        while time.perf_counter() < end:
            request = make_request(next(counter))
            now = time.perf_counter()
            outcome = Outcome(due=now, sent=now, request=request)
            phase.outcomes.append(outcome)
            await _settle(outcome, client.send(k % n_conns, *request),
                          max(0.0, end + grace_s - now))
            if not outcome.ok:
                return

    await asyncio.gather(*(caller(k) for k in range(callers)))
    return phase


def completed_in(phase: PhaseResult) -> int:
    """Successful answers that arrived inside one of the phase's windows."""
    return sum(1 for o in phase.outcomes
               if o.ok and any(s <= o.done <= e for s, e in phase.windows))


def lateness_ms(phases: Sequence[PhaseResult]) -> List[float]:
    return sorted(1000.0 * o.lateness for p in phases for o in p.outcomes)
