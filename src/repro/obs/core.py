"""In-process telemetry registry: nested timing spans, counters, gauges.

The sweep engine's hot paths (chip solves, the spin/lock fixed
point, the run cache) report what they are doing through one process-wide
:class:`Tracer`.  Three design rules keep it safe to leave in place:

* **Off by default, near-zero overhead when off.**  Every recording
  method starts with an ``enabled`` check and returns immediately;
  :meth:`Tracer.span` hands back a shared no-op context manager, so a
  disabled tracer costs one attribute load and one branch per call site.
  Call sites that would do *any* extra work to build attributes guard on
  ``tracer.enabled`` themselves.
* **Aggregate in process, stream spans out.**  Counters and gauges live
  in plain dicts and are only serialized on :meth:`Tracer.flush`; span
  events stream to the sink as they close (a sweep emits tens of spans,
  not thousands).
* **Stdlib only.**  ``repro.obs`` sits below every other layer of the
  package — the simulator imports it, never the reverse — so the core
  and sink must not pull in numpy or any ``repro`` sibling (the
  :mod:`repro.obs.stats` reporter may use :mod:`repro.util`).

Enable globally with the ``REPRO_TELEMETRY`` environment variable (any
of ``1/on/true/yes``); events then land in a timestamped JSONL file
under ``results/.telemetry/`` (relocate with ``REPRO_TELEMETRY_DIR``).
Programmatic control — used by ``repro run --telemetry`` and the bench
scripts — goes through :func:`configure`.
"""

from __future__ import annotations

import atexit
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

#: Environment switches.
ENV_TELEMETRY = "REPRO_TELEMETRY"        # truthy value enables the global tracer
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"

DEFAULT_TELEMETRY_DIR = Path("results") / ".telemetry"

_TRUTHY = {"1", "on", "true", "yes"}

#: Spans kept in memory per tracer; beyond this they still stream to the
#: sink but are dropped from the snapshot (counted in ``obs.spans_dropped``).
MAX_RETAINED_SPANS = 65536


def telemetry_enabled_by_env() -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for telemetry."""
    return os.environ.get(ENV_TELEMETRY, "").strip().lower() in _TRUTHY


def default_telemetry_dir() -> Path:
    return Path(os.environ.get(ENV_TELEMETRY_DIR, str(DEFAULT_TELEMETRY_DIR)))


def default_telemetry_path() -> Path:
    """A fresh timestamped JSONL path under the default directory."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return default_telemetry_dir() / f"telemetry-{stamp}-{os.getpid()}.jsonl"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as kept in the registry and emitted as JSONL."""

    name: str                      # last path segment
    path: str                      # "/"-joined ancestry, e.g. "sweep/simulate"
    start_s: float                 # monotonic offset from tracer creation
    duration_s: float
    depth: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_event(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """An open timing span; use as a context manager via :meth:`Tracer.span`.

    Nesting is tracked on the owning tracer's stack: the span's path is
    its parent's path plus its own name, so a sweep's trace reads as a
    tree without the call sites passing any context around.
    """

    __slots__ = ("_tracer", "name", "attrs", "path", "depth", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.path = name
        self.depth = 0
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        if stack:
            parent = stack[-1]
            self.path = f"{parent.path}/{self.name}"
            self.depth = parent.depth + 1
        stack.append(self)
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = self._tracer._clock() - self._t0
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # mis-nested exit; drop back to this frame
            del stack[stack.index(self):]
        self._tracer._finish(self, duration)
        return False


class Tracer:
    """Process-wide telemetry registry.

    ``enabled`` gates every recording method.  A sink (anything with
    ``emit(dict)``, ``flush()``, ``close()`` — see
    :class:`repro.obs.sink.JsonlSink`) receives span events as they
    close and aggregated counter/gauge events on :meth:`flush`.
    """

    def __init__(
        self,
        enabled: bool = False,
        sink=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.enabled = enabled
        self._sink = sink
        self._clock = clock
        self._origin = clock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._spans: List[SpanRecord] = []
        self._stack: List[Span] = []

    # -- recording ----------------------------------------------------

    def span(self, name: str, **attrs) -> Union[Span, _NullSpan]:
        """A context manager timing ``name``; no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` (monotone accumulation)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of ``name`` (last write wins)."""
        if not self.enabled:
            return
        self._gauges[name] = float(value)

    def _finish(self, span: Span, duration: float) -> None:
        record = SpanRecord(
            name=span.name,
            path=span.path,
            start_s=span._t0 - self._origin,
            duration_s=duration,
            depth=span.depth,
            attrs=dict(span.attrs),
        )
        if len(self._spans) < MAX_RETAINED_SPANS:
            self._spans.append(record)
        else:
            self._counters["obs.spans_dropped"] = (
                self._counters.get("obs.spans_dropped", 0.0) + 1.0
            )
        if self._sink is not None:
            self._sink.emit(record.to_event())

    # -- snapshot API -------------------------------------------------

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def spans(self) -> List[SpanRecord]:
        return list(self._spans)

    def snapshot(self) -> Dict[str, Any]:
        """The registry's current state as plain data (JSON-ready)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "spans": [s.to_event() for s in self._spans],
        }

    def reset(self) -> None:
        """Clear counters, gauges and retained spans (open spans survive)."""
        self._counters.clear()
        self._gauges.clear()
        self._spans.clear()

    # -- sink lifecycle -----------------------------------------------

    def flush(self) -> None:
        """Emit aggregated counters/gauges to the sink and flush it."""
        if self._sink is None:
            return
        for name in sorted(self._counters):
            self._sink.emit(
                {"type": "counter", "name": name, "value": self._counters[name]}
            )
        for name in sorted(self._gauges):
            self._sink.emit(
                {"type": "gauge", "name": name, "value": self._gauges[name]}
            )
        self._sink.flush()

    def close(self) -> None:
        self.flush()
        if self._sink is not None:
            self._sink.close()
            self._sink = None


#: The process-wide tracer, created lazily so importing ``repro`` never
#: touches the filesystem.  ``None`` until first use.
_GLOBAL: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The global tracer; honours ``REPRO_TELEMETRY`` on first call."""
    global _GLOBAL
    if _GLOBAL is None:
        if telemetry_enabled_by_env():
            from repro.obs.sink import JsonlSink

            _GLOBAL = Tracer(enabled=True, sink=JsonlSink(default_telemetry_path()))
            atexit.register(_GLOBAL.close)
        else:
            _GLOBAL = Tracer(enabled=False)
    return _GLOBAL


def detach_in_subprocess(enabled: bool = True) -> Tracer:
    """Install a fresh global tracer in a forked/spawned child process.

    A forked worker inherits the parent's tracer *object* — including
    any open JSONL sink file descriptor, which two processes must never
    share (interleaved writes corrupt the stream, and a child ``close()``
    would flush the parent's buffer).  Call this first thing in the
    child: the inherited tracer is abandoned untouched (the parent keeps
    its sink) and replaced with a sink-less in-process tracer.

    ``enabled=True`` (the default) keeps counters accumulating in the
    child so a worker can ship counter *deltas* back to its dispatcher —
    how the serving tier's ``serve.worker.*`` accounting stays complete
    across process boundaries.
    """
    global _GLOBAL
    _GLOBAL = Tracer(enabled=enabled)
    return _GLOBAL


def configure(
    enabled: Optional[bool] = None,
    sink_path: Optional[os.PathLike] = None,
    sink=None,
) -> Tracer:
    """Reconfigure the global tracer; returns it.

    ``sink_path`` opens a :class:`~repro.obs.sink.JsonlSink` at that
    path (replacing and closing any current sink); ``sink`` installs an
    arbitrary sink object; passing neither leaves the sink alone.
    Enabling with no sink keeps telemetry purely in-process — the mode
    the bench scripts use to read counters without touching disk.
    """
    tracer = get_tracer()
    if sink_path is not None and sink is not None:
        raise ValueError("pass sink_path or sink, not both")
    if sink_path is not None:
        from repro.obs.sink import JsonlSink

        sink = JsonlSink(sink_path)
    if sink is not None:
        if tracer._sink is not None:
            tracer.close()
        tracer._sink = sink
    if enabled is not None:
        tracer.enabled = enabled
    return tracer
