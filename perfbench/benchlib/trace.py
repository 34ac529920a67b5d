"""Runtime span tracing for the benchmark's traced runs.

:class:`SpanRecorder` keeps every span in memory; :func:`write_spans`
writes them out once, when the run ends.  :class:`Instrumentation`
wraps public callables of the program with span-recording shims and
removes every shim again on :meth:`Instrumentation.uninstall`, so an
untraced measurement after a traced one runs the unmodified code.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the
enclosing span on the same thread (or None), ``attrs`` an optional dict
an observer attached after the call returned.  Spans on one thread nest
strictly, so a span's self time is its duration minus the durations of
its direct children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Attribute marking a shim; holds the wrapped original.
WRAPPED = "__perfbench_original__"

#: Module-name prefix whose globals are searched for references to a
#: wrapped function (``from x import f`` copies the reference).
PROGRAM_PREFIX = "repro"

Observer = Callable[[tuple, dict, Any], Optional[dict]]


class SpanRecorder:
    """Collects spans in memory for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._local = threading.local()

    def stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self.stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
        stack.append(span)
        span[1] = self.clock()
        try:
            yield span
        finally:
            span[2] = self.clock()
            stack.pop()
            self.spans.append(span)


@dataclass(frozen=True)
class Target:
    """One callable to time: ``module`` + dotted ``attr`` -> span ``name``.

    ``observe(args, kwargs, result)`` may return a dict stored on the
    span (counts such as batch size or cache hit).
    """

    module: str
    attr: str
    name: str
    observe: Optional[Observer] = None


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PROGRAM_PREFIX
                                  or name.startswith(PROGRAM_PREFIX + "."))]


class Instrumentation:
    """Installs span shims around :class:`Target` callables; undoes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: List[tuple] = []   # (owner, attr, original, owned)

    def install(self, targets: Iterable[Target]) -> "Instrumentation":
        try:
            for target in targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        # A module imported while shims were live may have copied one
        # with ``from x import f``; point it back at the original.
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, WRAPPED, None) \
                    if callable(value) else None
                if original is not None:
                    setattr(module, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _install_one(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        owner: Any = module
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = next((k.__dict__[attr] for k in owner.__mro__
                        if attr in k.__dict__), None)
            if raw is None:
                raise AttributeError(f"{target.module}.{target.attr}")
            if isinstance(raw, (classmethod, staticmethod)):
                shim = type(raw)(self._wrap(raw.__func__, target))
            else:
                shim = self._wrap(raw, target)
            self._patches.append((owner, attr, raw, attr in owner.__dict__))
            setattr(owner, attr, shim)
            return
        original = getattr(owner, attr)
        shim = self._wrap(original, target)
        for mod in _program_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original, True))
                    setattr(mod, name, shim)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self.recorder
        spans = recorder.spans
        stack_of = recorder.stack
        clock = recorder.clock
        name = target.name
        observe = target.observe

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        setattr(shim, WRAPPED, fn)
        return shim


def live_shims() -> List[str]:
    """Names of program-module globals and class attributes still shimmed."""
    found = []
    for module in _program_modules():
        for attr, value in list(vars(module).items()):
            if callable(value) and getattr(value, WRAPPED, None) is not None:
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    func = getattr(member, "__func__", member)
                    if getattr(func, WRAPPED, None) is not None:
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


# -- analysis ----------------------------------------------------------


def self_times(spans: Iterable[list]) -> Dict[str, List[float]]:
    """Per span name: ``[self seconds, calls, total seconds]``.

    Self time is a span's duration minus the time its direct children
    cover.  Children of one span run on its thread, strictly nested and
    one after another, so their durations add without overlap.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            covered[id(parent)] = covered.get(id(parent), 0.0) \
                + (span[2] - span[1])
    out: Dict[str, List[float]] = {}
    for span in spans:
        duration = span[2] - span[1]
        row = out.setdefault(span[0], [0.0, 0, 0.0])
        row[0] += duration - covered.get(id(span), 0.0)
        row[1] += 1
        row[2] += duration
    return out


def write_spans(path, spans: Iterable[list]) -> int:
    """Write spans as JSON lines (``id``, ``name``, ``start``, ``end``,
    ``parent``, ``attrs``); returns the number written."""
    spans = list(spans)
    ids = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": name, "start": start, "end": end,
                # A parent still open when writing has no id: treat the
                # child as a root rather than fail the dump.
                "parent": None if parent is None else ids.get(id(parent)),
                "attrs": attrs,
            }) + "\n")
    return len(spans)


def read_spans(path) -> List[list]:
    """Inverse of :func:`write_spans`: spans with parent links restored."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rows.append(json.loads(line))
    spans = [[r["name"], r["start"], r["end"], None, r["attrs"]] for r in rows]
    for span, row in zip(spans, rows):
        if row["parent"] is not None:
            span[3] = spans[row["parent"]]
    return spans
