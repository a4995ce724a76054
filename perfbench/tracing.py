"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` replaces public module attributes of rlgames with timing
wrappers and puts the originals back on :meth:`Tracer.uninstall`. Coarse
calls become spans (name, start, end, parent, thread); per-step calls,
which would flood the span list, only add to a (count, seconds) counter.
Spans stay in memory until the run writes them out.

A wrapped name that the program no longer has is recorded in
``Tracer.missing`` instead of raising, so a refactor that removes it shows
as a missing span, not as a broken benchmark.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    child_s: float = 0.0  # time covered by child spans
    facts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, facts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.facts = facts
        self._stack().pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_s += span.seconds

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # --- wrapping --------------------------------------------------------

    def wrap(self, module_name: str, attr: str, facts=None, counter_key=None):
        """Replace module.attr with a traced wrapper.

        `facts(args, kwargs, result)` returns a dict stored on the span.
        With `counter_key(args)`, calls only add to the counter of that key.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in self.missing:
                self.missing.append(f"{module_name}.{attr}")
            return
        name = f"{module_name.removeprefix('rlgames.')}.{attr}"

        if counter_key is not None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    key = f"{name}.{counter_key(args)}"
                    with self._lock:
                        entry = self.counters.setdefault(key, [0, 0.0])
                        entry[0] += 1
                        entry[1] += dt
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = self.open(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    self.close(index, facts(args, kwargs, result) if facts else None)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- summaries -------------------------------------------------------

    def total(self, *names: str, self_time: bool = False) -> float:
        return sum(
            s.self_seconds if self_time else s.seconds
            for s in self.spans if s.name in names
        )

    def fact_sum(self, key: str, *names: str) -> float:
        return sum(
            (s.facts or {}).get(key, 0) for s in self.spans if s.name in names
        )

    def dump(self) -> dict:
        return {
            "missing": self.missing,
            "counters": {k: {"calls": c, "seconds": t} for k, (c, t) in self.counters.items()},
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "thread": s.thread, "self_s": s.self_seconds, "facts": s.facts}
                for s in self.spans
            ],
        }
