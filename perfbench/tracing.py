"""Spans around the calls into permspec's layers, recorded from outside.

``Tracer.patch`` wraps public functions of the package and rebinds every
module-level name in the package that refers to them, so the program
keeps calling its stages in its own order and the spans show what it
really does.  Durations are aggregated per span name: calls, inclusive
time and the time covered by child spans (so self time is the
difference), all in process CPU time.  For the functions named in
``memory``, the first call with each distinct set of argument shapes
runs under tracemalloc to record the largest peak allocation; those
durations include that cost, so memory and time come from separate
tracers.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    peak_bytes: int = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _shapes(args) -> tuple:
    """What a call's allocations depend on: array shapes and integer sizes."""
    return tuple(getattr(arg, "shape", arg) for arg in args if isinstance(arg, int) or hasattr(arg, "shape"))


class Tracer:
    """Per-span statistics; ``observers`` maps a span name to a callable
    ``(args, kwargs, result)`` run after each call of that span."""

    def __init__(self, memory=()):
        self.stats: dict[str, SpanStats] = {}
        self.memory = frozenset(memory)
        self._open: list[float] = []  # child time accumulated by each open span
        self.observers: dict[str, object] = {}

    def span(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name: str, function):
        stats = self.span(name)
        open_spans = self._open
        sample_memory = name in self.memory
        sampled = set()

        def traced(*args, **kwargs):
            measure = sample_memory and _shapes(args) not in sampled and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            open_spans.append(0.0)
            start = time.process_time()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.process_time() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += children
                if measure:
                    stats.peak_bytes = max(stats.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    sampled.add(_shapes(args))
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patch(self, targets: dict[str, object]):
        """Trace ``targets`` (span name -> function) for the duration.

        Every module of the package that bound one of the functions at
        import (``from .x import f``) gets the wrapper too.
        """
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in targets.items()}
        replaced = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "permspec" or module_name.startswith("permspec.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    replaced.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)
