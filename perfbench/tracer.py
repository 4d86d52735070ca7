"""Spans and counters recorded from outside the package.

The tracer replaces a function where its caller looks it up (a module
global such as ``qubitfeedback.cli.run_batch``, or a class attribute such
as ``ValueGrid.save``) with a wrapper that times the call, and puts the
original back afterwards.  Nothing under ``src/`` changes.

Each wrapped call is a span.  Spans are timed in CPU seconds of this
process (``time.process_time``), the clock the benchmark reports.  A
span's self time is its duration minus the durations of the spans it
called, so the self times of all spans, the root span's self time and
``hook_s`` add up to the traced operation's time.  Counter hooks run after
the span closes; their cost is booked as ``hook_s`` (part of the tracing
overhead) and kept out of every layer's self time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import process_time


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.hook_s = 0.0
        self.root_self_s = 0.0

    # -- spans ------------------------------------------------------------

    def span(self, layer: str, fn, hook=None, wrap_result=None):
        """Return ``fn`` wrapped as a span named ``layer``.

        ``hook(args, kwargs, result)`` updates counters; ``wrap_result``
        may replace the result (used to trace a returned policy callable).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = process_time() - t0
                tracer._stack.pop()
                tracer._stack[-1][0] += elapsed
                tracer.inclusive[layer] += elapsed
                tracer.self_time[layer] += elapsed - frame[0]
                tracer.calls[layer] += 1
            if hook is not None or wrap_result is not None:
                h0 = process_time()
                if hook is not None:
                    hook(args, kwargs, result)
                if wrap_result is not None:
                    result = wrap_result(result)
                spent = process_time() - h0
                tracer.hook_s += spent
                tracer._stack[-1][0] += spent
            return result

        return traced

    def run_root(self, op):
        """Run ``op()`` as the root span; returns (result, CPU seconds)."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = process_time()
        try:
            result = op()
        finally:
            spent = process_time() - t0
            self._stack.pop()
        self.root_self_s += spent - frame[0]
        return result, spent

    # -- counters ---------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.counts[name] += float(value)

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts[name], float(value))

    # -- patching ---------------------------------------------------------

    def patch(self, owner, name: str, layer: str, hook=None, wrap_result=None,
              optional: bool = False) -> None:
        """Wrap ``owner.name`` (module global or class attribute) as a span.

        ``optional`` names may be absent, for private helpers a refactor
        is free to remove; their metrics then read 0.
        """
        raw = vars(owner).get(name)
        if raw is None:
            if optional:
                return
            raise AttributeError(f"{getattr(owner, '__name__', owner)} has no {name!r}")
        if isinstance(raw, classmethod):
            new = staticmethod(self.span(layer, getattr(owner, name), hook, wrap_result))
        else:
            new = self.span(layer, raw, hook, wrap_result)
        setattr(owner, name, new)
        self._undo.append((owner, name, raw))

    def wrap_factory(self, owner, name: str, wrap_result) -> None:
        """Pass what ``owner.name`` returns through ``wrap_result``, untimed."""
        raw = vars(owner)[name]

        @functools.wraps(raw)
        def factory(*args, **kwargs):
            return wrap_result(raw(*args, **kwargs))

        setattr(owner, name, factory)
        self._undo.append((owner, name, raw))

    def restore(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)
