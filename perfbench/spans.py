"""Span recorder for the traced benchmark run.

The package has no tracing of its own, so the traced run wraps public
functions at the names their callers look them up under: ``from x import f``
copies a binding into the caller's module, so wrapping ``x.f`` alone would
miss it.  Every wrapper is removed again by :meth:`Recorder.restore`.

Spans are kept in memory and aggregated after the run.  Counters (matrix
shape, non-zeros, pivot degrees) are computed after the wrapped call returns,
and the time spent computing them is subtracted from every enclosing span, so
span clocks measure only the package's own work.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """Collects spans ``[name, parent, start, end, paused_start, paused_end, counters]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._paused = 0.0  # bookkeeping time, excluded from every open span
        self._restore: list[tuple] = []
        self.binding_calls: dict = defaultdict(int)  # "module.attr" -> calls while active

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, count=None):
        if not self.active:
            return fn(*args, **kwargs)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self._paused, 0.0, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[2] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = _clock()
            span[5] = self._paused
            self._stack.pop()
        if count is not None:
            span[6] = count(args, result)
            self._paused += _clock() - span[3]
        return result

    def pause(self, seconds: float) -> None:
        """Take ``seconds`` of foreign work out of every open span."""
        self._paused += seconds

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, by_caller=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``by_caller`` maps the calling module's ``__name__`` to a different
        span name, for a binding that several modules reach through one name.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.active:
                recorder.binding_calls[label] += 1
            span_name = name
            if by_caller:
                span_name = by_caller.get(sys._getframe(1).f_globals.get("__name__"), name)
            return recorder.call(span_name, original, args, kwargs, count)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every original binding back; True if all are back in place."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._restore
        )
        self._restore.clear()
        return ok

    # -- aggregation ---------------------------------------------------------

    def totals(self):
        """Per span name: (seconds, calls, self seconds, summed counters).

        A span nested inside a span of the same name (``RowSpace.add`` calls
        ``RowSpace.reduce``) is folded into the outer one.
        """
        spans = self.spans
        dur = [(s[3] - s[2]) - (s[5] - s[4]) for s in spans]
        child_time = [0.0] * len(spans)
        outer = [True] * len(spans)
        for i, s in enumerate(spans):
            parent = s[1]
            if parent >= 0:
                child_time[parent] += dur[i]
            while parent >= 0:
                if spans[parent][0] == s[0]:
                    outer[i] = False
                    break
                parent = spans[parent][1]
        seconds = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counters: dict = defaultdict(lambda: defaultdict(int))
        for i, s in enumerate(spans):
            self_s[s[0]] += dur[i] - child_time[i]
            if not outer[i]:
                continue
            seconds[s[0]] += dur[i]
            calls[s[0]] += 1
            for key, value in (s[6] or {}).items():
                if key.startswith("max_"):
                    counters[s[0]][key] = max(counters[s[0]][key], value)
                else:
                    counters[s[0]][key] += value
        return seconds, calls, self_s, counters
