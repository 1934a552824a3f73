"""Span recorders: the tracing half of the observability layer.

A *span* is one timed interval with a name and a category — one
syscall-verification stage, one basic-block compilation, one engine
execution loop.  Spans nest strictly (``begin``/``end`` pairs on a
stack, single-threaded like the simulator itself), and the recorder
tracks both inclusive duration and *self time* (inclusive minus
children), so per-stage totals partition the traced wall clock exactly:
the sum of every span's self time equals the sum of the root spans'
inclusive times by construction.

Two implementations:

- :class:`NullRecorder` — ``enabled`` is ``False``; instrumentation
  points check that flag and skip the call, so the off state costs one
  attribute load + branch and allocates nothing.  Its methods are
  no-ops so even an unguarded call is harmless.
- :class:`TraceRecorder` — records spans with ``perf_counter_ns`` (or
  an injected clock for deterministic tests) and exports Chrome
  ``trace_event`` JSON (load it at ``chrome://tracing`` or
  https://ui.perfetto.dev) plus per-stage aggregates.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Callable, Mapping, Optional, Protocol, runtime_checkable


@runtime_checkable
class Recorder(Protocol):
    """What instrumented code sees.

    The contract every instrumentation point follows::

        rec = self._recorder
        if rec.enabled:          # False for NullRecorder: skip entirely
            rec.begin("mac-check", "verify")
        ...hot work...
        if rec.enabled:
            rec.end()

    ``close_to`` exists so exception paths (an
    :class:`~repro.kernel.auth.AuthViolation` mid-check) can unwind the
    span stack to a known depth in one ``finally``.
    """

    enabled: bool

    def begin(self, name: str, cat: str) -> None: ...

    def end(self) -> None: ...

    @property
    def open_spans(self) -> int: ...

    def close_to(self, depth: int) -> None: ...


class NullRecorder:
    """The default recorder: off, free, allocation-free."""

    enabled = False

    def begin(self, name: str, cat: str) -> None:
        return None

    def end(self) -> None:
        return None

    @property
    def open_spans(self) -> int:
        return 0

    def close_to(self, depth: int) -> None:
        return None


#: Shared default instance — holding a singleton means "no recorder"
#: costs no per-kernel or per-VM allocation either.
NULL_RECORDER = NullRecorder()


class SpanRecord:
    """One completed span."""

    __slots__ = ("name", "cat", "start_ns", "dur_ns", "self_ns", "depth")

    def __init__(self, name, cat, start_ns, dur_ns, self_ns, depth):
        self.name = name
        self.cat = cat
        self.start_ns = start_ns
        self.dur_ns = dur_ns
        self.self_ns = self_ns
        self.depth = depth

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, cat={self.cat!r}, depth={self.depth}, "
            f"dur={self.dur_ns}ns, self={self.self_ns}ns)"
        )


class TraceRecorder:
    """Captures spans for one (or several) kernel runs.

    ``clock`` must be a zero-argument callable returning integer
    nanoseconds; tests inject a fake for determinism.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self._clock = clock or perf_counter_ns
        #: Open-span stack: [name, cat, start_ns, child_ns] frames.
        self._stack: list[list] = []
        self.spans: list[SpanRecord] = []

    # -- span API --------------------------------------------------------

    def begin(self, name: str, cat: str) -> None:
        self._stack.append([name, cat, self._clock(), 0])

    def end(self) -> None:
        now = self._clock()
        name, cat, start, child = self._stack.pop()
        dur = now - start
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append(
            SpanRecord(name, cat, start, dur, dur - child, len(self._stack))
        )

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def close_to(self, depth: int) -> None:
        """Close every span opened above ``depth`` (exception unwind)."""
        while len(self._stack) > depth:
            self.end()

    # -- aggregates ------------------------------------------------------

    def stage_totals(self) -> dict[str, dict]:
        """Per-span-name aggregates: inclusive total, self time, count.

        Self times partition the trace: summing ``self_ns`` over every
        stage reproduces the inclusive time of the root spans exactly.
        """
        totals: dict[str, dict] = {}
        for span in self.spans:
            entry = totals.setdefault(
                span.name,
                {"cat": span.cat, "count": 0, "total_ns": 0, "self_ns": 0},
            )
            entry["count"] += 1
            entry["total_ns"] += span.dur_ns
            entry["self_ns"] += span.self_ns
        return totals

    def total_traced_ns(self) -> int:
        """Inclusive nanoseconds under root (depth-0) spans."""
        return sum(s.dur_ns for s in self.spans if s.depth == 0)

    # -- export ----------------------------------------------------------

    def chrome_trace(self, counters: Optional[Mapping[str, int]] = None) -> dict:
        """The capture as a Chrome ``trace_event`` JSON object.

        Spans become complete ("X") events with microsecond timestamps.
        ``counters`` (a kernel's ``metrics.snapshot()``) rides along both
        as a final counter ("C") event and as a top-level ``counters``
        key (tooling-friendly; trace viewers ignore unknown top-level
        keys); without it the ``counters`` key is empty.
        """
        counters = dict(sorted((counters or {}).items()))
        events = []
        for span in sorted(self.spans, key=lambda s: (s.start_ns, -s.dur_ns)):
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": span.start_ns / 1000.0,
                    "dur": span.dur_ns / 1000.0,
                    "pid": 1,
                    "tid": 1,
                }
            )
        if counters:
            end_ts = max(
                (s.start_ns + s.dur_ns for s in self.spans), default=0
            ) / 1000.0
            events.append(
                {
                    "name": "counters",
                    "ph": "C",
                    "ts": end_ts,
                    "pid": 1,
                    "tid": 1,
                    "args": counters,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "counters": counters,
        }

    def write_chrome_trace(
        self, path, counters: Optional[Mapping[str, int]] = None
    ) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(counters), handle, indent=1)
            handle.write("\n")
