"""Observability: verification-stage tracing and runtime metrics.

The paper's evaluation (Tables 4–6) is an argument about *where*
verification time goes — call-MAC check, string-argument MACs, the
online memory checker, policy decoding — so the repro needs the same
decomposition to be measurable, not just assertable.  This package is
the cross-cutting layer that provides it:

- :class:`Recorder` — the protocol the kernel, both CPU engines, and
  the auth checker are instrumented against.
- :class:`NullRecorder` / :data:`NULL_RECORDER` — the default.  The
  contract is *zero overhead when off*: every instrumentation point
  first reads ``recorder.enabled`` (a plain class attribute, ``False``)
  and skips the call entirely, so the hot syscall path pays one
  attribute load + branch per stage and performs no allocations.
- :class:`TraceRecorder` — captures nested spans (per-syscall
  verification stages, engine block-compile/block-chain/execute) with exact
  self-time accounting, exportable as Chrome ``trace_event`` JSON.  It
  holds no counters: the export takes a registry snapshot.
- :class:`MetricsRegistry` — the kernel's counter registry and the
  only place a counter lives (fast-path hits and misses, thunk
  compiles, blocks compiled and evicted, chain links, superblocks,
  guest instructions retired, scheduler and loopback-network events,
  ...).  ``repro run --stats``, ``repro metrics`` (a Prometheus-style
  text dump) and ``repro run --trace`` all read it.

See DESIGN.md "Observability" for the architecture and the overhead
contract.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    SpanRecord,
    TraceRecorder,
)

__all__ = [
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TraceRecorder",
]
