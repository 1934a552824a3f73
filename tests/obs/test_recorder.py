"""Unit semantics of the span recorders (fake clock, no kernel).

The deterministic clock makes every duration exact, so these tests pin
the arithmetic contract the benchmarks rely on: self times partition
the trace, ``close_to`` unwinds cleanly, and the Chrome export survives
a JSON round trip.
"""

import json
import tracemalloc

from repro.obs import NULL_RECORDER, NullRecorder, Recorder, TraceRecorder


class FakeClock:
    """Returns pre-seeded nanosecond readings in order."""

    def __init__(self, *readings):
        self._readings = list(readings)

    def __call__(self):
        return self._readings.pop(0)


class TestTraceRecorder:
    def test_single_span_duration(self):
        rec = TraceRecorder(clock=FakeClock(100, 350))
        rec.begin("mac-check", "verify")
        rec.end()
        (span,) = rec.spans
        assert span.name == "mac-check"
        assert span.cat == "verify"
        assert span.start_ns == 100
        assert span.dur_ns == 250
        assert span.self_ns == 250
        assert span.depth == 0

    def test_nested_spans_self_time(self):
        # parent [0..1000], child [200..500]: parent self = 700.
        rec = TraceRecorder(clock=FakeClock(0, 200, 500, 1000))
        rec.begin("syscall-verify", "verify")
        rec.begin("mac-check", "verify")
        rec.end()
        rec.end()
        by_name = {s.name: s for s in rec.spans}
        assert by_name["mac-check"].dur_ns == 300
        assert by_name["mac-check"].depth == 1
        assert by_name["syscall-verify"].dur_ns == 1000
        assert by_name["syscall-verify"].self_ns == 700
        assert by_name["syscall-verify"].depth == 0

    def test_self_times_partition_root_duration(self):
        # Three levels plus a sibling; the partition identity must hold
        # exactly, not approximately.
        rec = TraceRecorder(
            clock=FakeClock(0, 10, 20, 40, 70, 100, 130, 150, 180, 200)
        )
        rec.begin("execute", "engine")
        rec.begin("syscall-verify", "verify")
        rec.begin("policy-decode", "verify")
        rec.end()
        rec.begin("mac-check", "verify")
        rec.end()
        rec.end()
        rec.begin("block-compile", "engine")
        rec.end()
        rec.end()
        assert rec.open_spans == 0
        assert sum(s.self_ns for s in rec.spans) == rec.total_traced_ns() == 200

    def test_stage_totals_aggregate_across_instances(self):
        rec = TraceRecorder(clock=FakeClock(0, 5, 10, 35))
        rec.begin("mac-check", "verify")
        rec.end()
        rec.begin("mac-check", "verify")
        rec.end()
        totals = rec.stage_totals()
        assert totals["mac-check"]["count"] == 2
        assert totals["mac-check"]["total_ns"] == 5 + 25
        assert totals["mac-check"]["self_ns"] == 5 + 25
        assert totals["mac-check"]["cat"] == "verify"

    def test_close_to_unwinds_to_depth(self):
        rec = TraceRecorder(clock=FakeClock(0, 1, 2, 3, 4, 5))
        rec.begin("execute", "engine")
        depth = rec.open_spans
        rec.begin("syscall-verify", "verify")
        rec.begin("string-auth", "verify")
        rec.close_to(depth)  # simulated AuthViolation unwind
        assert rec.open_spans == depth
        assert {s.name for s in rec.spans} == {"syscall-verify", "string-auth"}
        rec.end()
        assert rec.open_spans == 0

    def test_chrome_trace_round_trip(self):
        rec = TraceRecorder(clock=FakeClock(1000, 3000, 5000, 9000))
        rec.begin("execute", "engine")
        rec.begin("mac-check", "verify")
        rec.end()
        rec.end()
        doc = json.loads(json.dumps(rec.chrome_trace({"engine.syscalls": 3})))
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        # Sorted by start; microsecond units.
        assert [e["name"] for e in xs] == ["execute", "mac-check"]
        assert xs[0]["ts"] == 1.0 and xs[0]["dur"] == 8.0
        assert xs[1]["ts"] == 3.0 and xs[1]["dur"] == 2.0
        (counter_event,) = [e for e in events if e["ph"] == "C"]
        assert counter_event["args"] == {"engine.syscalls": 3}
        assert doc["counters"] == {"engine.syscalls": 3}
        # The recorder holds no counters of its own.
        bare = rec.chrome_trace()
        assert bare["counters"] == {}
        assert all(e["ph"] == "X" for e in bare["traceEvents"])

    def test_write_chrome_trace(self, tmp_path):
        rec = TraceRecorder(clock=FakeClock(0, 10))
        rec.begin("execute", "engine")
        rec.end()
        out = tmp_path / "trace.json"
        rec.write_chrome_trace(out)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"][0]["name"] == "execute"


class TestNullRecorder:
    def test_satisfies_protocol(self):
        assert isinstance(NULL_RECORDER, Recorder)
        assert isinstance(TraceRecorder(), Recorder)

    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        assert rec.begin("x", "y") is None
        assert rec.end() is None
        assert rec.close_to(0) is None
        assert rec.open_spans == 0

    def test_no_allocations_on_hot_path(self):
        """The off-state contract: NullRecorder method calls allocate
        nothing, so leaving instrumentation unguarded in warm code can
        never create GC pressure."""
        rec = NULL_RECORDER
        # Warm up any lazy interpreter state (method cache, etc.).
        for _ in range(100):
            if rec.enabled:
                rec.begin("syscall-verify", "verify")
                rec.end()
            rec.begin("execute", "engine")  # unguarded: still a no-op
            rec.end()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            if rec.enabled:
                rec.begin("syscall-verify", "verify")
                rec.end()
            rec.begin("execute", "engine")  # unguarded: still a no-op
            rec.end()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        here = tracemalloc.Filter(True, __file__)
        grown = sum(
            stat.size_diff
            for stat in after.filter_traces([here]).compare_to(
                before.filter_traces([here]), "lineno"
            )
            if stat.size_diff > 0
        )
        # Per-iteration allocation over 1000 iterations would show as
        # tens of kilobytes; allow a single transient object of slack.
        assert grown < 100, (
            f"NullRecorder hot path allocated {grown} bytes over 1000 calls"
        )
