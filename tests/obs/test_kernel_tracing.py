"""End-to-end observability: a traced kernel run must produce a
well-nested span tree whose counters agree with the kernel's own
books, and a disabled recorder must never be called from the hot path.
"""

import json

import pytest

from repro.asm import assemble
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.obs import TraceRecorder
from repro.tools.cli import main as cli_main
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("test-obs", provider="fast-hmac")

LOOP_ITERATIONS = 25

LOOP_PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {LOOP_ITERATIONS}
loop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))


@pytest.fixture(scope="module")
def installed():
    binary = assemble(LOOP_PROGRAM, metadata={"program": "obsloop"})
    return install(binary, KEY).binary


@pytest.fixture(scope="module")
def traced(installed):
    recorder = TraceRecorder()
    kernel = Kernel(key=KEY, recorder=recorder)
    result = kernel.run(installed)
    assert result.ok, result.kill_reason
    return recorder, kernel, result


class TestTracedRun:
    def test_spans_balanced_and_nested(self, traced):
        recorder, _, result = traced
        assert recorder.open_spans == 0
        names = {s.name for s in recorder.spans}
        assert {"execute", "syscall-verify", "policy-decode", "mac-check",
                "string-auth"} <= names
        # Verification stages sit strictly inside syscall-verify, which
        # sits inside the engine's execute span, inside the scheduler's
        # span for the process's slice.
        depth = {s.name: s.depth for s in recorder.spans}
        assert depth[f"pid{result.process.pid}"] == 0
        assert depth["execute"] == 1
        assert depth["syscall-verify"] == 2
        assert depth["mac-check"] == 3
        # Replaying spans in start order against an interval stack
        # proves proper containment: children end before parents.
        stack = []
        for span in sorted(recorder.spans, key=lambda s: (s.start_ns, -s.dur_ns)):
            end = span.start_ns + span.dur_ns
            while stack and span.start_ns >= stack[-1]:
                stack.pop()
            if stack:
                assert end <= stack[-1], f"{span.name} leaks out of its parent"
            assert len(stack) == span.depth
            stack.append(end)

    def test_self_times_partition_wall_clock(self, traced):
        recorder, _, _ = traced
        totals = recorder.stage_totals()
        self_sum = sum(entry["self_ns"] for entry in totals.values())
        assert self_sum == recorder.total_traced_ns()

    def test_counters_match_kernel_books(self, traced):
        recorder, kernel, result = traced
        assert recorder.counters["engine.instructions_retired"] == result.instructions
        assert recorder.counters["engine.syscalls"] == result.syscalls
        assert recorder.counters["fastpath.hits"] == kernel.audit.fastpath.hits
        assert recorder.counters["fastpath.misses"] == kernel.audit.fastpath.misses
        assert recorder.counters["fastpath.hits"] >= LOOP_ITERATIONS - 1
        # Threaded engine: the loop compiles a handful of blocks once.
        assert recorder.counters["engine.blocks_compiled"] > 0
        assert "block-compile" in {s.name for s in recorder.spans}

    def test_metrics_registry_mirrors_trace_counters(self, traced):
        recorder, kernel, _ = traced
        for name, value in recorder.counters.items():
            assert kernel.metrics.get(name) == value, name

    def test_syscall_span_count_matches_verified_calls(self, traced):
        recorder, _, result = traced
        verifies = [s for s in recorder.spans if s.name == "syscall-verify"]
        assert len(verifies) == result.syscalls

    def test_chrome_export_loads(self, traced, tmp_path):
        recorder, _, _ = traced
        out = tmp_path / "trace.json"
        recorder.write_chrome_trace(out)
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert all(e["ph"] in ("X", "C") for e in events)
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")
        assert doc["counters"] == dict(sorted(recorder.counters.items()))


class TestViolationUnwind:
    def test_auth_violation_leaves_balanced_trace(self, installed):
        # Wrong kernel key: the call MAC fails mid-verification, the
        # span stack must still unwind to balance.
        recorder = TraceRecorder()
        kernel = Kernel(key=Key.from_passphrase("other", provider="fast-hmac"),
                        recorder=recorder)
        result = kernel.run(installed)
        assert result.killed
        assert recorder.open_spans == 0
        totals = recorder.stage_totals()
        assert sum(e["self_ns"] for e in totals.values()) == recorder.total_traced_ns()
        assert "syscall-verify" in totals


class RaisingRecorder:
    """enabled=False recorder whose span/counter methods all raise:
    passing it through a full run proves the hot path never calls a
    disabled recorder."""

    enabled = False

    def _boom(self, *args, **kwargs):
        raise AssertionError("disabled recorder was called from the hot path")

    begin = end = inc = close_to = _boom

    @property
    def open_spans(self):
        return 0


class TestDisabledRecorder:
    def test_hot_path_never_calls_disabled_recorder(self, installed):
        kernel = Kernel(key=KEY, recorder=RaisingRecorder())
        result = kernel.run(installed)
        assert result.ok, result.kill_reason

    def test_default_kernel_uses_shared_null_recorder(self):
        from repro.obs import NULL_RECORDER

        assert Kernel(key=KEY).obs is NULL_RECORDER


class TestCliSurface:
    @pytest.fixture
    def installed_on_disk(self, tmp_path, installed):
        path = tmp_path / "obsloop.sef"
        path.write_bytes(installed.to_bytes())
        return path

    def test_run_trace_flag_writes_chrome_json(self, tmp_path, installed_on_disk,
                                               capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(["--fast-mac", "--key", "test-obs", "run",
                       str(installed_on_disk), "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert any(e["name"] == "syscall-verify" for e in doc["traceEvents"])
        err = capsys.readouterr().err
        assert "[trace]" in err and "syscall-verify" in err

    def test_metrics_subcommand_emits_prometheus(self, tmp_path, installed_on_disk,
                                                 capsys):
        rc = cli_main(["--fast-mac", "--key", "test-obs", "metrics",
                       str(installed_on_disk)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_fastpath_hits counter" in text
        assert "repro_engine_instructions_retired" in text
