"""Per-layer host-time attribution for the traced run.

The kernel already records spans for its engine and verification
stages when it is given a :class:`~repro.obs.TraceRecorder`.  The
traced run adds spans from outside, by wrapping the public functions
at each layer boundary with ``begin``/``end`` on that same recorder,
so the two sets form one span tree and ``stage_totals()`` partitions
the traced time exactly into self times.  No file under ``src/``
changes; :func:`wrapped` installs the wrappers and always puts the
originals back, so untraced passes run unpatched code.

:data:`SPAN_LAYERS` maps every span name to exactly one layer.  The
benchmark's own root span (``pass``) is deliberately unmapped: its self
time is the glue no layer owns, and it counts against
``trace.coverage``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import repro.installer
import repro.kernel.kernel as kernel_module
from repro.crypto.cmac import AesCmac, CmacState
from repro.kernel.auth import AuthChecker, AuthViolation
from repro.kernel.kernel import Kernel
from repro.kernel.net.socket import Connection, NetStack
from repro.kernel.sched.blocking import WouldBlock
from repro.kernel.sched.scheduler import Scheduler
from repro.kernel.verifierjit import VerifierJit
from repro.obs import TraceRecorder

from perfbench.stats import percentile

LAYERS = (
    "cpu", "kernel", "verifierjit", "auth", "crypto",
    "syscalls", "sched", "net", "installer",
)

#: The root span around each traced pass.
PASS_SPAN = "pass"

#: NetStack's public methods; each gets a ``net.<method>`` span.
NET_METHODS = (
    "create", "bind", "listen", "connect", "accept",
    "send_dgram", "recv_dgram", "recv_ready", "send_ready",
)

#: Span name -> layer.  Names not here fall back to SPAN_PREFIXES.
SPAN_LAYERS = {
    # spans the engine records itself
    "execute": "cpu",
    "block-compile": "cpu",
    "block-chain": "cpu",
    # kernel entry points; syscall-verify is the kernel's own root
    # span around verification, its self time is trap glue
    "kernel.trap": "kernel",
    "kernel.load": "kernel",
    "kernel.release": "kernel",
    "syscall-verify": "kernel",
    "verifierjit.execute": "verifierjit",
    "verifierjit.compile": "verifierjit",
    "verifier-compile": "verifierjit",
    # the checker's wrapper plus the stage spans it records itself
    "auth.check": "auth",
    "policy-decode": "auth",
    "mac-check": "auth",
    "string-auth": "auth",
    "memory-checker": "auth",
    "crypto.tag": "crypto",
    "crypto.verify": "crypto",
    "crypto.state_tag": "crypto",
    "crypto.state_update": "crypto",
    "sched.run": "sched",
    "sched.retry": "sched",
    # net spans the syscall handlers record, then the wrappers
    "net-connect": "net",
    "net-accept": "net",
    "net.conn_send": "net",
    "net.conn_recv": "net",
    **{f"net.{method}": "net" for method in NET_METHODS},
    "installer.install": "installer",
}

#: Span-name prefixes for names that carry a variable part: the
#: dispatch wrapper's ``syscall:<family>`` spans and the scheduler's
#: own per-slice ``pid<N>`` spans.
SPAN_PREFIXES = (("syscall:", "syscalls"), ("pid", "sched"))

#: Syscall family of each syscall name outside ``proc``.
SYSCALL_FAMILIES = {
    "file": frozenset({
        "open", "close", "read", "write", "readv", "writev", "lseek", "dup",
        "dup2", "fcntl", "ioctl", "unlink", "mkdir", "rmdir", "rename",
        "chdir", "fchdir", "chmod", "fchmod", "chown", "fchown", "access",
        "stat", "fstat", "statfs", "fstatfs", "symlink", "readlink", "link",
        "getdirentries", "utime", "truncate", "ftruncate", "fsync", "sync",
        "flock", "umask", "getcwd", "select", "poll", "pipe",
    }),
    "mem": frozenset({"brk", "mmap", "munmap", "mprotect", "madvise", "mlock", "munlock"}),
    "time": frozenset({"time", "gettimeofday", "nanosleep", "times", "alarm"}),
    "net": frozenset({
        "socket", "bind", "listen", "accept", "connect", "send", "recv",
        "sendto", "recvfrom", "shutdown",
    }),
}
FAMILIES = ("file", "mem", "time", "proc", "net")
_FAMILY_OF = {name: family for family, names in SYSCALL_FAMILIES.items() for name in names}


def layer_of(span_name: str) -> Optional[str]:
    layer = SPAN_LAYERS.get(span_name)
    if layer is not None:
        return layer
    for prefix, prefixed_layer in SPAN_PREFIXES:
        if span_name.startswith(prefix):
            return prefixed_layer
    return None


class Probe:
    """What the wrappers write to: the current recorder plus the few
    outcomes a span cannot show."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.recorder = TraceRecorder()
        self.jit_hits = 0
        self.violations = 0
        self.would_block = 0


def _spanned(probe: Probe, name: str, fn):
    def wrapper(*args, **kwargs):
        rec = probe.recorder
        depth = rec.open_spans
        rec.begin(name, "bench")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close_to(depth)

    return wrapper


def _patches(probe: Probe) -> list:
    """``(owner, attribute, wrapper factory)`` for every wrapped function."""

    def span(name):
        return lambda fn: _spanned(probe, name, fn)

    def jit_execute(fn):
        def execute(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None:
                probe.jit_hits += 1
            return result

        return _spanned(probe, "verifierjit.execute", execute)

    def auth_check(fn):
        def check(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except AuthViolation:
                probe.violations += 1
                raise

        return _spanned(probe, "auth.check", check)

    def dispatch(fn):
        def wrapper(ctx):
            rec = probe.recorder
            depth = rec.open_spans
            rec.begin("syscall:" + _FAMILY_OF.get(ctx.name, "proc"), "bench")
            try:
                return fn(ctx)
            except WouldBlock:
                probe.would_block += 1
                raise
            finally:
                rec.close_to(depth)

        return wrapper

    patches = [
        (Kernel, "handle_trap", span("kernel.trap")),
        (Kernel, "load", span("kernel.load")),
        (Kernel, "release_process", span("kernel.release")),
        (Kernel, "retry_blocked", span("sched.retry")),
        (Scheduler, "run", span("sched.run")),
        (VerifierJit, "execute", jit_execute),
        (VerifierJit, "compile_site", span("verifierjit.compile")),
        (AuthChecker, "check", auth_check),
        (AesCmac, "tag", span("crypto.tag")),
        (AesCmac, "verify", span("crypto.verify")),
        (CmacState, "tag", span("crypto.state_tag")),
        (CmacState, "update", span("crypto.state_update")),
        (kernel_module, "dispatch", dispatch),
        (Connection, "send", span("net.conn_send")),
        (Connection, "recv", span("net.conn_recv")),
        (repro.installer, "install", span("installer.install")),
    ]
    patches += [(NetStack, method, span(f"net.{method}")) for method in NET_METHODS]
    return patches


@contextmanager
def wrapped(probe: Probe):
    """Install every layer wrapper for the duration of the block; the
    originals are restored on the way out, exception or not."""
    originals = []
    try:
        for owner, attribute, factory in _patches(probe):
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        yield probe
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _seconds(ns: int) -> float:
    return ns / 1e9


def layer_metrics(probe: Probe, result, untraced_pass_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``result`` is the pass's :class:`~perfbench.workloads.PassResult`;
    ``untraced_pass_s`` is the untraced median pass time, the base of
    ``trace.overhead``."""
    counters = result.counters
    rec = probe.recorder
    totals = rec.stage_totals()
    traced_ns = rec.total_traced_ns()
    self_ns = dict.fromkeys(LAYERS, 0)
    for name, entry in totals.items():
        layer = layer_of(name)
        if layer is not None:
            self_ns[layer] += entry["self_ns"]

    def count(name):
        return totals.get(name, {}).get("count", 0)

    def total_s(name):
        return _seconds(totals.get(name, {}).get("total_ns", 0))

    def self_s(name):
        return _seconds(totals.get(name, {}).get("self_ns", 0))

    def ratio(num, den):
        return num / den if den else 0.0

    traps = count("kernel.trap")
    checks = count("auth.check")
    instructions = result.outputs["instructions"]
    blocks = counters.get("engine.blocks_compiled", 0)
    retries = count("sched.retry")
    net_spans = [name for name in totals if name.startswith("net.")]
    metrics = {
        "cpu.self_s": _seconds(self_ns["cpu"]),
        "cpu.share": ratio(self_ns["cpu"], traced_ns),
        "cpu.instructions": instructions,
        "cpu.blocks_compiled": blocks,
        "cpu.compile_s": self_s("block-compile"),
        "cpu.instr_per_compile": ratio(instructions, blocks),
        "cpu.chains_linked": counters.get("engine.chains_linked", 0),
        "cpu.chains_severed": counters.get("engine.chains_severed", 0),
        "cpu.superblocks_fused": counters.get("engine.superblocks_fused", 0),
        "cpu.superblocks_killed": counters.get("engine.superblocks_killed", 0),
        "kernel.trap.count": traps,
        "kernel.trap.self_s": self_s("kernel.trap"),
        "kernel.load_s": total_s("kernel.load"),
        "kernel.release_s": total_s("kernel.release"),
        "verifierjit.execute.count": count("verifierjit.execute"),
        "verifierjit.execute_s": total_s("verifierjit.execute"),
        "verifierjit.hit_ratio": ratio(probe.jit_hits, count("verifierjit.execute")),
        "verifierjit.compile.count": count("verifierjit.compile"),
        "verifierjit.compile_s": total_s("verifierjit.compile"),
        "verifierjit.reuse": ratio(
            counters.get("verifier.thunk_hits", 0),
            counters.get("verifier.thunks_compiled", 0),
        ),
        "auth.check.count": checks,
        "auth.check_s": total_s("auth.check"),
        "auth.check_us": ratio(total_s("auth.check") * 1e6, checks),
        "auth.policy_decode_s": total_s("policy-decode"),
        "auth.mac_check_s": total_s("mac-check"),
        "auth.string_auth_s": total_s("string-auth"),
        "auth.memory_checker_s": total_s("memory-checker"),
        "auth.violations": probe.violations,
        "crypto.tag.count": count("crypto.tag") + count("crypto.state_tag"),
        "crypto.verify.count": count("crypto.verify"),
        "crypto.self_s": _seconds(self_ns["crypto"]),
        "crypto.share": ratio(self_ns["crypto"], traced_ns),
        "syscalls.dispatch.count": sum(
            count(f"syscall:{family}") for family in FAMILIES
        ),
        "syscalls.self_s": _seconds(self_ns["syscalls"]),
        **{f"syscalls.{family}_s": self_s(f"syscall:{family}") for family in FAMILIES},
        "syscalls.would_block": probe.would_block,
        "sched.self_s": _seconds(self_ns["sched"]),
        "sched.retry.count": retries,
        "sched.retry_useful": ratio(counters.get("sched.wakeups", 0), retries),
        "sched.context_switches": counters.get("sched.context_switches", 0),
        "sched.preemptions": counters.get("sched.preemptions", 0),
        "sched.blocks": counters.get("sched.blocks", 0),
        "net.self_s": _seconds(self_ns["net"]),
        "net.calls": sum(count(name) for name in net_spans),
        "net.bytes_sent": counters.get("net.bytes_sent", 0),
        "net.bytes_received": counters.get("net.bytes_received", 0),
        "trace.coverage": ratio(sum(self_ns.values()), traced_ns),
        "trace.overhead": ratio(_seconds(traced_ns), untraced_pass_s),
    }
    return metrics


def trap_latencies_us(probe: Probe) -> list:
    """Inclusive host latency of every trap in the pass, in µs."""
    return [s.dur_ns / 1e3 for s in probe.recorder.spans if s.name == "kernel.trap"]


def trap_percentiles(latencies_us: list) -> dict:
    if not latencies_us:
        return {"kernel.trap.p50_us": 0.0, "kernel.trap.p99_us": 0.0}
    return {
        "kernel.trap.p50_us": percentile(latencies_us, 50.0),
        "kernel.trap.p99_us": percentile(latencies_us, 99.0),
    }


def installer_metrics(probe: Probe) -> dict:
    totals = probe.recorder.stage_totals().get("installer.install", {})
    return {
        "installer.install_s": _seconds(totals.get("total_ns", 0)),
        "installer.install.count": totals.get("count", 0),
    }
