"""The machine-wide counter registry.

One :class:`MetricsRegistry` per :class:`~repro.kernel.kernel.Kernel`
holds every runtime counter as a named integer: fast-path thunk
traffic, decode-cache invalidations, translation-cache compiles and
evictions, guest instructions retired, scheduler and loopback-network
events.  It is the only counter store: ``repro run --stats``, the
Prometheus dump and the Chrome trace's ``counters`` map all read it.
Counters are plain dict slots — maintaining them costs an integer add,
so unlike spans they are always on.

Names are dotted (``fastpath.hits``, ``engine.blocks_compiled``); the
Prometheus dump mangles them into the conventional
``repro_engine_blocks_compiled`` form.
"""

from __future__ import annotations

from typing import Iterator

#: Documentation strings for the counters; used as HELP lines in the
#: Prometheus dump.  Every name the kernel, scheduler, net stack and
#: sweeps emit has one (tests/obs/test_metrics.py checks); a name not
#: listed here still renders, with no HELP line.
COUNTER_HELP = {
    "fastpath.hits": "ASYS traps accepted by a compiled per-site verifier thunk",
    "fastpath.misses": "ASYS traps accepted by the full check (fast path on)",
    "verifier.thunks_compiled": "call sites specialized into pre-bound verifier thunks",
    "verifier.thunks_refreshed": "stale thunks revalidated byte-for-byte against live policy memory",
    "verifier.thunks_invalidated": "verifier thunks dropped by a failed refresh or exit/exec",
    "verifier.thunk_hits": "ASYS traps verified entirely by a compiled thunk",
    "decode.invalidations": "interpreter decode-cache entries dropped by write-version guards",
    "engine.blocks_compiled": "basic blocks translated by the threaded engine",
    "engine.blocks_evicted": "cached translations invalidated by stores or stale guards",
    "engine.instructions_retired": "guest instructions executed",
    "engine.syscalls": "traps serviced by the kernel",
    "engine.chains_linked": "direct block-to-block links formed by the threaded engine",
    "engine.chains_severed": "block-to-block links cut because their target block was dropped",
    "engine.superblocks_fused": "hot loops fused into compiled superblock functions",
    "engine.superblocks_killed": "superblocks discarded because a member block was dropped",
    "sched.context_switches": "times the scheduler switched to a different pid",
    "sched.preemptions": "timeslices ended by budget exhaustion",
    "sched.blocks": "dispatches parked on a wait condition",
    "sched.wakeups": "blocked dispatches completed by the wake poll",
    "sched.retries": "blocked dispatches the wake poll retried",
    "sched.yields": "sched_yield calls that requeued the caller",
    "sched.forks": "processes created by fork",
    "sched.spawns": "processes created by asynchronous spawn",
    "sched.execs": "in-place image replacements by execve",
    "sched.exits": "scheduled processes that terminated",
    "sched.zombies": "exited processes held for a parent's wait4",
    "sched.zombies_reaped": "zombies collected by wait4 or orphan auto-reap",
    "sched.signal_kills": "processes terminated by a cross-process signal",
    "sched.unsatisfiable_waits": "blocked calls no task could satisfy, completed with -EAGAIN",
    "sched.runq_peak": "largest observed run-queue length",
    "net.sockets_created": "loopback sockets created",
    "net.sockets_closed": "loopback sockets whose last reference was released",
    "net.binds": "sockets bound to a loopback address",
    "net.listens": "stream sockets turned into listeners",
    "net.connections": "stream connections established by connect",
    "net.accepts": "queued connections taken by accept",
    "net.connect_refused": "stream connects refused for want of an open listener",
    "net.bytes_sent": "payload bytes written to stream connections and datagrams",
    "net.bytes_received": "payload bytes read from stream connections and datagrams",
    "net.dgrams_sent": "datagrams queued at a bound receiver",
    "net.dgrams_received": "datagrams taken off a receive queue",
    "faults.injected": "seeded fault runs executed by the injection sweep",
    "faults.detected": "injected faults killed with a correctly attributed violation",
    "faults.benign": "injected faults that landed on dead state (run bit-identical)",
    "faults.missed": "injected faults that diverged undetected (hard failure)",
    "conform.programs": "generated programs executed by the conformance sweep",
    "conform.runs": "per-config conformance runs (programs x configs)",
    "conform.divergences": "programs whose signature differed across configs (hard failure)",
    "conform.shrink_evaluations": "candidate programs executed while minimizing a divergence",
    "conform.superblocks_fused": "superblocks the threaded engine fused across conformance runs",
}


class MetricsRegistry:
    """A flat name -> integer counter store."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    # -- mutation --------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to counter ``name`` (creating it at 0)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + delta

    def set(self, name: str, value: int) -> None:
        self._counters[name] = value

    def reset(self) -> dict[str, int]:
        """Zero every counter; returns the pre-reset snapshot."""
        snapshot = dict(self._counters)
        self._counters.clear()
        return snapshot

    # -- reading ---------------------------------------------------------

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self._counters)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._counters.items()))

    def __len__(self) -> int:
        return len(self._counters)

    # -- export ----------------------------------------------------------

    def render_prometheus(self, prefix: str = "repro") -> str:
        """The counters as Prometheus exposition text (one
        ``# HELP``/``# TYPE``/value triple per counter)."""
        lines = []
        for name, value in self:
            metric = f"{prefix}_{name.replace('.', '_').replace('-', '_')}"
            help_text = COUNTER_HELP.get(name)
            if help_text:
                lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

