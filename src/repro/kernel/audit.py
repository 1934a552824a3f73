"""Kernel audit log.

§3.4: on a failed check the kernel "terminates the process, logs the
system call, and alerts the administrator".  The audit log is the
administrator-visible record; attack tests and benchmarks assert
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class AuditEvent:
    kind: str  # "killed" | "blocked" | "alert" | "info"
    pid: int
    program: str
    syscall: Optional[str]
    reason: str
    call_site: Optional[int] = None

    def render(self) -> str:
        site = f" site={self.call_site:#010x}" if self.call_site is not None else ""
        call = f" syscall={self.syscall}" if self.syscall else ""
        return f"[{self.kind}] pid={self.pid} {self.program}{call}{site}: {self.reason}"


@dataclass(frozen=True)
class FastPathSnapshot:
    """An immutable copy of the fast-path counters at one instant.

    :meth:`FastPathStats.reset` returns one of these so a caller that
    resets between benchmark phases reads a consistent pair — reading
    the live stats after the reset (or while another phase has already
    started accumulating) races.
    """

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class FastPathStats:
    """Machine-wide verification fast-path counters.

    Each verified trap counts once: ``hits`` are traps a compiled
    per-site thunk accepted, ``misses`` traps the full check accepted
    (a site's first trap, or one whose thunk was just dropped).  Both
    stay 0 with the fast path off.  Benchmarks and the audit trail use
    these to report fast-path coverage alongside the timing tables.

    Since the observability layer landed this is a *view* over a
    :class:`repro.obs.metrics.MetricsRegistry` (the kernel's, so the
    same numbers appear in ``repro metrics`` dumps under
    ``fastpath.*``); standalone construction gets a private registry
    and behaves exactly like the old dataclass.
    """

    __slots__ = ("_registry",)

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._registry = registry if registry is not None else MetricsRegistry()
        if hits:
            self._registry.set("fastpath.hits", hits)
        if misses:
            self._registry.set("fastpath.misses", misses)

    # -- counter views ---------------------------------------------------

    @property
    def hits(self) -> int:
        return self._registry.get("fastpath.hits")

    @hits.setter
    def hits(self, value: int) -> None:
        self._registry.set("fastpath.hits", value)

    @property
    def misses(self) -> int:
        return self._registry.get("fastpath.misses")

    @misses.setter
    def misses(self, value: int) -> None:
        self._registry.set("fastpath.misses", value)

    # -- derived ---------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> FastPathSnapshot:
        return FastPathSnapshot(self.hits, self.misses)

    def reset(self) -> FastPathSnapshot:
        """Zero the counters; returns the pre-reset snapshot so callers
        interleaving measurement phases cannot race the reset."""
        snapshot = self.snapshot()
        self.hits = 0
        self.misses = 0
        return snapshot

    def render(self) -> str:
        return (
            f"fastpath: {self.hits} hits / {self.misses} misses "
            f"({100.0 * self.hit_rate():.1f}% hit rate)"
        )


@dataclass
class AuditLog:
    events: list[AuditEvent] = field(default_factory=list)
    fastpath: FastPathStats = field(default_factory=FastPathStats)

    def record(self, event: AuditEvent) -> None:
        self.events.append(event)

    def kills(self) -> list[AuditEvent]:
        return [e for e in self.events if e.kind == "killed"]

    def alerts(self) -> list[AuditEvent]:
        return [e for e in self.events if e.kind in ("killed", "blocked", "alert")]

    def clear(self) -> None:
        self.events.clear()
        self.fastpath.reset()

    def __len__(self) -> int:
        return len(self.events)
