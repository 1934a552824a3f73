"""Kernel audit log.

§3.4: on a failed check the kernel "terminates the process, logs the
system call, and alerts the administrator".  The audit log is the
administrator-visible record; attack tests and benchmarks assert
against it.  It holds events only: counters live in the kernel's
:class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


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


@dataclass
class AuditLog:
    events: list[AuditEvent] = field(default_factory=list)

    def record(self, event: AuditEvent) -> None:
        self.events.append(event)

    def kills(self) -> list[AuditEvent]:
        return [e for e in self.events if e.kind == "killed"]

    def alerts(self) -> list[AuditEvent]:
        return [e for e in self.events if e.kind in ("killed", "blocked", "alert")]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)
