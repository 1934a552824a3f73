"""Logical policy objects.

These are the human-readable form — what §3.1 renders as::

    Permit open from location 0x806c462
        Parameter 0 equals "/dev/console"
        Parameter 1 equals 5
        If preceded by the system call at 0x80a1c04

The installer derives them by static analysis; the byte-level encoding
that actually gets MAC'd lives in :mod:`repro.policy.encode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.policy.descriptor import MAX_PARAMS, ParamClass, PolicyDescriptor


@dataclass(frozen=True)
class ParamPolicy:
    """Constraint on one parameter of one call site."""

    index: int
    kind: ParamClass
    #: Concrete value: int for IMMEDIATE, bytes for STRING, a glob
    #: pattern string for patterns, tuple of ints for MULTI_VALUE.
    value: Union[int, bytes, str, tuple, None] = None
    pattern: Optional[str] = None
    #: For address-valued immediates: the symbol whose final address is
    #: the constrained value (resolved by the installer's signer).
    symbol: Optional[object] = None

    def __post_init__(self) -> None:
        if not 0 <= self.index < MAX_PARAMS:
            raise ValueError(f"parameter index out of range: {self.index}")
        if self.kind is ParamClass.IMMEDIATE and not isinstance(self.value, int):
            raise ValueError("IMMEDIATE parameter requires an int value")
        if self.kind is ParamClass.STRING and not isinstance(self.value, bytes):
            raise ValueError("STRING parameter requires a bytes value")


@dataclass
class SyscallPolicy:
    """The policy of a single call site."""

    syscall: str
    number: int
    call_site: int  # absolute address of the trap instruction
    block_id: int  # basic block identifier (installer-assigned)
    params: dict[int, ParamPolicy] = field(default_factory=dict)
    predecessors: frozenset[int] = frozenset()  # block ids
    control_flow: bool = False
    #: Output-only parameter indices (reported in Table 3's o/p column;
    #: never constrained).
    output_params: frozenset[int] = frozenset()
    #: Indices whose values form a small finite set (Table 3 "mv").
    multi_value_params: frozenset[int] = frozenset()
    #: Indices that are file descriptors from earlier calls (Table 3 "fds").
    fd_params: frozenset[int] = frozenset()
    #: For capability tracking (§5.3): param index -> block ids of the
    #: call sites whose return value may flow into that parameter.
    fd_producers: dict = field(default_factory=dict)
    #: Total argument count of this syscall at this site.
    arg_count: int = 0

    def descriptor(self) -> PolicyDescriptor:
        """Derive the 32-bit descriptor from the logical policy."""
        descriptor = PolicyDescriptor().with_call_site()
        for index, param in sorted(self.params.items()):
            if param.pattern is not None:
                descriptor = descriptor.with_pattern_param(index)
            elif param.kind is ParamClass.STRING:
                descriptor = descriptor.with_param(index, is_string=True)
            elif param.kind is ParamClass.IMMEDIATE:
                descriptor = descriptor.with_param(index)
        if self.control_flow:
            descriptor = descriptor.with_control_flow()
        if self.fd_producers:
            descriptor = descriptor.with_capability()
        return descriptor

    def render(self) -> str:
        """The §3.1 textual form, for logs and documentation."""
        lines = [
            f"Permit {self.syscall} from location {self.call_site:#010x} "
            f"in basic block {self.block_id}"
        ]
        for index in range(self.arg_count):
            if index in self.params:
                param = self.params[index]
                if isinstance(param.value, bytes):
                    value = '"' + param.value.decode("utf-8", "replace") + '"'
                else:
                    value = str(param.value)
                lines.append(f"    Parameter {index} equals {value}")
            else:
                lines.append(f"    Parameter {index} equals ANY")
        if self.control_flow:
            rendered = ", ".join(str(b) for b in sorted(self.predecessors))
            lines.append(f"    Possible predecessors {rendered}")
        return "\n".join(lines)


@dataclass
class ProgramPolicy:
    """A whole program's overall policy."""

    program: str
    personality: str = "linux"
    #: call-site address -> policy
    sites: dict[int, SyscallPolicy] = field(default_factory=dict)
    #: block id -> set of predecessor block ids (the system call graph)
    syscall_graph: dict[int, frozenset[int]] = field(default_factory=dict)
    #: Installer-assigned program identifier (Frankenstein defense, §5.5).
    program_id: int = 0
    #: Trap sites whose syscall number could not be identified (PLTO's
    #: "cannot disassemble" report, §4.2); present only when policy
    #: generation runs in non-strict mode.
    unidentified_sites: list = field(default_factory=list)

    def add(self, policy: SyscallPolicy) -> None:
        if policy.call_site in self.sites:
            raise ValueError(f"duplicate policy for site {policy.call_site:#x}")
        self.sites[policy.call_site] = policy

    def distinct_syscalls(self) -> set[str]:
        """Table 1's metric: distinct system call names permitted."""
        return {policy.syscall for policy in self.sites.values()}

    def site_count(self) -> int:
        return len(self.sites)

    def total_args(self) -> int:
        return sum(policy.arg_count for policy in self.sites.values())

    def output_args(self) -> int:
        return sum(len(policy.output_params) for policy in self.sites.values())

    def authenticated_args(self) -> int:
        return sum(len(policy.params) for policy in self.sites.values())

    def multi_value_args(self) -> int:
        return sum(len(policy.multi_value_params) for policy in self.sites.values())

    def fd_args(self) -> int:
        return sum(len(policy.fd_params) for policy in self.sites.values())

    def predecessor_stats(self) -> dict:
        """Distribution of predecessor-set sizes across sites.

        Large predecessor sets are where the control-flow policy's
        authenticated strings grow; the stats feed capacity planning
        for the .authstr section and the per-call MAC block count."""
        sizes = sorted(
            len(site.predecessors)
            for site in self.sites.values()
            if site.control_flow
        )
        if not sizes:
            return {"sites": 0, "min": 0, "max": 0, "mean": 0.0, "total": 0}
        return {
            "sites": len(sizes),
            "min": sizes[0],
            "max": sizes[-1],
            "mean": sum(sizes) / len(sizes),
            "total": sum(sizes),
        }

    def coverage_row(self) -> dict[str, int]:
        """One row of Table 3."""
        return {
            "sites": self.site_count(),
            "calls": len(self.distinct_syscalls()),
            "args": self.total_args(),
            "o/p": self.output_args(),
            "auth": self.authenticated_args(),
            "mv": self.multi_value_args(),
            "fds": self.fd_args(),
        }
