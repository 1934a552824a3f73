"""The 32-bit policy descriptor.

§3.2: "a 32-bit integer that encodes information about which properties
of the system call are constrained by its policy".  Our bit layout
(documented here rather than matching the paper's unpublished one):

========  =====================================================
bit 0     call site constrained
bits 1-6  parameter *i* value constrained (bit ``1+i``)
bits 8-13 parameter *i* is an authenticated string (bit ``8+i``)
bit 16    control-flow (predecessor set) constrained
bit 17    capability tracking applies to an fd parameter (§5.3)
bits 20-25 parameter *i* is pattern-constrained (§5.1, bit ``20+i``)
========  =====================================================

The descriptor participates in the call MAC, so an attacker cannot
weaken a policy by flipping bits in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache

MAX_PARAMS = 6

BIT_CALL_SITE = 1 << 0
BIT_CONTROL_FLOW = 1 << 16
BIT_CAPABILITY = 1 << 17
#: The bits :func:`param_table` reads: value (1-6), string (8-13) and
#: pattern (20-25).
PARAM_BITS = 0x3F << 1 | 0x3F << 8 | 0x3F << 20

#: Bound on the cached parameter tables.  The kernel reads a descriptor
#: from guest memory before any MAC check, so a hostile guest chooses
#: the values; past this many distinct ones the least recently used
#: table is dropped and rebuilt when next needed.
PARAM_TABLE_ENTRIES = 1024


@unique
class ParamClass(Enum):
    """How the static analysis classified one argument (§4.1)."""

    STRING = "string"  # address of a known string constant
    IMMEDIATE = "immediate"  # some other known constant
    UNKNOWN = "unknown"  # not statically determined
    OUTPUT = "output"  # output-only argument (kernel writes here)
    MULTI_VALUE = "multi-value"  # small finite set of possible values (§5)
    FD = "fd"  # file descriptor from a previous call (§5.3)


def _param_bit(index: int) -> int:
    if not 0 <= index < MAX_PARAMS:
        raise ValueError(f"parameter index out of range: {index}")
    return 1 << (1 + index)


def _string_bit(index: int) -> int:
    if not 0 <= index < MAX_PARAMS:
        raise ValueError(f"parameter index out of range: {index}")
    return 1 << (8 + index)


def _pattern_bit(index: int) -> int:
    if not 0 <= index < MAX_PARAMS:
        raise ValueError(f"parameter index out of range: {index}")
    return 1 << (20 + index)


@lru_cache(maxsize=PARAM_TABLE_ENTRIES)
def param_table(bits: int) -> tuple[tuple[int, bool, bool], ...]:
    """``((index, is_string, is_pattern), ...)``, in ascending index
    order, for every parameter the descriptor value ``bits`` encodes:
    those whose value or pattern bit is set.  Built once per distinct
    value (callers pass ``bits & PARAM_BITS``), so the encoder, the
    record reader and the trap-time decoder classify the six
    parameters with one cached lookup instead of a dozen bit tests."""
    return tuple(
        (index, bool(bits & _string_bit(index)), bool(bits & _pattern_bit(index)))
        for index in range(MAX_PARAMS)
        if bits & (_param_bit(index) | _pattern_bit(index))
    )


@dataclass(frozen=True)
class PolicyDescriptor:
    """Immutable wrapper around the descriptor bits."""

    bits: int = 0

    # -- builders -------------------------------------------------------

    def with_call_site(self) -> "PolicyDescriptor":
        return PolicyDescriptor(self.bits | BIT_CALL_SITE)

    def with_control_flow(self) -> "PolicyDescriptor":
        return PolicyDescriptor(self.bits | BIT_CONTROL_FLOW)

    def with_capability(self) -> "PolicyDescriptor":
        return PolicyDescriptor(self.bits | BIT_CAPABILITY)

    def with_param(self, index: int, is_string: bool = False) -> "PolicyDescriptor":
        bits = self.bits | _param_bit(index)
        if is_string:
            bits |= _string_bit(index)
        return PolicyDescriptor(bits)

    def with_pattern_param(self, index: int) -> "PolicyDescriptor":
        return PolicyDescriptor(self.bits | _pattern_bit(index) | _string_bit(index))

    # -- queries ---------------------------------------------------------

    @property
    def call_site_constrained(self) -> bool:
        return bool(self.bits & BIT_CALL_SITE)

    @property
    def control_flow_constrained(self) -> bool:
        return bool(self.bits & BIT_CONTROL_FLOW)

    @property
    def capability_tracked(self) -> bool:
        return bool(self.bits & BIT_CAPABILITY)

    def param_constrained(self, index: int) -> bool:
        return bool(self.bits & _param_bit(index))

    def param_is_string(self, index: int) -> bool:
        return bool(self.bits & _string_bit(index))

    def param_is_pattern(self, index: int) -> bool:
        return bool(self.bits & _pattern_bit(index))

    @property
    def params(self) -> tuple[tuple[int, bool, bool], ...]:
        """This descriptor's :func:`param_table`."""
        return param_table(self.bits & PARAM_BITS)

    def constrained_params(self) -> list[int]:
        return [i for i in range(MAX_PARAMS) if self.param_constrained(i)]

    def pattern_params(self) -> list[int]:
        return [index for index, _, is_pattern in self.params if is_pattern]

    def __int__(self) -> int:
        return self.bits
