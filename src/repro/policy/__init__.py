"""Policy model for authenticated system calls.

A *system call policy* (§2.1) constrains one call site: syscall number,
call site address, constant argument values, and the set of system
calls that may immediately precede it.  A program's *overall policy* is
the collection of its per-site policies plus its system call graph.

This package is deliberately shared between the trusted installer and
the simulated kernel: both sides build the byte-level *encoded policy*
(§3.3) with the same function, so the kernel's reconstructed "encoded
call" matches the installer's encoded policy exactly when — and only
when — the runtime behaviour complies.
"""

from repro.policy.descriptor import PolicyDescriptor, ParamClass
from repro.policy.model import ParamPolicy, ProgramPolicy, SyscallPolicy
from repro.policy.encode import encode_policy, ParamEncoding
from repro.policy.authstrings import (
    AS_HEADER_SIZE,
    AuthenticatedString,
    build_authenticated_string,
    read_authenticated_string,
)
from repro.policy.patterns import Pattern, PatternError, match_with_hint, derive_hint
from repro.policy.metapolicy import MetaPolicy, MetaRule, PolicyTemplate, Strictness
from repro.policy.capability import CapabilityTable, CapabilityError

__all__ = [
    "AS_HEADER_SIZE",
    "AuthenticatedString",
    "CapabilityError",
    "CapabilityTable",
    "MetaPolicy",
    "MetaRule",
    "ParamClass",
    "ParamEncoding",
    "ParamPolicy",
    "Pattern",
    "PatternError",
    "PolicyDescriptor",
    "PolicyTemplate",
    "ProgramPolicy",
    "Strictness",
    "SyscallPolicy",
    "build_authenticated_string",
    "derive_hint",
    "encode_policy",
    "match_with_hint",
    "read_authenticated_string",
]
