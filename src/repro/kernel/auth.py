"""System call checking (§3.4) — the kernel-patch analogue.

The paper adds 248 lines to Linux's software trap handler to perform
three checks on every authenticated call:

1. check ``callMAC``;
2. check the integrity of each string argument named in ``polDes``;
3. check the control-flow policy (via the online memory checker).

If all pass, the call proceeds; otherwise the process is terminated,
the call is logged, and the administrator is alerted.  Unauthenticated
calls from protected binaries are likewise blocked.

This module is deliberately the *only* place that trusts nothing from
the application: every pointer it follows is treated as hostile, every
length is bounded, and every decision traces back to a MAC keyed with
material the application cannot read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.cpu.memory import MemoryFault
from repro.cpu.vm import VM
from repro.crypto import AesCmac
from repro.kernel.costs import CostModel, mac_blocks
from repro.kernel.process import Process
from repro.obs import NULL_RECORDER, Recorder
from repro.policy.authstrings import AuthenticatedString, read_authenticated_string
from repro.policy.encode import ParamEncoding, encode_policy, unpack_predecessor_set
from repro.policy.patterns import Pattern, match_with_hint
from repro.policy.record import (
    AuthRecord,
    pack_policy_state,
    read_auth_record,
    read_policy_state,
    state_mac_payload,
)

#: Cap on the length of a *runtime* (pattern-matched) string argument;
#: unlike AS arguments these carry no authenticated length, so the
#: kernel bounds its own scan.
MAX_RUNTIME_STRING = 4096

MAX_HINT_WORDS = 32


class AuthViolation(Exception):
    """An authenticated-system-call check failed; the process dies."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Reason-string families for §3.4 violations, keyed by which check
#: tripped.  The fault-injection battery uses this to assert not just
#: *that* a corrupted run was killed but that the kill was correctly
#: attributed (a counter desync must die as a policy-state mismatch,
#: not as some accidental downstream fault).  Substring matching keeps
#: the reasons themselves free to carry per-site detail.
VIOLATION_FAMILIES: dict[str, tuple[str, ...]] = {
    "record": (
        "unreadable auth record",
        "bad pointer in authenticated call",
    ),
    "call-mac": ("call MAC mismatch", "unauthenticatable syscall number"),
    "string-auth": ("failed integrity check",),
    "policy-state": (
        "policy state MAC mismatch",
        "unreadable policy state",
        "unwritable policy state",
    ),
    "control-flow": ("control flow violation",),
    "pattern": (
        "does not match pattern",
        "undecodable pattern",
        "unreadable pattern argument",
        "hint block",
    ),
    "capability": ("capability violation",),
    "unauthenticated": (
        "unauthenticated system call",
        "unauthenticated binary",
    ),
}


def violation_family(reason: str) -> Optional[str]:
    """Classify a kill reason into its §3.4 check family (or None for
    reasons that did not come from the authenticated-call checker)."""
    for family, needles in VIOLATION_FAMILIES.items():
        if any(needle in reason for needle in needles):
            return family
    return None


@dataclass(frozen=True)
class DecodedCall:
    """Step 1 of §3.4 before any MAC: the live auth record, every
    authenticated string it names, and the encoded call rebuilt from
    them and the trap registers.

    Built by :func:`decode_call` — the one decoder the full check, the
    verifier-thunk compiler and the thunk refresh all share."""

    record: AuthRecord
    encoded_call: bytes
    #: ((register index, value), ...) for constrained immediates.
    immediates: tuple
    #: ((param index, content address, AS, is pattern), ...) for string
    #: arguments, pattern-constrained ones included, in ascending index
    #: order.
    strings: tuple
    predset: Optional[AuthenticatedString] = None
    fd_allowed: Optional[AuthenticatedString] = None

    def authenticated_strings(self) -> tuple:
        """((content address, AS), ...) for every AS the call names."""
        pairs = [(address, auth_string) for _, address, auth_string, _ in self.strings]
        if self.predset is not None:
            pairs.append((self.record.predset_ptr, self.predset))
        if self.fd_allowed is not None:
            pairs.append((self.record.fd_allowed_ptr, self.fd_allowed))
        return tuple(pairs)

    def verdict_bytes(self) -> tuple:
        """Every byte the §3.4 verdict reads from policy memory: the
        encoded call (which embeds each AS header), the call MAC and
        the AS contents.  Two decodes with equal ``verdict_bytes`` get
        the same step-1 and step-2 verdict."""
        return (
            self.encoded_call,
            self.record.call_mac,
            tuple(auth_string.content for _, auth_string in self.authenticated_strings()),
        )


def decode_call(vm: VM) -> DecodedCall:
    """Read and decode the ASYS trap pending on ``vm`` (step 1 up to,
    not including, the call-MAC comparison).  Raises
    :class:`AuthViolation` on an unreadable record or AS."""
    memory = vm.memory
    regs = vm.regs
    try:
        record = read_auth_record(memory, regs[7])
    except MemoryFault as fault:
        raise AuthViolation(f"unreadable auth record: {fault}") from fault
    descriptor = record.descriptor
    params: list[ParamEncoding] = []
    immediates: list[tuple[int, int]] = []
    strings: list[tuple[int, int, AuthenticatedString, bool]] = []
    predset = None
    fd_allowed = None
    pattern_cursor = 0
    try:
        for index, is_string, is_pattern in descriptor.params:
            if is_string:
                if is_pattern:
                    address = record.pattern_ptrs[pattern_cursor]
                    pattern_cursor += 1
                else:
                    address = regs[1 + index]
                auth_string = read_authenticated_string(memory, address)
                params.append(
                    ParamEncoding.auth_string(
                        index, address, auth_string.length, auth_string.mac
                    )
                )
                strings.append((index, address, auth_string, is_pattern))
            else:
                params.append(ParamEncoding.immediate(index, regs[1 + index]))
                immediates.append((1 + index, regs[1 + index]))

        predset_triple = None
        if descriptor.control_flow_constrained:
            predset = read_authenticated_string(memory, record.predset_ptr)
            predset_triple = (record.predset_ptr, predset.length, predset.mac)

        capability_spec = None
        if descriptor.capability_tracked:
            fd_allowed = read_authenticated_string(memory, record.fd_allowed_ptr)
            capability_spec = (
                record.fd_mask,
                (record.fd_allowed_ptr, fd_allowed.length, fd_allowed.mac),
            )
    except MemoryFault as fault:
        raise AuthViolation(f"bad pointer in authenticated call: {fault}") from fault

    encoded_call = encode_policy(
        descriptor,
        regs[0],
        vm.pc,
        record.block_id,
        params,
        predset=predset_triple,
        lastblock_address=record.lastblock_ptr,
        capability=capability_spec,
    )
    return DecodedCall(
        record=record,
        encoded_call=encoded_call,
        immediates=tuple(immediates),
        strings=tuple(strings),
        predset=predset,
        fd_allowed=fd_allowed,
    )


@dataclass
class CheckResult:
    """Outcome of a successful check."""

    syscall_number: int
    block_id: int
    #: Total AES blocks MAC'd during the check (drives the cycle cost).
    mac_blocks: int
    cycles: int
    #: §5.3 capability constraint (verified-authentic): parameter
    #: bitmask and the permitted producing-site block ids.
    fd_mask: int = 0
    fd_allowed: frozenset = frozenset()
    #: The decode the full check accepted; the verifier JIT compiles
    #: the site's thunk from it.  (A thunk hit's verdict is the
    #: :class:`~repro.kernel.verifierjit.SiteThunk` itself.)
    call: Optional[DecodedCall] = None


class AuthChecker:
    """Stateless checker bound to the kernel's AES-CMAC."""

    def __init__(
        self,
        provider: AesCmac,
        costs: CostModel,
        recorder: Recorder = NULL_RECORDER,
    ):
        self._provider = provider
        self._costs = costs
        #: Observability hook.  Every use is guarded on
        #: ``recorder.enabled`` so the default NullRecorder costs one
        #: attribute load + branch per stage (see DESIGN.md
        #: "Observability").
        self._recorder = recorder

    # -- the three checks of §3.4 ---------------------------------------

    def check(self, vm: VM, process: Process) -> CheckResult:
        """Validate the ASYS trap currently pending on ``vm`` with the
        paper's full check: every MAC is computed.  Raises
        :class:`AuthViolation` if any check fails."""
        syscall_number = vm.regs[0]
        # The encoded call packs the number in 16 bits, so a trapped
        # value with high bits set could never have been MAC'd — yet
        # truncation would make it *verify* (and then dispatch on the
        # unauthenticated full value).  Out-of-domain numbers are
        # therefore proof of tampering in their own right; the fault
        # battery's register-tamper faults exercise exactly this.
        if syscall_number > 0xFFFF:
            raise AuthViolation(
                f"unauthenticatable syscall number {syscall_number:#x} "
                f"(exceeds the 16-bit encoded domain)"
            )
        call_site = vm.pc

        # Observability: the four verification stages of the paper's
        # cost breakdown, as nested spans under the kernel's
        # "syscall-verify" root (the trap handler owns that span so the
        # verifier-JIT fast path and this full check share one span per
        # trap).  A violation aborts mid-stage; the kernel unwinds the
        # span stack (close_to) after the kill, so pairs always balance.
        rec = self._recorder
        traced = rec.enabled
        if traced:
            rec.begin("policy-decode", "verify")

        # ---- Step 1: reconstruct the encoded call and check callMAC ----
        call = decode_call(vm)
        record = call.record
        descriptor = record.descriptor
        if traced:
            rec.end()  # policy-decode
            rec.begin("mac-check", "verify")
        blocks = mac_blocks(len(call.encoded_call))
        if not self._provider.verify(call.encoded_call, record.call_mac):
            raise AuthViolation(
                f"call MAC mismatch for syscall {syscall_number} "
                f"at {call_site:#010x}"
            )

        # ---- Step 2: verify authenticated string contents ----
        if traced:
            rec.end()  # mac-check
            rec.begin("string-auth", "verify")
        for index, _, auth_string, _ in call.strings:
            blocks += mac_blocks(auth_string.length)
            if not auth_string.verify(self._provider):
                raise AuthViolation(
                    f"string argument {index} failed integrity check "
                    f"at {call_site:#010x}"
                )
        if call.predset is not None:
            blocks += mac_blocks(call.predset.length)
            if not call.predset.verify(self._provider):
                raise AuthViolation(
                    f"predecessor set failed integrity check at {call_site:#010x}"
                )
        if call.fd_allowed is not None:
            blocks += mac_blocks(call.fd_allowed.length)
            if not call.fd_allowed.verify(self._provider):
                raise AuthViolation(
                    f"capability producer set failed integrity check "
                    f"at {call_site:#010x}"
                )

        # ---- Step 3: control flow (the online memory checker) ----
        if traced:
            rec.end()  # string-auth
        if descriptor.control_flow_constrained:
            assert call.predset is not None
            if traced:
                rec.begin("memory-checker", "verify")
            blocks += self._check_control_flow(
                vm, process, record, call.predset.content, call_site
            )
            if traced:
                rec.end()

        # ---- Extensions: pattern matching with proof hints (§5.1) ----
        if record.pattern_ptrs:  # one per pattern parameter
            # Runtime pattern arguments are string authentication work;
            # their span shares the "string-auth" stage bucket.
            if traced:
                rec.begin("string-auth", "verify")
            self._check_patterns(vm, call.strings, call_site)
            if traced:
                rec.end()

        fd_allowed: frozenset = frozenset()
        if call.fd_allowed is not None:
            fd_allowed = unpack_predecessor_set(call.fd_allowed.content)
        return CheckResult(
            syscall_number=syscall_number,
            block_id=record.block_id,
            mac_blocks=blocks,
            cycles=self._costs.auth_cost_blocks(blocks),
            fd_mask=record.fd_mask,
            fd_allowed=fd_allowed,
            call=call,
        )

    # -- control flow -----------------------------------------------------

    def _check_control_flow(
        self,
        vm: VM,
        process: Process,
        record: AuthRecord,
        predset_content: bytes,
        call_site: int,
    ) -> int:
        """§3.4's five control-flow steps; returns AES blocks used."""
        blocks = 0
        memory = vm.memory
        try:
            last_block, lb_mac = read_policy_state(memory, record.lastblock_ptr)
        except MemoryFault as fault:
            raise AuthViolation(f"unreadable policy state: {fault}") from fault

        # 1. lbMAC == MAC(lastBlock + counter)?
        payload = state_mac_payload(last_block, process.auth_counter)
        blocks += mac_blocks(len(payload))
        if not self._provider.verify(payload, lb_mac):
            raise AuthViolation(
                f"policy state MAC mismatch at {call_site:#010x} "
                f"(replay or corruption of lastBlock)"
            )

        # 2. lastBlock in predSet?
        predecessors = unpack_predecessor_set(predset_content)
        if last_block not in predecessors:
            raise AuthViolation(
                f"control flow violation at {call_site:#010x}: block "
                f"{last_block} not a permitted predecessor of block "
                f"{record.block_id}"
            )

        # 3-5. advance the nonce, update lastBlock, re-MAC.
        process.auth_counter += 1
        new_payload = state_mac_payload(record.block_id, process.auth_counter)
        new_mac = self._provider.tag(new_payload)
        blocks += mac_blocks(len(new_payload))
        try:
            memory.write(
                record.lastblock_ptr,
                pack_policy_state(record.block_id, new_mac),
                force=True,
            )
        except MemoryFault as fault:
            raise AuthViolation(f"unwritable policy state: {fault}") from fault
        return blocks

    # -- patterns -----------------------------------------------------------

    def _check_patterns(self, vm: VM, strings: tuple, call_site: int) -> None:
        """Verify pattern-constrained arguments using the r8 hint block."""
        hints = self._read_hints(vm)
        hint_cursor = 0
        for index, _, pattern_as, is_pattern in strings:
            if not is_pattern:
                continue
            try:
                pattern = Pattern.parse(pattern_as.content.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as err:
                raise AuthViolation(f"undecodable pattern: {err}") from err
            try:
                argument = vm.memory.read_cstring(
                    vm.regs[1 + index], MAX_RUNTIME_STRING, force=True
                )
            except MemoryFault as fault:
                raise AuthViolation(
                    f"unreadable pattern argument {index}: {fault}"
                ) from fault
            slots = pattern.hint_slots
            hint = hints[hint_cursor : hint_cursor + slots]
            hint_cursor += slots
            if len(hint) != slots or not match_with_hint(pattern, argument, hint):
                raise AuthViolation(
                    f"argument {index} does not match pattern "
                    f"{pattern.source!r} at {call_site:#010x}"
                )

    def _read_hints(self, vm: VM) -> tuple[int, ...]:
        return read_hint_words(vm)


def read_hint_words(vm: VM) -> tuple[int, ...]:
    """Read the r8 proof-hint block (shared by the full check and the
    verifier thunks; both must bound and fault identically)."""
    hint_ptr = vm.regs[8]
    if not hint_ptr:
        return ()
    try:
        count = vm.memory.read_u32(hint_ptr, force=True)
        if count > MAX_HINT_WORDS:
            raise AuthViolation(f"oversized hint block ({count} words)")
        raw = vm.memory.read(hint_ptr + 4, 4 * count, force=True)
    except MemoryFault as fault:
        raise AuthViolation(f"unreadable hint block: {fault}") from fault
    return tuple(
        struct.unpack_from("<I", raw, 4 * i)[0] for i in range(count)
    )
