"""Per-site verifier specialization: the kernel's one fast path for §3.4.

The execution engines specialize *CPU* work per basic block (PR 2/6);
this module applies the same move to the kernel's verification path.
The paper's per-call-site policies are almost entirely static — the
auth record, the encoded policy, the authenticated strings, and the
predecessor set are burned into read-only sections at install time —
yet the paper's full check re-parses, re-encodes and re-MACs all of
them on every trap.  SFIP and SysPart exploit the same staticness with
precomputed per-site/per-phase lookup tables; here we compile it away.

A site's first trap runs the full check
(:meth:`repro.kernel.auth.AuthChecker.check`).  From the
:class:`~repro.kernel.auth.DecodedCall` that check accepted,
:class:`VerifierJit` compiles a :class:`SiteThunk`: a pre-bound
verifier that inlines exactly the checks that site needs —

- the record parse, parameter walk, and encoded-call reconstruction
  collapse into direct register comparisons against the verified
  values (a site with no string arguments never touches string-auth
  code at all; a site with no constant arguments runs no comparison
  loop);
- the predecessor-set decode collapses into a pre-resolved
  ``frozenset`` membership probe;
- the policy material the check MAC'd (record bytes, AS headers and
  contents, the pattern objects of §5.1) is covered by *write-version
  guards* on every memory region it was read from, instead of being
  re-read and re-MAC'd.

What stays live on every thunk execution is everything bound to the
per-process counter or to runtime values: the lastBlock/lbMAC state is
read from guest memory, MAC-verified against the current counter,
probed against the predecessor set, then advanced and re-MAC'd;
pattern-constrained runtime arguments are re-matched against live
memory and r8 hints.  Only *where* the state lives is pre-resolved: the
compiler binds the :class:`~repro.cpu.memory.Region` and offset of the
site's 20 state bytes, so a hit reads them with one ``unpack_from``
(after re-checking that the region still holds them) and commits them
with :meth:`Region.store <repro.cpu.memory.Region.store>`, the write
:meth:`Memory.write <repro.cpu.memory.Memory.write>` itself makes:
watchers first, then the bytes, then the version bump.

A hit returns the :class:`SiteThunk` itself as the verdict: it carries
the syscall number, block id, AES blocks, cycles and §5.3 fd mask and
allowed set the kernel reads from a
:class:`~repro.kernel.auth.CheckResult`, so a hit allocates nothing.

Soundness mirrors the block-chaining pre-image invalidation story
(DESIGN.md "Execution engines"): any store into a region holding
policy material — legitimate or hostile — bumps that region's write
version and fails a guard.  A stale thunk is then *refreshed*: it
re-decodes the live call with the checker's own step-1 decoder
(:func:`~repro.kernel.auth.decode_call`) and compares the encoded
call, the call MAC and every AS content against what the full check
accepted.  Only if all are byte-identical — so the full check would
reach the same step-1/step-2 verdict — does it re-snapshot the guards
and go on; anything else drops the thunk and the full check decides.
A thunk never raises: *any* divergence returns ``None`` and the full
check reproduces the exact :class:`~repro.kernel.auth.AuthViolation`.
Since only a forged MAC can make a dropped site verify again, a
dropped site never churns.

A hit, fresh or refreshed, charges ``auth_cost_fastpath(blocks, 1)``:
the full check's AES blocks minus the call MAC's, plus one compare.

Thunks are per-process (the partition lives and dies with the pid):
exit and execve drop the partition, fork children start empty — a
sibling's thunk is never reused, so the cross-process counter
divergence is isolated by construction.  ``Kernel(fastpath=False)``
(``--no-fastpath``) runs the full check on every trap instead.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.memory import Memory, MemoryFault
from repro.cpu.vm import VM
from repro.crypto import AesCmac
from repro.kernel.auth import (
    MAX_RUNTIME_STRING,
    AuthViolation,
    CheckResult,
    DecodedCall,
    decode_call,
    read_hint_words,
)
from repro.kernel.costs import CostModel, mac_blocks
from repro.kernel.process import Process
from repro.obs import NULL_RECORDER, MetricsRegistry, Recorder
from repro.policy.authstrings import AS_HEADER_SIZE
from repro.policy.encode import unpack_predecessor_set
from repro.policy.patterns import Pattern, match_with_hint
from repro.policy.record import LASTBLOCK, POLSTATE, POLSTATE_SIZE, STATE_PAYLOAD

_COUNTER_MASK = 0xFFFFFFFFFFFFFFFF


class SiteThunk:
    """One compiled per-site verifier (see module docstring), and the
    verdict of each of its hits: it has the attributes of a
    :class:`~repro.kernel.auth.CheckResult` the kernel reads.

    Everything but ``guards`` is immutable after compilation; per-call
    state (the counter, the polstate bytes, runtime pattern arguments)
    is read live in :meth:`VerifierJit.execute`.
    """

    __slots__ = (
        "syscall_number",
        "record_ptr",
        "call",
        "guards",
        "reg_checks",
        "patterns",
        "control",
        "block_id",
        "mac_blocks",
        "cycles",
        "fd_mask",
        "fd_allowed",
    )

    def __init__(
        self,
        syscall_number: int,
        record_ptr: int,
        call: DecodedCall,
        guards: tuple,
        reg_checks: tuple,
        patterns: tuple,
        control: Optional[tuple],
        mac_blocks: int,
        cycles: int,
        fd_allowed: frozenset,
    ):
        self.syscall_number = syscall_number
        self.record_ptr = record_ptr
        #: The decode the full check accepted; a refresh compares the
        #: live decode's verdict bytes against it.
        self.call = call
        #: ((region, version), ...) — every region the full check read
        #: policy material from; any mismatch triggers a refresh.
        self.guards = guards
        #: ((register index, expected value), ...) — the encoded-call
        #: reconstruction, collapsed to equality checks.
        self.reg_checks = reg_checks
        #: ((register index, Pattern, hint slots), ...) for §5.1 sites.
        self.patterns = patterns
        #: (polstate region, offset in it, predecessor frozenset,
        #: packed block id) for control-flow-constrained sites, else
        #: None.
        self.control = control
        self.block_id = call.record.block_id
        #: AES blocks a hit MACs: the full check's minus the call MAC's.
        self.mac_blocks = mac_blocks
        self.cycles = cycles
        self.fd_mask = call.record.fd_mask
        self.fd_allowed = fd_allowed


def _guards(memory: Memory, record_ptr: int, call: DecodedCall) -> tuple:
    """Snapshot the write version of every region holding a byte of the
    call's policy material: the record and each AS header and content.
    Raises :class:`MemoryFault` if any of it is unmapped."""
    guards: dict[int, tuple] = {}

    def guard(address: int) -> None:
        region = memory.region_at(address)
        guards[id(region)] = (region, region.version)

    guard(record_ptr)
    guard(record_ptr + call.record.size - 1)
    for address, auth_string in call.authenticated_strings():
        guard(address - AS_HEADER_SIZE)
        guard(address)
        if auth_string.length:
            guard(address + auth_string.length - 1)
    return tuple(guards.values())


class VerifierJit:
    """The per-process thunk partition."""

    #: Site cap: overflow is pathology and answered with a full flush,
    #: never an eviction policy.
    MAX_SITES = 4096

    def __init__(
        self,
        provider: AesCmac,
        costs: CostModel,
        metrics: MetricsRegistry,
        recorder: Recorder = NULL_RECORDER,
    ):
        self._provider = provider
        self._costs = costs
        self._metrics = metrics
        self._recorder = recorder
        self._thunks: dict[int, SiteThunk] = {}

    def __len__(self) -> int:
        return len(self._thunks)

    def thunk_at(self, call_site: int) -> Optional[SiteThunk]:
        """Test/introspection hook: the compiled thunk for a site."""
        return self._thunks.get(call_site)

    # -- the fast path ---------------------------------------------------

    def execute(self, vm: VM, process: Process) -> Optional[SiteThunk]:
        """Run the compiled verifier for the pending trap, if any.

        Returns the hit's :class:`SiteThunk` as its verdict, or
        ``None`` to fall back to the full check.  Never raises and
        never mutates state (counter, polstate) unless every check has
        already passed."""
        thunk = self._thunks.get(vm.pc)
        if thunk is None:
            return None
        regs = vm.regs
        if regs[0] != thunk.syscall_number or regs[7] != thunk.record_ptr:
            return None
        for region, version in thunk.guards:
            if region.version != version:
                # Policy material was written since the last snapshot —
                # legitimately or not.  Keep the thunk only if the live
                # material is byte-identical to what the check accepted.
                if not self._refresh(vm, thunk):
                    self._drop(vm.pc)
                    return None
                break
        for index, expected in thunk.reg_checks:
            if regs[index] != expected:
                return None
        control = thunk.control
        if control is not None:
            polstate, offset, predecessors, block_prefix = control
            if offset + POLSTATE_SIZE > len(polstate.data):
                return None  # the state's region shrank; the full check reports it
            last_block, lb_mac = POLSTATE.unpack_from(polstate.data, offset)
            counter = process.auth_counter
            payload = STATE_PAYLOAD.pack(last_block, counter & _COUNTER_MASK)
            if not self._provider.verify(payload, lb_mac):
                return None  # replay/corruption; the full check fail-stops
            if last_block not in predecessors:
                return None  # control-flow violation; the full check reports
        if thunk.patterns:
            memory = vm.memory
            try:
                hints = read_hint_words(vm)
            except AuthViolation:
                return None
            cursor = 0
            for index, pattern, slots in thunk.patterns:
                try:
                    argument = memory.read_cstring(
                        regs[index], MAX_RUNTIME_STRING, force=True
                    )
                except MemoryFault:
                    return None
                hint = hints[cursor : cursor + slots]
                cursor += slots
                if len(hint) != slots or not match_with_hint(
                    pattern, argument, hint
                ):
                    return None
        # Every check passed; commit in the full check's order but only
        # after nothing can fail, so a fallback never re-runs the
        # memory checker against half-advanced state.  The bounds
        # checked above still hold: nothing since has written memory.
        if control is not None:
            new_counter = counter + 1
            new_mac = self._provider.tag(
                STATE_PAYLOAD.pack(thunk.block_id, new_counter & _COUNTER_MASK)
            )
            polstate.store(offset, block_prefix + new_mac)
            process.auth_counter = new_counter
        self._metrics.inc("verifier.thunk_hits")
        return thunk

    def _refresh(self, vm: VM, thunk: SiteThunk) -> bool:
        """Re-validate a thunk whose guards went stale: True (with fresh
        guards) iff the live call decodes to the verdict bytes the full
        check accepted."""
        try:
            live = decode_call(vm)
            if live.verdict_bytes() != thunk.call.verdict_bytes():
                return False
            thunk.guards = _guards(vm.memory, thunk.record_ptr, live)
        except (AuthViolation, MemoryFault):
            return False
        self._metrics.inc("verifier.thunks_refreshed")
        return True

    # -- compilation -----------------------------------------------------

    def compile_site(
        self, vm: VM, process: Process, result: CheckResult
    ) -> Optional[SiteThunk]:
        """Specialize the site of the trap that ``result`` just fully
        verified, from the decode the check already made (no policy
        material is read twice), snapshotting the write version of
        every region it came from."""
        rec = self._recorder
        traced = rec.enabled
        if traced:
            rec.begin("verifier-compile", "verify")
        try:
            thunk = self._build(vm, result)
        except MemoryFault:
            thunk = None
        finally:
            if traced:
                rec.end()
        if thunk is None:
            return None
        if len(self._thunks) >= self.MAX_SITES:
            self._metrics.inc("verifier.thunks_invalidated", len(self._thunks))
            self._thunks.clear()
        self._thunks[vm.pc] = thunk
        self._metrics.inc("verifier.thunks_compiled")
        return thunk

    def _build(self, vm: VM, result: CheckResult) -> SiteThunk:
        call = result.call
        record = call.record
        reg_checks = list(call.immediates)
        patterns = []
        for index, address, auth_string, is_pattern in call.strings:
            if is_pattern:
                # The full check just parsed this very content.
                pattern = Pattern.parse(auth_string.content.decode("utf-8"))
                patterns.append((1 + index, pattern, pattern.hint_slots))
            else:
                reg_checks.append((1 + index, address))
        control = None
        if record.descriptor.control_flow_constrained:
            # The full check just read and wrote these bytes, so the
            # lookup cannot fault.
            polstate = vm.memory.region_at(record.lastblock_ptr)
            control = (
                polstate,
                record.lastblock_ptr - polstate.start,
                unpack_predecessor_set(call.predset.content),
                LASTBLOCK.pack(record.block_id),
            )
        # A hit computes every MAC the full check did except the call's.
        blocks = result.mac_blocks - mac_blocks(len(call.encoded_call))
        return SiteThunk(
            syscall_number=result.syscall_number,
            record_ptr=vm.regs[7],
            call=call,
            guards=_guards(vm.memory, vm.regs[7], call),
            reg_checks=tuple(sorted(reg_checks)),
            patterns=tuple(patterns),
            control=control,
            mac_blocks=blocks,
            cycles=self._costs.auth_cost_fastpath(blocks, 1),
            fd_allowed=result.fd_allowed,
        )

    # -- lifecycle -------------------------------------------------------

    def _drop(self, call_site: int) -> None:
        del self._thunks[call_site]
        self._metrics.inc("verifier.thunks_invalidated")

    def invalidate(self) -> int:
        """Drop every thunk (process exit/execve); returns the count.

        The caller owns the ``verifier.thunks_invalidated`` accounting
        for teardown (it aggregates across the whole partition)."""
        dropped = len(self._thunks)
        self._thunks.clear()
        return dropped
