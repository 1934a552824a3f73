"""Shadow oracles: per-trap verification and per-poll wakeups.

:class:`ShadowVerifier` is a per-trap differential oracle for the
thunks.

The fault and conformance sweeps compare whole-run signatures; this
oracle checks every single trap a compiled verifier thunk accepts,
fresh or refreshed.  Before such a trap it copies the pre-trap state —
the registers, the per-process counter and the address space (copied
the way fork copies it) — and after the thunk accepts, it re-runs the
paper's full check (:meth:`~repro.kernel.auth.AuthChecker.check`) on
that private copy.  The full check must accept too, with the same
syscall number, block id, fd mask and allowed set, the same post-trap
counter and lastBlock/lbMAC bytes, and exactly the thunk's AES blocks
plus the call MAC's.  A thunk that falls back instead must leave the
counter and the lastBlock/lbMAC bytes as it found them, so the full
check that decides the trap sees the pre-trap state.  Anything else is
a disagreement, which the sweeps report as a MISSED fault or a
divergence.

The oracle only reads the run under test: its checker has its own
:class:`~repro.crypto.AesCmac` (so it never shares the kernel's tag
memo) and no recorder, and it writes only its private copy, so
signatures, counters and reports are the same as without it.

:class:`ShadowPoll` is the missed-notify oracle for the wake poll.  The
poll skips a parked call while nothing it waits on has changed; the
shadow re-runs every call the poll skips, and a re-run that completes
is a disagreement: some state change that let the call go on bumped
no counter it watches.  A failed dispatch changes nothing (blocking
handlers raise before they touch state, and ``dispatch`` skips the
syscall tracer on retries), so on a correct kernel the shadowed run
has the results and counters of the run under test.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.cpu.memory import MemoryFault
from repro.kernel import Kernel
from repro.kernel.auth import AuthChecker, AuthViolation
from repro.kernel.costs import mac_blocks
from repro.kernel.kernel import fork_address_space
from repro.kernel.sched.blocking import ProcessBlocked
from repro.crypto import AesCmac
from repro.policy.record import POLSTATE_SIZE


class ShadowVerifier:
    """Attach to a fresh kernel (before it loads anything); every pid's
    thunk partition is then shadowed."""

    def __init__(self, kernel: Kernel):
        self._checker = AuthChecker(AesCmac(kernel.key.material), kernel.costs)
        #: Thunk-accepted traps re-verified so far.
        self.checked = 0
        #: One line per trap the full check did not confirm.
        self.disagreements: list[str] = []
        new_jit = kernel._new_jit

        def shadowed_new_jit():
            jit = new_jit()
            jit.execute = self._shadow(jit)
            return jit

        kernel._new_jit = shadowed_new_jit

    def _shadow(self, jit):
        execute = jit.execute

        def execute_and_compare(vm, process):
            thunk = jit.thunk_at(vm.pc)
            if thunk is None:
                return execute(vm, process)
            shadow_vm = SimpleNamespace(
                regs=list(vm.regs), pc=vm.pc, memory=fork_address_space(vm.memory)
            )
            shadow_process = SimpleNamespace(auth_counter=process.auth_counter)
            result = execute(vm, process)
            if result is None:
                problem = self._untouched(vm, process, thunk, shadow_vm, shadow_process)
            else:
                self.checked += 1
                problem = self._compare(vm, process, result, shadow_vm, shadow_process)
            if problem:
                self.disagreements.append(
                    f"pid {process.pid} site {shadow_vm.pc:#010x}: {problem}"
                )
            return result

        return execute_and_compare

    @staticmethod
    def _untouched(vm, process, thunk, shadow_vm, shadow_process) -> str:
        """Why a thunk that fell back left changed state behind ('' if
        it left the counter and the lastBlock/lbMAC bytes alone)."""
        if process.auth_counter != shadow_process.auth_counter:
            return (
                f"fell back after moving the counter from "
                f"{shadow_process.auth_counter} to {process.auth_counter}"
            )
        record = thunk.call.record
        if record.descriptor.control_flow_constrained and _polstate(
            vm, record
        ) != _polstate(shadow_vm, record):
            return "fell back after rewriting lastBlock/lbMAC"
        return ""

    def _compare(self, vm, process, result, shadow_vm, shadow_process) -> str:
        """Why the full check disagrees with the thunk ('' if it agrees)."""
        try:
            full = self._checker.check(shadow_vm, shadow_process)
        except AuthViolation as violation:
            return f"full check rejects: {violation.reason}"
        thunk_view = (
            result.syscall_number, result.block_id, result.fd_mask, result.fd_allowed,
        )
        full_view = (full.syscall_number, full.block_id, full.fd_mask, full.fd_allowed)
        if thunk_view != full_view:
            return f"verdict {thunk_view} != full check's {full_view}"
        if process.auth_counter != shadow_process.auth_counter:
            return (
                f"counter {process.auth_counter} != full check's "
                f"{shadow_process.auth_counter}"
            )
        call_mac_blocks = mac_blocks(len(full.call.encoded_call))
        if full.mac_blocks != result.mac_blocks + call_mac_blocks:
            return (
                f"AES blocks {result.mac_blocks} + {call_mac_blocks} != "
                f"full check's {full.mac_blocks}"
            )
        record = full.call.record
        if record.descriptor.control_flow_constrained:
            if _polstate(vm, record) != _polstate(shadow_vm, record):
                return "lastBlock/lbMAC differs from the full check's"
        return ""


def _polstate(vm, record):
    """The lastBlock/lbMAC bytes ``record`` names, or None if unmapped."""
    try:
        return vm.memory.read(record.lastblock_ptr, POLSTATE_SIZE, force=True)
    except MemoryFault:
        return None


class ShadowPoll:
    """Attach to a fresh kernel (before it runs anything); every wake
    poll of every scheduler on it is then shadowed.

    Each parked call's ``watch`` is wrapped in a :class:`_Shadowed`,
    whose ``count`` the poll reads once per parked task, right where it
    decides between a retry and a skip."""

    def __init__(self, kernel: Kernel):
        #: Skipped retries re-run so far.
        self.checked = 0
        #: One line per skipped retry that would have completed.
        self.disagreements: list[str] = []
        dispatch = kernel._dispatch

        def dispatch_and_shadow(vm, process, number, block_id=None, retry=False):
            try:
                return dispatch(vm, process, number, block_id, retry)
            except ProcessBlocked as blocked:
                if blocked.watch is not None:
                    blocked.watch = _Shadowed(self, dispatch, vm, process, blocked)
                raise

        kernel._dispatch = dispatch_and_shadow

    def _rerun(self, shadowed: "_Shadowed") -> None:
        """Re-run a dispatch the poll is skipping; it must block again."""
        self.checked += 1
        blocked = shadowed.blocked
        try:
            shadowed.dispatch(
                shadowed.vm, shadowed.process, blocked.number, blocked.block_id, True
            )
        except ProcessBlocked:
            return
        self.disagreements.append(
            f"pid {shadowed.process.pid}: {blocked.name} skipped by the wake "
            f"poll, but a retry completes"
        )


class _Shadowed:
    """A parked call's watch, as the shadow poll sees it."""

    __slots__ = ("shadow", "dispatch", "vm", "process", "blocked", "watch", "stamp")

    def __init__(self, shadow, dispatch, vm, process, blocked):
        self.shadow = shadow
        self.dispatch = dispatch
        self.vm = vm
        self.process = process
        self.blocked = blocked
        self.watch = blocked.watch
        self.stamp = blocked.stamp

    @property
    def count(self) -> int:
        count = self.watch.count
        if count == self.stamp:
            self.shadow._rerun(self)
        return count
