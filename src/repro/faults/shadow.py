"""Shadow verification: a per-trap differential oracle for the thunks.

The fault and conformance sweeps compare whole-run signatures; this
oracle checks every single trap a compiled verifier thunk accepts,
fresh or refreshed.  Before such a trap it copies the pre-trap state —
the registers, the per-process counter and the address space (copied
the way fork copies it) — and after the thunk accepts, it re-runs the
paper's full check (:meth:`~repro.kernel.auth.AuthChecker.check`) on
that private copy.  The full check must accept too, with the same
syscall number, block id, fd mask and allowed set, the same post-trap
counter and lastBlock/lbMAC bytes, and exactly the thunk's AES blocks
plus the call MAC's.  Anything else is a disagreement, which the
sweeps report as a MISSED fault or a divergence.

The oracle only reads the run under test: its checker has its own MAC
provider and no recorder, and it writes only its private copy, so
signatures, counters and reports are the same as without it.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.kernel import Kernel
from repro.kernel.auth import AuthChecker, AuthViolation
from repro.kernel.costs import mac_blocks
from repro.kernel.kernel import fork_address_space
from repro.crypto import mac_provider_for_key
from repro.policy.record import POLSTATE_SIZE


class ShadowVerifier:
    """Attach to a fresh kernel (before it loads anything); every pid's
    thunk partition is then shadowed."""

    def __init__(self, kernel: Kernel):
        self._checker = AuthChecker(mac_provider_for_key(kernel.key), kernel.costs)
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
            if jit.thunk_at(vm.pc) is None:
                return execute(vm, process)
            shadow_vm = SimpleNamespace(
                regs=list(vm.regs), pc=vm.pc, memory=fork_address_space(vm.memory)
            )
            shadow_process = SimpleNamespace(auth_counter=process.auth_counter)
            result = execute(vm, process)
            if result is not None:
                self.checked += 1
                problem = self._compare(vm, process, result, shadow_vm, shadow_process)
                if problem:
                    self.disagreements.append(
                        f"pid {process.pid} site {shadow_vm.pc:#010x}: {problem}"
                    )
            return result

        return execute_and_compare

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
            live = vm.memory.read(record.lastblock_ptr, POLSTATE_SIZE, force=True)
            shadow = shadow_vm.memory.read(record.lastblock_ptr, POLSTATE_SIZE, force=True)
            if live != shadow:
                return "lastBlock/lbMAC differs from the full check's"
        return ""
