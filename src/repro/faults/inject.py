"""Fault injectors: turn a :class:`~repro.faults.plan.FaultPlan` into
one concrete state corruption at trap time.

Injection happens *inside the trap boundary but before the kernel's
checks* — the :class:`TrapSpy` wraps the kernel's trap handler and
fires the armed injector right before the plan's Nth authenticated
trap is serviced, which is the strongest position for the checks to
defend: the corruption is in place for that very trap's verification.

All memory corruption goes through :meth:`Memory.flip_bit` /
:meth:`Memory.write` with ``force=True`` (the model for faults that
bypass guest protections — read-only policy sections included), which
still bumps region write-versions and fires watchers, so the caches'
staleness guards see every injected flip exactly as they would a
store.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cpu.vm import VM
from repro.crypto import MAC_SIZE
from repro.kernel.syscalls import SYSCALL_NUMBERS
from repro.faults.plan import FaultPlan
from repro.policy.authstrings import AS_HEADER_SIZE
from repro.policy.record import CALL_MAC_OFFSET, read_auth_record


class TrapSpy:
    """Counts authenticated traps, firing the armed injector right
    before the Nth one is serviced.  With no injector it is a pure
    trap counter (the reference runs use it that way, so the traced
    path is byte-for-byte the same in clean and faulted runs).

    ``numbers`` restricts counting (and firing) to traps whose syscall
    number is in the set — the socket kinds use it to index into the
    netserver's send/recv traps only.

    The spy forwards to the kernel's trap handler *as captured at
    construction*, so it can either be installed on one VM
    (``vm.trap_handler = spy``) or shadow the kernel's bound method
    (``kernel.handle_trap = spy.handle_trap``); the latter covers every
    VM in a multiprogrammed run, forked children included."""

    def __init__(
        self,
        kernel,
        trap_index: int = -1,
        injector: Optional[Callable[[VM], None]] = None,
        numbers: Optional[frozenset] = None,
    ):
        self.kernel = kernel
        self.trap_index = trap_index
        self.injector = injector
        self.numbers = numbers
        self.seen = 0
        self.fired = False
        self._forward = kernel.handle_trap

    def handle_trap(self, vm: VM, authenticated: bool) -> int:
        if authenticated and (
            self.numbers is None or vm.regs[0] in self.numbers
        ):
            if (
                self.injector is not None
                and not self.fired
                and self.seen == self.trap_index
            ):
                self.fired = True
                self.injector(vm)
            self.seen += 1
        return self._forward(vm, authenticated)


def make_injector(plan: FaultPlan, image) -> Callable[[VM], None]:
    """Bind a plan to its trap-time injector.

    ``image`` is the workload's linked image — used to resolve section
    bases and record symbols; all live state (registers, the record
    ``r7`` points at) is read from the VM at fire time."""
    builder = _BUILDERS[plan.kind]
    return builder(plan, image)


# -- span flips -------------------------------------------------------------


def _build_section_flip(plan: FaultPlan, image) -> Callable[[VM], None]:
    """record-flip / prewarm-flip: one bit at a seeded offset within a
    policy section (.authdata or .authstr).  May land on dead state —
    a record whose site never traps again — in which case the run must
    stay bit-identical."""
    address = image.segment(plan.section).vaddr + plan.offset

    def inject(vm: VM) -> None:
        vm.memory.flip_bit(address, plan.bit, force=True)

    return inject


def _build_mac_flip(plan: FaultPlan, image) -> Callable[[VM], None]:
    """One bit in the live trap's own call MAC (the record ``r7`` is
    carrying into this very trap)."""

    def inject(vm: VM) -> None:
        address = vm.regs[7] + CALL_MAC_OFFSET + plan.offset % MAC_SIZE
        vm.memory.flip_bit(address, plan.bit, force=True)

    return inject


def _build_as_flip(plan: FaultPlan, image) -> Callable[[VM], None]:
    """One bit in an authenticated string the live trap depends on:
    the predecessor-set AS or a string-constrained argument's AS
    (header length, MAC, or content — all fair game).  Sites with no
    AS at all degrade to a call-MAC flip so the plan still lands on
    live material."""

    def inject(vm: VM) -> None:
        record = read_auth_record(vm.memory, vm.regs[7])
        descriptor = record.descriptor
        targets = []
        if descriptor.control_flow_constrained and record.predset_ptr:
            targets.append(record.predset_ptr)
        for index in descriptor.constrained_params():
            if descriptor.param_is_string(index):
                targets.append(vm.regs[1 + index])
        if not targets:
            _build_mac_flip(plan, image)(vm)
            return
        content = targets[plan.offset % len(targets)]
        length = vm.memory.read_u32(content - AS_HEADER_SIZE, force=True)
        span = AS_HEADER_SIZE + length
        address = content - AS_HEADER_SIZE + (plan.offset >> 4) % span
        vm.memory.flip_bit(address, plan.bit, force=True)

    return inject


def _build_mac_transplant(plan: FaultPlan, image) -> Callable[[VM], None]:
    """Replace the live record's call MAC with another site's — valid
    MAC material, wrong binding.  The encoded call ties the MAC to the
    call site, so genuine-but-transplanted MACs must still die as a
    call-MAC mismatch (the §5.5 concern, in single-event form)."""
    donors = sorted(image.address_of(symbol) for symbol in _record_symbols(image))

    def inject(vm: VM) -> None:
        live = vm.regs[7]
        candidates = [d for d in donors if d != live] or donors
        donor = candidates[plan.offset % len(candidates)]
        mac = vm.memory.read(donor + CALL_MAC_OFFSET, MAC_SIZE, force=True)
        vm.memory.write(live + CALL_MAC_OFFSET, mac, force=True)

    return inject


def _record_symbols(image) -> list[str]:
    authdata = image.segment(".authdata")
    end = authdata.vaddr + authdata.size
    return [
        name
        for name, address in image.symbol_addresses.items()
        if authdata.vaddr <= address < end
    ]


# -- register tampering -----------------------------------------------------


def _build_reg_tamper(plan: FaultPlan, image) -> Callable[[VM], None]:
    """One bit in a trap-argument register the policy constrains: the
    syscall number (r0), the record pointer (r7), or a constrained
    parameter.  Models trap-time tampering with the 'five additional
    arguments' themselves rather than the memory they point at."""

    def inject(vm: VM) -> None:
        record = read_auth_record(vm.memory, vm.regs[7])
        targets = [0, 7] + [
            1 + index for index in record.descriptor.constrained_params()
        ]
        register = targets[plan.offset % len(targets)]
        vm.regs[register] = (vm.regs[register] ^ (1 << (plan.bit % 32))) & 0xFFFFFFFF

    return inject


def _build_sock_reg_tamper(plan: FaultPlan, image) -> Callable[[VM], None]:
    """One bit in a constrained data-transfer register of an
    authenticated ``send``/``recv`` at trap entry: the buffer pointer
    (r2) for ``send``, the length (r3) for ``recv`` — a recv buffer is
    an *output* parameter, unconstrained by design, so its pointer is
    not policy material.  The netserver passes both as ``li`` constants
    (Immediate constraints in the signed record), so the flip must die
    as a call-MAC mismatch in whichever process (server or client)
    trapped."""
    send_number = SYSCALL_NUMBERS["send"]

    def inject(vm: VM) -> None:
        register = 2 if vm.regs[0] == send_number else 3
        vm.regs[register] = (
            vm.regs[register] ^ (1 << (plan.bit % 32))
        ) & 0xFFFFFFFF

    return inject


# -- policy-state desync ----------------------------------------------------


def _build_counter_desync(plan: FaultPlan, image) -> Callable[[VM], None]:
    """Advance the kernel-side replay counter without the matching
    policy-state re-MAC — the stored lbMAC is now a stale epoch and
    the live trap's control-flow check must reject it."""

    def inject(vm: VM) -> None:
        kernel = _kernel_for(vm)
        process = kernel._vm_process[id(vm)]
        process.auth_counter += plan.delta

    return inject


def _build_lastblock_flip(plan: FaultPlan, image) -> Callable[[VM], None]:
    """One bit in the writable .polstate cell (lastBlock or its MAC)."""
    base = image.segment(".polstate").vaddr

    def inject(vm: VM) -> None:
        address = base + plan.offset % image.segment(".polstate").size
        vm.memory.flip_bit(address, plan.bit, force=True)

    return inject


# -- control-flow upset --------------------------------------------------------


def _build_trap_replay(plan: FaultPlan, image) -> Callable[[VM], None]:
    """Service the live trap twice with the same registers, as if an
    upset re-executed the trap instruction.  The first service is the
    legitimate trap; the replay then presents a lastBlock that is the
    site's own block under a current lbMAC, which no loop site lists
    as its predecessor, so the control-flow check must reject it."""

    def inject(vm: VM) -> None:
        registers = list(vm.regs)
        _kernel_for(vm).handle_trap(vm, True)
        vm.regs[:] = registers  # the replay traps with the same registers

    return inject


def _kernel_for(vm: VM):
    """The spy wraps the kernel as ``vm.trap_handler``; unwrap it."""
    handler = vm.trap_handler
    return handler.kernel if isinstance(handler, TrapSpy) else handler


_BUILDERS = {
    "record-flip": _build_section_flip,
    "prewarm-flip": _build_section_flip,
    "mac-flip": _build_mac_flip,
    "as-flip": _build_as_flip,
    "mac-transplant": _build_mac_transplant,
    "reg-tamper": _build_reg_tamper,
    "sock-reg-tamper": _build_sock_reg_tamper,
    "counter-desync": _build_counter_desync,
    "lastblock-flip": _build_lastblock_flip,
    "trap-replay": _build_trap_replay,
}
