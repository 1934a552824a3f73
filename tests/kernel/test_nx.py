"""NX ablation: page protection vs authentication as the stopper.

The paper's threat model predates NX; the §4.1 shellcode attack works
*because* readable memory executes.  With ``Kernel(nx=True)`` the same
attack dies at instruction fetch instead of at the trap — but NX does
nothing against mimicry or non-control-data attacks, which is exactly
why authenticated calls matter even on NX hardware.
"""

from repro.attacks import (
    non_control_data_attack,
    shellcode_attack,
)
from repro.attacks.scenarios import _install_victim, _prepare_kernel
from repro.crypto import Key
from repro.kernel.sched.scheduler import FAULT_STATUS
from tests.kernel.conftest import run_guest

KEY = Key.from_passphrase("nx-tests", provider="fast-hmac")


class TestMprotect:
    def test_mprotect_revokes_write(self, kernel):
        result = run_guest(kernel, """
    li r9, cell
    li r10, 1
    st r10, [r9+0]       ; writable before
    mov r1, r9
    li r2, 4096
    li r3, 1             ; PROT_READ only
    call sys_mprotect
    st r10, [r9+0]       ; faults now
    li r1, 0
    call sys_exit
""", ["mprotect"], data=".section .data\ncell:\n  .word 0")
        # The machine fault fail-stops the process with a SIGSEGV status.
        assert result.killed
        assert result.exit_status == FAULT_STATUS
        assert "protection" in result.kill_reason

    def test_mprotect_bad_bits(self, kernel):
        from repro.kernel.errors import Errno

        result = run_guest(kernel, """
    li r1, cell
    li r2, 4096
    li r3, 0xFF
    call sys_mprotect
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["mprotect"], data=".section .data\ncell:\n  .word 0")
        assert result.exit_status == int(Errno.EINVAL)

    def test_mprotect_unmapped(self, kernel):
        from repro.kernel.errors import Errno

        result = run_guest(kernel, """
    li r1, 0x99990000
    li r2, 4096
    li r3, 1
    call sys_mprotect
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["mprotect"])
        assert result.exit_status == int(Errno.ENOMEM)


class TestNxAblation:
    def test_shellcode_dies_at_fetch_under_nx(self):
        # Same §4.1 attack; the NX kernel never reaches the trap — the
        # injected code cannot even execute.
        installed = _install_victim(KEY)
        from repro.attacks.scenarios import _find_buffer_address
        import struct
        from repro.isa import Instruction, encode_instruction
        from repro.isa.opcodes import Op
        from repro.kernel.syscalls import SYSCALL_NUMBERS

        buffer_address = _find_buffer_address(KEY, installed)
        code = encode_instruction(
            Instruction(Op.LI, regs=(0,), imm=SYSCALL_NUMBERS["execve"])
        ) + encode_instruction(Instruction(Op.SYS))
        payload = code.ljust(64, b"\x00") + struct.pack("<I", buffer_address)

        kernel = _prepare_kernel(KEY)
        kernel.nx = True
        result = kernel.run(installed.binary, stdin=payload)
        assert result.killed
        assert result.exit_status == FAULT_STATUS
        assert "NX" in result.kill_reason

    def test_nx_does_not_stop_non_control_data(self):
        # NX is irrelevant here: no injected code executes.  Only the
        # authenticated-string check stops the attack — the reason
        # authentication still matters on NX hardware.
        result = non_control_data_attack(KEY)
        assert result.blocked
        assert "integrity" in result.kill_reason

    def test_authentication_stops_shellcode_without_nx(self):
        result = shellcode_attack(KEY)
        assert result.blocked
        assert "unauthenticated" in result.kill_reason
