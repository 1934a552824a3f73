"""Authenticated system call checking (§3.4): the security core.

These tests install a small program and then tamper with specific
pieces — each check of the kernel's three-step validation must catch
its corresponding corruption, and untampered runs must pass.
"""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import AesCmac, Key
from repro.installer import InstallerOptions, install
from repro.kernel import EnforcementMode, Kernel
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("test-auth")

PROGRAM = """
.section .text
.global _start
_start:
    li r1, path
    li r2, 0
    call sys_open
    mov r14, r0
    mov r1, r14
    li r2, buf
    li r3, 32
    call sys_read
    li r1, 1
    li r2, buf
    mov r3, r0
    call sys_write
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/etc/motd"
.section .bss
buf:
    .space 32
""" + runtime_source("linux", ("open", "read", "write", "exit"))


@pytest.fixture(scope="module")
def installed():
    binary = assemble(PROGRAM, metadata={"program": "authtest"})
    return install(binary, KEY)


def _kernel():
    kernel = Kernel(key=KEY)
    kernel.vfs.write_file("/etc/motd", b"greetings")
    return kernel


class TestHappyPath:
    def test_authenticated_run_succeeds(self, installed):
        result = _kernel().run(installed.binary)
        assert result.ok
        assert result.stdout == b"greetings"

    def test_repeat_runs_are_independent(self, installed):
        kernel = _kernel()
        for _ in range(3):
            assert kernel.run(installed.binary).ok

    def test_enforcing_mode_accepts_authenticated(self, installed):
        kernel = _kernel()
        kernel.mode = EnforcementMode.ENFORCE
        assert kernel.run(installed.binary).ok

    def test_auth_cycles_charged(self, installed):
        raw = assemble(PROGRAM, metadata={"program": "authtest"})
        plain = _kernel().run(raw)
        checked = _kernel().run(installed.binary)
        assert checked.cycles > plain.cycles
        # ~4k+ cycles per checked call (Table 4's surcharge).
        per_call = (checked.cycles - plain.cycles) / checked.syscalls
        assert 3000 < per_call < 15000


class TestWrongKey:
    def test_key_mismatch_fail_stops(self, installed):
        kernel = Kernel(key=Key.from_passphrase("other"))
        kernel.vfs.write_file("/etc/motd", b"x")
        result = kernel.run(installed.binary)
        assert result.killed
        assert "MAC mismatch" in result.kill_reason

    def test_rotated_key_invalidates_binaries(self, installed):
        kernel = _kernel()
        assert kernel.run(installed.binary).ok
        kernel.key = Key.generate()
        from repro.kernel.auth import AuthChecker

        kernel.mac = AesCmac(kernel.key.material)
        kernel._checker = AuthChecker(kernel.mac, kernel.costs)
        assert kernel.run(installed.binary).killed


def _tamper_and_run(installed, mutate):
    """Load, apply a memory mutation, run; returns the RunResult-ish vm."""
    kernel = _kernel()
    process, vm = kernel.load(installed.binary)
    image = link(installed.binary)
    mutate(vm, image, installed)
    vm.run()
    return kernel, process, vm


class TestTampering:
    def test_flipped_call_mac(self, installed):
        def mutate(vm, image, inst):
            site = inst.site_for_syscall("open")
            record = image.address_of(inst.site_records[site])
            byte = vm.memory.read(record + 16, 1, force=True)[0]
            vm.memory.write(record + 16, bytes([byte ^ 1]), force=True)

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed and "call MAC mismatch" in vm.kill_reason

    def test_weakened_policy_descriptor(self, installed):
        def mutate(vm, image, inst):
            site = inst.site_for_syscall("open")
            record = image.address_of(inst.site_records[site])
            vm.memory.write_u32(record, 0, force=True)  # descriptor := 0

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed and "MAC mismatch" in vm.kill_reason

    def test_swapped_block_id(self, installed):
        def mutate(vm, image, inst):
            site = inst.site_for_syscall("open")
            record = image.address_of(inst.site_records[site])
            vm.memory.write_u32(record + 4, 999, force=True)

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed

    def test_corrupted_string_content(self, installed):
        def mutate(vm, image, inst):
            path = image.address_of("path")
            vm.memory.write(path, b"/etc/passwd"[:9], force=True)

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed and "integrity" in vm.kill_reason

    def test_corrupted_string_length(self, installed):
        def mutate(vm, image, inst):
            path = image.address_of("path")
            vm.memory.write_u32(path - 20, 3, force=True)  # shrink length

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed

    def test_absurd_string_length_bounded(self, installed):
        # A forged huge length must not stall the kernel; it is killed.
        def mutate(vm, image, inst):
            path = image.address_of("path")
            vm.memory.write_u32(path - 20, 0xFFFFFF, force=True)

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed

    def test_corrupted_predecessor_set(self, installed):
        def mutate(vm, image, inst):
            site = inst.site_for_syscall("read")
            record = image.address_of(inst.site_records[site])
            predset = vm.memory.read_u32(record + 8, force=True)
            vm.memory.write_u32(predset, 0xDEAD, force=True)

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed

    def test_corrupted_lastblock(self, installed):
        def mutate(vm, image, inst):
            polstate = image.address_of("__asc_polstate")
            vm.memory.write_u32(polstate, 42, force=True)

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed and "policy state" in vm.kill_reason

    def test_dangling_record_pointer(self, installed):
        def mutate(vm, image, inst):
            site = inst.site_for_syscall("open")
            # The LI r7 immediately before the ASYS holds the record
            # pointer; repoint it at unmapped memory.
            vm.memory.write_u32(site - 8 + 4, 0x99999000, force=True)
            vm._decode_cache.clear()

        _, _, vm = _tamper_and_run(installed, mutate)
        assert vm.killed and "auth record" in vm.kill_reason

    def test_audit_log_records_kills(self, installed):
        kernel = _kernel()
        process, vm = kernel.load(installed.binary)
        image = link(installed.binary)
        site = installed.site_for_syscall("open")
        record = image.address_of(installed.site_records[site])
        byte = vm.memory.read(record + 16, 1, force=True)[0]
        vm.memory.write(record + 16, bytes([byte ^ 1]), force=True)
        vm.run()
        kills = kernel.audit.kills()
        assert len(kills) == 1
        assert kills[0].syscall == "open"
        assert kills[0].call_site == site


class TestControlFlowPolicy:
    def test_predecessors_enforced_in_order(self, installed):
        # The legitimate order passes (already covered); skipping a
        # call by jumping over it must fail.
        kernel = _kernel()
        process, vm = kernel.load(installed.binary)
        read_site = installed.site_for_syscall("read")
        # Jump directly to the read sequence, skipping open entirely.
        vm.pc = read_site - 8 * 4
        vm.regs[1] = 3
        vm.run()
        assert vm.killed

    def test_no_control_flow_option(self):
        binary = assemble(PROGRAM, metadata={"program": "authtest"})
        inst = install(binary, KEY, InstallerOptions(control_flow=False))
        for policy in inst.policy.sites.values():
            assert not policy.control_flow
        result = _kernel().run(inst.binary)
        assert result.ok


class TestUnauthenticatedCalls:
    def test_plain_sys_blocked_in_protected_binary(self, installed):
        from repro.isa import Instruction, encode_instruction
        from repro.isa.opcodes import Op

        kernel = _kernel()
        process, vm = kernel.load(installed.binary)
        text = vm.memory.find_region(".text")
        vm.memory.write(
            text.start,
            encode_instruction(Instruction(Op.LI, regs=(0,), imm=20))
            + encode_instruction(Instruction(Op.SYS)),
            force=True,
        )
        vm._decode_cache.clear()
        vm.run()
        assert vm.killed
        assert "unauthenticated" in vm.kill_reason

    def test_legacy_binary_allowed_in_permissive(self):
        binary = assemble(PROGRAM, metadata={"program": "legacy"})
        kernel = _kernel()
        assert kernel.run(binary).ok

    def test_legacy_binary_killed_in_enforcing(self):
        binary = assemble(PROGRAM, metadata={"program": "legacy"})
        kernel = _kernel()
        kernel.mode = EnforcementMode.ENFORCE
        result = kernel.run(binary)
        assert result.killed
