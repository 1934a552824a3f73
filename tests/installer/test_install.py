"""The trusted installer: policy generation, rewriting, signing."""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import Key
from repro.installer import (
    InstallError,
    InstallerOptions,
    generate_policy_only,
    install,
)
from repro.isa import decode_instruction
from repro.isa.opcodes import Op
from repro.kernel import Kernel
from repro.policy import MetaPolicy
from repro.policy.descriptor import ParamClass
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("installer-tests")

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
    li r3, 64
    call sys_read
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/etc/motd"
.section .bss
buf:
    .space 64
""" + runtime_source("linux", ("open", "read", "exit"))


@pytest.fixture(scope="module")
def installed():
    return install(assemble(PROGRAM, metadata={"program": "itest"}), KEY)


class TestPolicyGeneration:
    def test_sites_and_syscalls(self, installed):
        policy = installed.policy
        assert installed.sites_rewritten == 3
        assert policy.distinct_syscalls() == {"open", "read", "exit"}

    def test_open_policy_contents(self, installed):
        open_policy = installed.policy.sites[installed.site_for_syscall("open")]
        assert open_policy.params[0].kind is ParamClass.STRING
        assert open_policy.params[0].value == b"/etc/motd"
        assert open_policy.params[1].value == 0
        assert open_policy.control_flow

    def test_read_buffer_is_output(self, installed):
        read_policy = installed.policy.sites[installed.site_for_syscall("read")]
        assert 1 in read_policy.output_params
        assert 1 not in read_policy.params
        assert read_policy.params[2].value == 64

    def test_fd_arg_recorded(self, installed):
        read_policy = installed.policy.sites[installed.site_for_syscall("read")]
        assert 0 in read_policy.fd_params

    def test_predecessor_chain(self, installed):
        policy = installed.policy
        open_p = policy.sites[installed.site_for_syscall("open")]
        read_p = policy.sites[installed.site_for_syscall("read")]
        assert open_p.predecessors == frozenset({0})
        assert read_p.predecessors == frozenset({open_p.block_id})

    def test_sites_keyed_by_call_site_address(self, installed):
        image = link(installed.binary)
        for call_site in installed.policy.sites:
            text = image.segment(".text")
            offset = call_site - text.vaddr
            instr = decode_instruction(text.data, offset)
            assert instr.op == Op.ASYS


class TestRewriting:
    def test_metadata_marks_authenticated(self, installed):
        assert installed.binary.metadata["authenticated"] == "yes"

    def test_new_sections_present(self, installed):
        for name in (".authstr", ".authdata", ".polstate"):
            assert name in installed.binary.sections

    def test_no_plain_sys_remains(self, installed):
        text = installed.binary.sections[".text"]
        for offset in range(0, text.size, 8):
            assert decode_instruction(bytes(text.data), offset).op != Op.SYS

    def test_string_symbol_moved_to_authstr(self, installed):
        symbol = installed.binary.symbols["path"]
        assert symbol.section == ".authstr"

    def test_original_source_unmodified(self):
        binary = assemble(PROGRAM, metadata={"program": "x"})
        before = binary.to_bytes()
        install(binary, KEY)
        assert binary.to_bytes() == before

    def test_runs_correctly(self, installed):
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/etc/motd", b"ok")
        assert kernel.run(installed.binary).ok

    def test_deterministic_output(self):
        binary = assemble(PROGRAM, metadata={"program": "itest"})
        first = install(binary, KEY).binary.to_bytes()
        second = install(binary, KEY).binary.to_bytes()
        assert first == second

    def test_asys_in_uninstalled_input_rejected(self):
        # An input holding an authenticated trap where the analysis
        # finds a site is not an uninstalled binary: a typed install
        # error naming the site, not a bare ValueError.
        binary = assemble(PROGRAM, metadata={"program": "itest"})
        text = binary.sections[".text"].data
        first_sys = next(i for i in range(0, len(text), 8) if text[i] == Op.SYS)
        text[first_sys] = Op.ASYS
        with pytest.raises(InstallError) as excinfo:
            install(binary, KEY)
        assert type(excinfo.value) is InstallError
        assert "site at insn" in str(excinfo.value)
        assert str(excinfo.value).endswith("expected sys, found asys")


class TestOptions:
    def test_program_id_namespaces_blocks(self):
        binary = assemble(PROGRAM, metadata={"program": "itest"})
        inst = install(binary, KEY, InstallerOptions(program_id=3))
        for policy in inst.policy.sites.values():
            assert policy.block_id >> 20 == 3

    def test_capability_tracking_emits_producers(self):
        binary = assemble(PROGRAM, metadata={"program": "itest"})
        inst = install(binary, KEY, InstallerOptions(capability_tracking=True))
        read_policy = inst.policy.sites[inst.site_for_syscall("read")]
        assert 0 in read_policy.fd_producers
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/etc/motd", b"ok")
        assert kernel.run(inst.binary).ok

    def test_metapolicy_unfilled_hole_rejected(self):
        source = """
.section .text
.global _start
_start:
    li r9, cell
    ld r1, [r9+0]
    li r2, 0
    call sys_open
    li r1, 0
    call sys_exit
.section .data
cell:
    .word 0
""" + runtime_source("linux", ("open", "exit"))
        binary = assemble(source, metadata={"program": "dynamic-open"})
        with pytest.raises(InstallError, match="open param 0"):
            install(binary, KEY, InstallerOptions(metapolicy=MetaPolicy.high_threat_default()))

    def test_metapolicy_with_fill_installs(self):
        source = """
.section .text
.global _start
_start:
    li r9, cell
    ld r1, [r9+0]
    li r2, 0
    call sys_open
    li r1, 0
    call sys_exit
.section .data
cell:
    .word pathstr
pathstr:
    .asciz "/etc/motd"
""" + runtime_source("linux", ("open", "exit"))
        binary = assemble(source, metadata={"program": "dynamic-open"})
        inst = install(
            binary,
            KEY,
            InstallerOptions(
                metapolicy=MetaPolicy.high_threat_default(),
                template_fills={("open", 0): "/etc/*"},
            ),
        )
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/etc/motd", b"x")
        result = kernel.run(inst.binary)
        # The pattern has one hint slot and the program supplies no
        # hint block (r8 = 0), so the open is rejected fail-stop —
        # hint-less patterns only work for literal patterns.
        assert result.killed

    def test_literal_pattern_fill_works_without_hints(self):
        source = """
.section .text
.global _start
_start:
    li r9, cell
    ld r1, [r9+0]
    li r2, 0
    call sys_open
    li r1, 0
    call sys_exit
.section .data
cell:
    .word pathstr
pathstr:
    .asciz "/etc/motd"
""" + runtime_source("linux", ("open", "exit"))
        binary = assemble(source, metadata={"program": "dynamic-open"})
        inst = install(
            binary, KEY,
            InstallerOptions(template_fills={("open", 0): "/etc/motd"}),
        )
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/etc/motd", b"x")
        assert kernel.run(inst.binary).ok

    def test_literal_pattern_blocks_other_paths(self):
        source = """
.section .text
.global _start
_start:
    li r9, cell
    ld r1, [r9+0]
    li r2, 0
    call sys_open
    li r1, 0
    call sys_exit
.section .data
cell:
    .word pathstr
pathstr:
    .asciz "/etc/passwd"
""" + runtime_source("linux", ("open", "exit"))
        binary = assemble(source, metadata={"program": "dynamic-open"})
        inst = install(
            binary, KEY,
            InstallerOptions(template_fills={("open", 0): "/etc/motd"}),
        )
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/etc/passwd", b"secret")
        result = kernel.run(inst.binary)
        assert result.killed
        assert "pattern" in result.kill_reason


class TestPolicyOnly:
    def test_non_strict_tolerates_unknown_numbers(self):
        source = """
.section .text
.global _start
_start:
    li r9, cell
    ld r0, [r9+0]
    sys
    li r1, 0
    call sys_exit
.section .data
cell:
    .word 20
""" + runtime_source("linux", ("exit",))
        binary = assemble(source, metadata={"program": "weird"})
        policy = generate_policy_only(binary)
        assert len(policy.unidentified_sites) == 1
        assert policy.distinct_syscalls() == {"exit"}

    def test_strict_install_rejects_unknown_numbers(self):
        source = """
.section .text
.global _start
_start:
    li r9, cell
    ld r0, [r9+0]
    sys
    li r1, 0
    call sys_exit
.section .data
cell:
    .word 20
""" + runtime_source("linux", ("exit",))
        binary = assemble(source, metadata={"program": "weird"})
        from repro.installer import PolicyGenerationError

        with pytest.raises(PolicyGenerationError):
            install(binary, KEY)


class TestOpenbsdInstall:
    def test_syscall_indirection_installs_and_runs(self):
        """The OpenBSD mmap stub (via __syscall) is installable: the
        policy constrains the indirection's first argument to the real
        mmap number, exactly as §4.2 describes."""
        source = """
.section .text
.global _start
_start:
    li r1, 0
    li r2, 8192
    li r3, 3
    li r4, 0x22
    li r5, 0xFFFFFFFF
    call sys_mmap
    mov r14, r0
    li r9, 9
    st r9, [r14+0]
    ld r1, [r14+0]
    call sys_exit
""" + runtime_source("openbsd", ("mmap", "exit"))
        binary = assemble(
            source, metadata={"program": "obsd-mmap", "personality": "openbsd"}
        )
        inst = install(binary, KEY)
        indirect = [
            p for p in inst.policy.sites.values() if p.syscall == "__syscall"
        ]
        assert len(indirect) == 1
        assert indirect[0].params[0].value == 90  # the real mmap number
        result = Kernel(key=KEY).run(inst.binary)
        assert not result.killed, result.kill_reason
        assert result.exit_status == 9

    def test_tampered_inner_number_fail_stops(self):
        """Redirecting the indirection to a different inner call (e.g.
        unlink) changes the constrained first argument -> MAC fail."""
        source = """
.section .text
.global _start
_start:
    li r1, 0
    li r2, 8192
    li r3, 3
    li r4, 0x22
    li r5, 0xFFFFFFFF
    call sys_mmap
    li r1, 0
    call sys_exit
""" + runtime_source("openbsd", ("mmap", "exit"))
        binary = assemble(
            source, metadata={"program": "obsd-mmap", "personality": "openbsd"}
        )
        inst = install(binary, KEY)
        kernel = Kernel(key=KEY)
        process, vm = kernel.load(inst.binary)
        site = inst.site_for_syscall("__syscall")

        class Redirector:
            def handle_trap(self, inner_vm, authenticated):
                if inner_vm.pc == site:
                    inner_vm.regs[1] = 10  # unlink instead of mmap
                return kernel.handle_trap(inner_vm, authenticated)

        vm.trap_handler = Redirector()
        vm.run()
        assert vm.killed
        assert "MAC mismatch" in vm.kill_reason
