"""End-to-end integration: the whole paper pipeline in one place."""

from repro import (
    AsmBuilder,
    EnforcementMode,
    Kernel,
    Key,
    assemble,
    install,
)
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("integration")


class TestFullPipeline:
    def test_assemble_install_run(self):
        source = """
.section .text
.global _start
_start:
    li r1, msg
    li r3, 6
    li r2, msg
    li r1, 1
    call sys_write
    li r1, 0
    call sys_exit
.section .rodata
msg:
    .asciz "works\\n"
""" + runtime_source("linux", ("write", "exit"))
        installed = install(assemble(source, metadata={"program": "e2e"}), KEY)
        kernel = Kernel(key=KEY, mode=EnforcementMode.ENFORCE)
        result = kernel.run(installed.binary)
        assert result.ok
        assert result.stdout == b"works\n"

    def test_builder_dsl_pipeline(self):
        builder = AsmBuilder("dsl-demo")
        builder.section(".text")
        builder.global_("_start")
        builder.label("_start")
        builder.li("r1", 1)
        builder.li("r2", "greeting")
        builder.li("r3", 5)
        builder.call("sys_write")
        builder.li("r1", 0)
        builder.call("sys_exit")
        builder.section(".rodata")
        builder.label("greeting")
        builder.asciz("hello")
        builder.raw(runtime_source("linux", ("write", "exit")))
        installed = install(builder.assemble(), KEY)
        result = Kernel(key=KEY).run(installed.binary)
        assert result.stdout == b"hello"

    def test_serialized_binary_round_trip(self):
        from repro import SefBinary

        source = """
.section .text
.global _start
_start:
    li r1, 33
    call sys_exit
""" + runtime_source("linux", ("exit",))
        installed = install(assemble(source, metadata={"program": "ser"}), KEY)
        restored = SefBinary.from_bytes(installed.binary.to_bytes())
        assert Kernel(key=KEY).run(restored).exit_status == 33

    def test_execve_chain_of_authenticated_binaries(self):
        inner_src = """
.section .text
.global _start
_start:
    li r1, msg
    li r3, 5
    li r2, msg
    li r1, 1
    call sys_write
    li r1, 0
    call sys_exit
.section .rodata
msg:
    .asciz "child"
""" + runtime_source("linux", ("write", "exit"))
        outer_src = """
.section .text
.global _start
_start:
    li r1, target
    li r2, 0
    li r3, 0
    call sys_execve
    li r1, 9
    call sys_exit
.section .rodata
target:
    .asciz "/bin/child"
""" + runtime_source("linux", ("execve", "exit"))
        kernel = Kernel(key=KEY, mode=EnforcementMode.ENFORCE)
        inner = install(assemble(inner_src, metadata={"program": "child"}), KEY)
        kernel.register_binary("/bin/child", inner.binary)
        outer = install(assemble(outer_src, metadata={"program": "parent"}), KEY)
        result = kernel.run(outer.binary)
        assert result.stdout == b"child"
        assert result.exit_status == 0

    def test_enforcing_kernel_refuses_unauthenticated_execve_target(self):
        inner_src = """
.section .text
.global _start
_start:
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("exit",))
        outer_src = """
.section .text
.global _start
_start:
    li r1, target
    li r2, 0
    li r3, 0
    call sys_execve
    mov r1, r0
    call sys_exit
.section .rodata
target:
    .asciz "/bin/legacy"
""" + runtime_source("linux", ("execve", "exit"))
        kernel = Kernel(key=KEY, mode=EnforcementMode.ENFORCE)
        kernel.register_binary(
            "/bin/legacy", assemble(inner_src, metadata={"program": "legacy"})
        )
        outer = install(assemble(outer_src, metadata={"program": "parent"}), KEY)
        result = kernel.run(outer.binary)
        assert result.exit_status != 0  # execve returned -EPERM
        assert any(e.kind == "blocked" for e in kernel.audit.events)


class TestAesCmac:
    """The kernel's one MAC admits a clean run and kills a tampered one."""

    def test_end_to_end(self):
        source = """
.section .text
.global _start
_start:
    call sys_getpid
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))
        installed = install(assemble(source, metadata={"program": "p"}), KEY)
        result = Kernel(key=KEY).run(installed.binary)
        assert result.ok

    def test_tamper_detected(self):
        source = """
.section .text
.global _start
_start:
    li r1, path
    li r2, 0
    call sys_open
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/etc/motd"
""" + runtime_source("linux", ("open", "exit"))
        installed = install(assemble(source, metadata={"program": "p"}), KEY)
        installed.binary.section(".authstr").data[25] ^= 0x01
        result = Kernel(key=KEY).run(installed.binary)
        assert result.killed


class TestMultiProcessIsolation:
    def test_auth_counters_are_per_process(self):
        source = """
.section .text
.global _start
_start:
    call sys_getpid
    call sys_getpid
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))
        installed = install(assemble(source, metadata={"program": "p"}), KEY)
        kernel = Kernel(key=KEY)
        a_process, a_vm = kernel.load(installed.binary)
        b_process, b_vm = kernel.load(installed.binary)
        # Interleave: each process's memory checker must stay coherent.
        steps = 0
        while (a_vm.exit_status is None or b_vm.exit_status is None) and steps < 10000:
            steps += 1
            for vm in (a_vm, b_vm):
                if vm.exit_status is None:
                    try:
                        if not vm.step():
                            vm.exit_status = vm.exit_status or 0
                    except Exception as err:  # ProcessExit via run() only
                        from repro.cpu.vm import ProcessExit

                        if isinstance(err, ProcessExit):
                            vm.exit_status = err.status
                            vm.killed = err.killed
                        else:
                            raise
        assert not a_vm.killed and not b_vm.killed
        assert a_process.auth_counter == b_process.auth_counter == 3
