"""§5.3 capability tracking enforced at runtime, end to end."""

import pytest

from repro.asm import assemble
from repro.crypto import Key
from repro.faults.shadow import ShadowVerifier
from repro.installer import InstallError, InstallerOptions, install
from repro.kernel import Kernel
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("cap-tests")

#: Opens two files; reads from the first fd.  With capability tracking,
#: the read's fd must descend from the *first* open site.
PROGRAM = """
.section .text
.global _start
_start:
    li r1, patha
    li r2, 0
    call sys_open
    mov r13, r0          ; fd A  (the permitted producer for the read)
    li r1, pathb
    li r2, 0
    call sys_open
    mov r14, r0          ; fd B
    mov r1, r13
    li r2, buf
    li r3, 16
    call sys_read
    li r1, 0
    call sys_exit
.section .rodata
patha:
    .asciz "/etc/a"
pathb:
    .asciz "/etc/b"
.section .bss
buf:
    .space 16
""" + runtime_source("linux", ("open", "read", "exit"))


def _kernel():
    kernel = Kernel(key=KEY)
    kernel.vfs.write_file("/etc/a", b"AAAA")
    kernel.vfs.write_file("/etc/b", b"BBBB")
    return kernel


def _run_confused(kernel, installed):
    """Run ``installed`` with its read redirected to fd B (produced by
    the *other* open site); returns the finished VM."""
    process, vm = kernel.load(installed.binary)
    read_site = installed.site_for_syscall("read")

    class Confuser:
        def handle_trap(self, inner_vm, authenticated):
            if inner_vm.pc == read_site:
                inner_vm.regs[1] = inner_vm.regs[14]  # swap in fd B
            return kernel.handle_trap(inner_vm, authenticated)

    vm.trap_handler = Confuser()
    vm.run()
    return vm


@pytest.fixture(scope="module")
def installed():
    return install(
        assemble(PROGRAM, metadata={"program": "capdemo"}), KEY,
        InstallerOptions(capability_tracking=True),
    )


@pytest.fixture(scope="module")
def untracked():
    """The same program installed without §5.3."""
    return install(assemble(PROGRAM, metadata={"program": "capdemo"}), KEY)


class TestCapabilityRuntime:
    def test_policy_names_the_producer(self, installed):
        read_policy = installed.policy.sites[installed.site_for_syscall("read")]
        open_policy = installed.policy.sites[installed.site_for_syscall("open")]
        assert read_policy.fd_producers[0] == frozenset({open_policy.block_id})

    def test_legitimate_run_passes(self, installed):
        result = _kernel().run(installed.binary)
        assert result.ok, result.kill_reason

    def test_confused_fd_fail_stops(self, installed):
        """An attacker redirects the read to fd B (produced by the
        *other* open site): the capability check catches it even though
        B is a perfectly valid descriptor."""
        vm = _run_confused(_kernel(), installed)
        assert vm.killed
        assert "capability violation" in vm.kill_reason

    def test_default_kernel_enforces_the_installed_record(self, installed):
        """No kernel option turns §5.3 on: a kernel built with nothing
        but the key grants each opened fd to its producing site and
        kills the read whose MAC-verified record allows only fd A's."""
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/etc/a", b"A")
        kernel.vfs.write_file("/etc/b", b"B")
        vm = _run_confused(kernel, installed)
        assert vm.killed
        opens = sorted(
            policy.block_id for policy in installed.policy.sites.values()
            if policy.syscall == "open"
        )
        assert kernel.capability_table(vm).owner == {3: opens[0], 4: opens[1]}
        [event] = kernel.audit.alerts()
        assert event.syscall == "read"
        assert "capability violation: fd 4" in event.reason

    def test_kernel_has_no_tracking_switch(self):
        with pytest.raises(TypeError):
            Kernel(key=KEY, capability_tracking=True)

    def test_closed_fd_fail_stops(self, installed):
        """Reusing the fd after a (forced) close is caught: capability
        sets track *live* descriptors, the §5.3 subtlety."""
        kernel = _kernel()
        process, vm = kernel.load(installed.binary)
        read_site = installed.site_for_syscall("read")

        class Revoker:
            def handle_trap(self, inner_vm, authenticated):
                if inner_vm.pc == read_site:
                    kernel.capability_table(inner_vm).revoke(inner_vm.regs[13])
                return kernel.handle_trap(inner_vm, authenticated)

        vm.trap_handler = Revoker()
        vm.run()
        assert vm.killed

    def test_tracking_disabled_kernel_allows_confusion(self, untracked):
        """Ablation: installed without the extension, the same confused
        fd sails through the same kernel — exactly the gap §5.3 exists
        to close."""
        vm = _run_confused(_kernel(), untracked)
        assert not vm.killed, vm.kill_reason


#: Opens A and B, then makes B a copy of A with dup2 and reads it: the
#: read's fd descends from the dup2 site, not from the open of B.
DUP2_PROGRAM = """
.section .text
.global _start
_start:
    li r1, patha
    li r2, 0
    call sys_open
    mov r13, r0
    li r1, pathb
    li r2, 0
    call sys_open
    mov r14, r0
    mov r1, r13
    mov r2, r14
    call sys_dup2
    mov r1, r0
    li r2, buf
    li r3, 4
    call sys_read
    li r1, 0
    call sys_exit
.section .rodata
patha:
    .asciz "/etc/a"
pathb:
    .asciz "/etc/b"
.section .bss
buf:
    .space 16
""" + runtime_source("linux", ("open", "dup2", "read", "exit"))


class TestDup2:
    def test_dup2_onto_an_open_fd_regrants_it(self):
        """dup2 closes its open target and returns it as a copy of the
        source, so the fd now descends from the dup2 site."""
        installed = install(
            assemble(DUP2_PROGRAM, metadata={"program": "capdup2"}), KEY,
            InstallerOptions(capability_tracking=True),
        )
        read_policy = installed.policy.sites[installed.site_for_syscall("read")]
        dup2_policy = installed.policy.sites[installed.site_for_syscall("dup2")]
        assert read_policy.fd_producers[0] == frozenset({dup2_policy.block_id})
        result = _kernel().run(installed.binary)
        assert result.ok, result.kill_reason
        assert result.process.capabilities.owner[4] == dup2_policy.block_id


class TestInstallGuards:
    def test_double_install_rejected(self, installed):
        with pytest.raises(InstallError, match="already installed"):
            install(installed.binary, KEY)


WARM_ITERATIONS = 25
#: Read traps before the confused one: the read site's thunk has then
#: served 21 hits.
WARM_READS = 22

#: The capability-tracked read in a loop: after its first full check,
#: every read is a thunk hit whose fd the kernel checks against the
#: thunk's allowed producers.
WARM_PROGRAM = f"""
.section .text
.global _start
_start:
    li r1, patha
    li r2, 0
    call sys_open
    mov r13, r0          ; fd A  (the permitted producer for the read)
    li r1, pathb
    li r2, 0
    call sys_open
    mov r14, r0          ; fd B
    li r12, {WARM_ITERATIONS}
loop:
    mov r1, r13
    li r2, buf
    li r3, 1
    call sys_read
    subi r12, r12, 1
    cmpi r12, 0
    bgt loop
    li r1, 0
    call sys_exit
.section .rodata
patha:
    .asciz "/etc/a"
pathb:
    .asciz "/etc/b"
.section .bss
buf:
    .space 16
""" + runtime_source("linux", ("open", "read", "exit"))


@pytest.fixture(scope="module")
def warm_installed():
    return install(
        assemble(WARM_PROGRAM, metadata={"program": "capdemo-loop"}), KEY,
        InstallerOptions(capability_tracking=True),
    )


class TestWarmCapabilitySite:
    """§5.3 at a warm site: the thunk hit carries the site's fd mask
    and allowed producers, and the kernel checks each live fd against
    them exactly as after a full check."""

    @staticmethod
    def _load(installed, fastpath=True):
        kernel = Kernel(key=KEY, fastpath=fastpath)
        shadow = ShadowVerifier(kernel)
        kernel.vfs.write_file("/etc/a", b"A" * 64)
        kernel.vfs.write_file("/etc/b", b"B" * 64)
        process, vm = kernel.load(installed.binary)
        return kernel, shadow, process, vm

    def test_read_site_is_tracked(self, warm_installed):
        read_policy = warm_installed.policy.sites[warm_installed.site_for_syscall("read")]
        first_open = min(
            site for site, policy in warm_installed.policy.sites.items()
            if policy.syscall == "open"
        )
        assert read_policy.fd_producers[0] == frozenset(
            {warm_installed.policy.sites[first_open].block_id}
        )

    def test_warm_hits_agree_with_the_full_check(self, warm_installed):
        kernel, shadow, process, vm = self._load(warm_installed)
        read_site = warm_installed.site_for_syscall("read")
        hits = []

        class CountReadHits:
            def handle_trap(self, inner, authenticated):
                before = kernel.metrics.get("verifier.thunk_hits")
                cycles = kernel.handle_trap(inner, authenticated)
                if inner.pc == read_site:
                    hits.append(kernel.metrics.get("verifier.thunk_hits") - before)
                    # A hit's verdict is the thunk, with the site's mask.
                    assert process.jit.thunk_at(read_site).fd_mask == 1
                return cycles

        vm.trap_handler = CountReadHits()
        vm.run()
        assert not vm.killed, vm.kill_reason
        assert vm.exit_status == 0
        assert hits == [0] + [1] * (WARM_ITERATIONS - 1)
        assert shadow.disagreements == []
        assert shadow.checked == kernel.metrics.get("verifier.thunk_hits") >= 20

    def test_confused_fd_at_warm_site_killed_as_by_the_full_check(
        self, warm_installed
    ):
        reasons = []
        for fastpath in (True, False):
            kernel, shadow, process, vm = self._load(warm_installed, fastpath)
            read_site = warm_installed.site_for_syscall("read")
            reads = []

            class ConfuseLateRead:
                def handle_trap(self, inner, authenticated):
                    if inner.pc == read_site:
                        reads.append(inner.pc)
                        if len(reads) > WARM_READS:
                            inner.regs[1] = inner.regs[14]  # swap in fd B
                    return kernel.handle_trap(inner, authenticated)

            vm.trap_handler = ConfuseLateRead()
            vm.run()
            assert vm.killed and "capability violation" in vm.kill_reason
            assert len(reads) == WARM_READS + 1
            if fastpath:
                assert kernel.metrics.get("verifier.thunk_hits") == WARM_READS
            assert shadow.disagreements == []
            reasons.append(vm.kill_reason)
        assert reasons[0] == reasons[1]
