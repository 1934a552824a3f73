"""§5.1 pattern policies enforced end-to-end, hints supplied by the guest.

The guest program passes its proof hint in ``r8`` (a pointer to
``[count, v0, v1, ...]`` words).  The kernel verifies the pattern match
with one linear scan; a wrong or missing hint is a fail-stop.
"""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import Key
from repro.faults.shadow import ShadowVerifier
from repro.installer import InstallerOptions, install
from repro.kernel import Kernel
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("pattern-tests")

#: Opens a dynamically-computed path (so analysis cannot constrain it);
#: the administrator's metapolicy fill imposes the pattern
#: "/tmp/{foo,bar}*baz".  The guest proves "/tmp/foofoobaz" with the
#: paper's worked hint (0, 3).
PROGRAM_TEMPLATE = """
.section .text
.global _start
_start:
    li r9, cell
    ld r1, [r9+0]        ; dynamic path argument
    li r2, 0
    li r8, {hint_label}  ; proof hint block
    call sys_open
    li r1, 0
    call sys_exit
.section .data
cell:
    .word pathstr
pathstr:
    .asciz "{path}"
good_hint:
    .word 2, 0, 3        ; count=2: branch 0 ("foo"), star consumes 3
bad_hint:
    .word 2, 1, 3        ; wrong branch
empty_hint:
    .word 0
""" + runtime_source("linux", ("open", "exit"))


def _installed(path: str, hint_label: str):
    source = PROGRAM_TEMPLATE.format(path=path, hint_label=hint_label)
    binary = assemble(source, metadata={"program": "patterned"})
    return install(
        binary, KEY,
        InstallerOptions(template_fills={("open", 0): "/tmp/{foo,bar}*baz"}),
    )


def _run(installed):
    kernel = Kernel(key=KEY)
    kernel.vfs.write_file("/tmp/foofoobaz", b"x")
    kernel.vfs.write_file("/tmp/barbaz", b"y")
    kernel.vfs.write_file("/etc/passwd", b"secret")
    return kernel.run(installed.binary)


class TestPatternRuntime:
    def test_descriptor_carries_pattern_bit(self):
        installed = _installed("/tmp/foofoobaz", "good_hint")
        policy = installed.policy.sites[installed.site_for_syscall("open")]
        assert policy.descriptor().param_is_pattern(0)

    def test_matching_argument_with_correct_hint(self):
        result = _run(_installed("/tmp/foofoobaz", "good_hint"))
        assert result.ok, result.kill_reason

    def test_wrong_hint_fail_stops(self):
        result = _run(_installed("/tmp/foofoobaz", "bad_hint"))
        assert result.killed
        assert "pattern" in result.kill_reason

    def test_missing_hint_fail_stops(self):
        result = _run(_installed("/tmp/foofoobaz", "empty_hint"))
        assert result.killed

    def test_non_matching_argument_fail_stops(self):
        # /etc/passwd cannot match /tmp/{foo,bar}*baz with any hint.
        result = _run(_installed("/etc/passwd", "good_hint"))
        assert result.killed
        assert "pattern" in result.kill_reason

    def test_bar_branch_matches_with_its_own_hint(self):
        source = PROGRAM_TEMPLATE.format(path="/tmp/barbaz", hint_label="bar_hint")
        source = source.replace(
            "good_hint:", "bar_hint:\n    .word 2, 1, 0\ngood_hint:"
        )
        binary = assemble(source, metadata={"program": "patterned"})
        installed = install(
            binary, KEY,
            InstallerOptions(template_fills={("open", 0): "/tmp/{foo,bar}*baz"}),
        )
        result = _run(installed)
        assert result.ok, result.kill_reason

    def test_tampered_pattern_string_fail_stops(self):
        installed = _installed("/tmp/foofoobaz", "good_hint")
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/tmp/foofoobaz", b"x")
        process, vm = kernel.load(installed.binary)
        # Overwrite the pattern AS contents (widen it to match anything).
        authstr = vm.memory.find_region(".authstr")
        blob = bytes(authstr.data)
        index = blob.find(b"/tmp/{foo,bar}*baz")
        assert index > 0
        vm.memory.write(authstr.start + index, b"*" + bytes(17), force=True)
        vm.run()
        assert vm.killed
        assert "integrity" in vm.kill_reason or "MAC" in vm.kill_reason


WARM_ITERATIONS = 25
#: Traps before the planted fault: 22 loop iterations of open and
#: close, so the open site's thunk has served 21 hits.
WARM_TRAPS = 44

#: The pattern-constrained open in a loop: after the first full check,
#: every open is a thunk hit that re-reads the argument and the r8
#: hint block from live memory.
WARM_PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {WARM_ITERATIONS}
loop:
    li r9, cell
    ld r1, [r9+0]        ; dynamic path argument
    li r2, 0
    li r8, hint          ; proof hint block
    call sys_open
    mov r1, r0
    call sys_close
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
.section .data
cell:
    .word pathstr
pathstr:
    .asciz "/tmp/foofoobaz"
hint:
    .word 2, 0, 3        ; branch 0 ("foo"), star consumes 3
""" + runtime_source("linux", ("open", "close", "exit"))


@pytest.fixture(scope="module")
def warm_installed():
    binary = assemble(WARM_PROGRAM, metadata={"program": "patterned-loop"})
    return install(
        binary, KEY,
        InstallerOptions(template_fills={("open", 0): "/tmp/{foo,bar}*baz"}),
    )


def _wrong_hint(vm, image):
    vm.memory.write_u32(image.address_of("hint") + 4, 1, force=True)  # "bar"


def _non_matching_argument(vm, image):
    vm.memory.write(image.address_of("pathstr"), b"/etc/passwd\0", force=True)


class TestWarmPatternSite:
    """The pattern checks of a warm thunk: live arguments and hints are
    re-matched on every hit, and a fault planted after warm-up is
    killed exactly as the full check on every trap kills it."""

    def _load(self, installed, fastpath=True):
        kernel = Kernel(key=KEY, fastpath=fastpath)
        shadow = ShadowVerifier(kernel)
        kernel.vfs.write_file("/tmp/foofoobaz", b"x")
        process, vm = kernel.load(installed.binary)
        return kernel, shadow, vm

    def test_warm_hits_agree_with_the_full_check(self, warm_installed):
        kernel, shadow, vm = self._load(warm_installed)
        open_site = warm_installed.site_for_syscall("open")
        hits = []

        class CountOpenHits:
            def handle_trap(self, inner, authenticated):
                before = kernel.metrics.get("verifier.thunk_hits")
                cycles = kernel.handle_trap(inner, authenticated)
                if inner.pc == open_site:
                    hits.append(kernel.metrics.get("verifier.thunk_hits") - before)
                return cycles

        vm.trap_handler = CountOpenHits()
        vm.run()
        assert not vm.killed, vm.kill_reason
        assert vm.exit_status == 0
        # Every open but the first is a thunk hit at the pattern site.
        assert hits == [0] + [1] * (WARM_ITERATIONS - 1)
        assert shadow.disagreements == []
        assert shadow.checked == kernel.metrics.get("verifier.thunk_hits") >= 20

    @pytest.mark.parametrize(
        "plant", [_wrong_hint, _non_matching_argument],
        ids=["wrong-hint", "non-matching-argument"],
    )
    def test_fault_at_warm_site_killed_as_by_the_full_check(
        self, warm_installed, plant
    ):
        reasons = []
        for fastpath in (True, False):
            kernel, shadow, vm = self._load(warm_installed, fastpath)
            while vm.syscall_count < WARM_TRAPS:
                assert vm.step()
            if fastpath:
                assert kernel.metrics.get("verifier.thunk_hits") >= 40
            plant(vm, link(warm_installed.binary))
            vm.run()
            assert vm.killed and "pattern" in vm.kill_reason
            assert vm.syscall_count == WARM_TRAPS + 1
            assert shadow.disagreements == []
            reasons.append(vm.kill_reason)
        assert reasons[0] == reasons[1]
