"""The verification fast path must not weaken any check after warm-up.

Once a site's first trap passes the full check, later traps there are
accepted by its compiled verifier thunk, which skips the call-MAC and
string-content MACs.  An attacker's best shot is therefore to let the
thunks warm up on honest traps and *then* corrupt something.  Every
scenario here mutates guest memory only after the audit counters prove
the fast path is hot, and expects the very next trap to fail-stop
exactly as it would on a cold kernel — because the counter-MAC'd
lastBlock state is re-checked on every trap, and any write into policy
memory (strings, predecessor sets, records) fails a write-version
guard, so the thunk is dropped unless the live bytes still equal what
the full check accepted.
"""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.configs import DEFAULT_CONFIG, configs_named
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("fastpath-boundary")

ITERATIONS = 40
WARMUP_SYSCALLS = 10

PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {ITERATIONS}
loop:
    li r1, path
    li r2, 0
    call sys_open
    mov r1, r0
    call sys_close
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/etc/motd"
""" + runtime_source("linux", ("open", "close", "exit"))


@pytest.fixture(scope="module")
def installed():
    binary = assemble(PROGRAM, metadata={"program": "fpboundary"})
    return install(binary, KEY)


def _warm_then_mutate(installed, mutate, fastpath=True):
    """Run until the fast path is provably hot, apply ``mutate``, resume."""
    kernel = Kernel(key=KEY, fastpath=fastpath)
    kernel.vfs.write_file("/etc/motd", b"greetings")
    process, vm = kernel.load(installed.binary)
    image = link(installed.binary)
    while vm.syscall_count < WARMUP_SYSCALLS:
        assert vm.step(), "program ended before warm-up completed"
    if fastpath:
        assert kernel.metrics.get("fastpath.hits") > 0, "fast path never became hot"
    mutate(vm, image, installed)
    vm.run()
    return kernel, vm


def _mutate_string_content(vm, image, installed):
    path = image.address_of("path")
    vm.memory.write(path, b"/etc/passwd"[:9], force=True)


def _mutate_lastblock(vm, image, installed):
    polstate = image.address_of("__asc_polstate")
    vm.memory.write_u32(polstate, 42, force=True)


def _mutate_predset(vm, image, installed):
    site = installed.site_for_syscall("open")
    record = image.address_of(installed.site_records[site])
    predset = vm.memory.read_u32(record + 8, force=True)
    vm.memory.write_u32(predset, 0xDEAD, force=True)


def _mutate_call_mac(vm, image, installed):
    site = installed.site_for_syscall("open")
    record = image.address_of(installed.site_records[site])
    byte = vm.memory.read(record + 16, 1, force=True)[0]
    vm.memory.write(record + 16, bytes([byte ^ 1]), force=True)


class TestPostWarmupTampering:
    def test_string_argument_mutation_still_caught(self, installed):
        _, vm = _warm_then_mutate(installed, _mutate_string_content)
        assert vm.killed and "integrity" in vm.kill_reason

    def test_lastblock_mutation_still_caught(self, installed):
        _, vm = _warm_then_mutate(installed, _mutate_lastblock)
        assert vm.killed and "policy state" in vm.kill_reason

    def test_predset_mutation_still_caught(self, installed):
        _, vm = _warm_then_mutate(installed, _mutate_predset)
        assert vm.killed

    def test_call_mac_flip_misses_cache_and_dies(self, installed):
        # Flipping the presented MAC fails the thunk's refresh (the MAC
        # differs from the verified one), so the thunk is dropped and
        # the full CMAC catches the forgery.
        kernel, vm = _warm_then_mutate(installed, _mutate_call_mac)
        assert vm.killed and "call MAC mismatch" in vm.kill_reason

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (_mutate_string_content, "integrity"),
            (_mutate_lastblock, "policy state"),
            (_mutate_predset, ""),
            (_mutate_call_mac, "call MAC mismatch"),
        ],
        ids=["string", "lastblock", "predset", "callmac"],
    )
    def test_outcomes_match_no_fastpath_kernel(self, installed, mutate, fragment):
        _, hot = _warm_then_mutate(installed, mutate, fastpath=True)
        _, cold = _warm_then_mutate(installed, mutate, fastpath=False)
        assert hot.killed and cold.killed
        assert fragment in hot.kill_reason
        assert hot.kill_reason == cold.kill_reason


class TestBatteryParity:
    def test_attack_battery_identical_without_fastpath(self):
        from repro.attacks import run_all_attacks

        hot = run_all_attacks(KEY, DEFAULT_CONFIG)
        (no_fastpath,) = configs_named(["no-fastpath"])
        cold = run_all_attacks(KEY, no_fastpath)
        assert [(r.name, r.blocked) for r in hot] == [
            (r.name, r.blocked) for r in cold
        ]
        assert [r.kill_reason for r in hot] == [r.kill_reason for r in cold]
