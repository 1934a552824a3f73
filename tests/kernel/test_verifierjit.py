"""The per-site verifier thunks (kernel/verifierjit.py).

Lifecycle: thunks are compiled on the first full check of a
(process, call-site) pair, reused across repeated traps, refreshed
when a write-version guard goes stale but the live policy bytes are
unchanged, dropped when they changed, and partitioned per pid — exit
and execve drop the partition, fork children start empty.  Soundness:
outcomes and kill reasons are asserted identical to the paper's full
check on every trap (``fastpath=False``), and a refreshed hit costs
exactly what a fresh one does.
"""

import struct

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.kernel.auth import violation_family
from repro.obs import TraceRecorder
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("verifier-jit", provider="fast-hmac")
#: The default provider, whose single-block tag memo serves the warm
#: thunks' lbMAC verifies.
CMAC_KEY = Key.from_passphrase("verifier-jit")

ITERATIONS = 30
WARMUP_SYSCALLS = 10

LOOP_PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {ITERATIONS}
loop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))

#: Open/close loop with a string argument and control flow — exercises
#: the string-auth, predecessor-set, and polstate pieces of a thunk.
OPEN_PROGRAM = f"""
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
def installed_loop():
    return install(assemble(LOOP_PROGRAM, metadata={"program": "vjloop"}), KEY)


@pytest.fixture(scope="module")
def installed_open():
    return install(assemble(OPEN_PROGRAM, metadata={"program": "vjopen"}), KEY)


@pytest.fixture(scope="module")
def installed_open_cmac():
    return install(assemble(OPEN_PROGRAM, metadata={"program": "vjopen"}), CMAC_KEY)


def _run(installed, **kernel_kwargs):
    kernel = Kernel(key=KEY, **kernel_kwargs)
    kernel.vfs.write_file("/etc/motd", b"greetings")
    result = kernel.run(installed.binary)
    assert result.ok, result.kill_reason
    return kernel, result


class TestThunkReuse:
    def test_sites_compile_once_and_hit_thereafter(self, installed_loop):
        kernel, result = _run(installed_loop)
        compiled = kernel.metrics.get("verifier.thunks_compiled")
        hits = kernel.metrics.get("verifier.thunk_hits")
        # One thunk per site (the getpid site and the exit site), never
        # recompiled; every later trap is served by the thunk.
        assert compiled == 2
        assert hits == result.syscalls - compiled
        assert hits > 0

    def test_thunk_hits_count_as_fastpath_hits(self, installed_loop):
        kernel, result = _run(installed_loop)
        hits = kernel.metrics.get("verifier.thunk_hits")
        assert kernel.audit.fastpath.hits == hits
        assert kernel.audit.fastpath.misses == 2

    def test_partition_dropped_at_exit(self, installed_loop):
        kernel, result = _run(installed_loop)
        assert result.process.jit is None
        # Every compiled thunk was eventually invalidated (at exit).
        assert (kernel.metrics.get("verifier.thunks_invalidated")
                == kernel.metrics.get("verifier.thunks_compiled"))

    def test_jit_rides_on_the_fastpath(self, installed_loop):
        # No fast path, no thunks: every trap runs the full check and
        # neither fast-path counter moves.
        kernel, _ = _run(installed_loop, fastpath=False)
        assert kernel.metrics.get("verifier.thunks_compiled") == 0
        assert kernel.audit.fastpath.lookups == 0
        assert not kernel.verifier_jit

    def test_each_verified_trap_counts_once(self, installed_open):
        kernel, result = _run(installed_open)
        stats = kernel.audit.fastpath
        # A full check per site (open, close, exit), a hit for the rest.
        assert stats.misses == kernel.metrics.get("verifier.thunks_compiled") == 3
        assert stats.hits + stats.misses == result.syscalls
        assert kernel.verifier_jit


def _run_churned(installed):
    """Like :func:`_run`, but a same-value write into ``.authdata``
    before every trap leaves every thunk's guards stale."""
    kernel = Kernel(key=KEY)
    kernel.vfs.write_file("/etc/motd", b"greetings")
    process, vm = kernel.load(installed.binary)
    authdata = link(installed.binary).segment(".authdata").vaddr

    class Churn:
        def handle_trap(self, inner, authenticated):
            byte = inner.memory.read(authdata, 1, force=True)
            inner.memory.write(authdata, byte, force=True)
            return kernel.handle_trap(inner, authenticated)

    vm.trap_handler = Churn()
    vm.run()
    kernel.release_process(process, vm)
    assert not vm.killed, vm.kill_reason
    return kernel, vm


class TestBitIdentity:
    @pytest.mark.parametrize("fixture", ["installed_loop", "installed_open"])
    def test_cycles_and_accounting_identical(self, fixture, request):
        installed = request.getfixturevalue(fixture)
        kernel, result = _run(installed)
        full_kernel, full = _run(installed, fastpath=False)
        # The paper's full check on every trap: the same run, apart
        # from the cheaper verification cycles of the thunk hits.
        assert (result.instructions, result.syscalls, result.exit_status,
                result.stdout) == (full.instructions, full.syscalls,
                                   full.exit_status, full.stdout)
        assert result.cycles < full.cycles
        # Refreshing every thunk before every trap changes nothing at
        # all: same cycles, same hits and misses.
        churned_kernel, churned = _run_churned(installed)
        assert churned_kernel.metrics.get("verifier.thunks_refreshed") > 0
        assert (churned.cycles, churned.instructions_executed,
                churned_kernel.audit.fastpath.hits,
                churned_kernel.audit.fastpath.misses) == (
            result.cycles, result.instructions,
            kernel.audit.fastpath.hits, kernel.audit.fastpath.misses)


class TestObservability:
    def test_compile_span_and_mirrored_counters(self, installed_open):
        recorder = TraceRecorder()
        kernel = Kernel(key=KEY, recorder=recorder)
        kernel.vfs.write_file("/etc/motd", b"greetings")
        result = kernel.run(installed_open.binary)
        assert result.ok
        compiled = kernel.metrics.get("verifier.thunks_compiled")
        totals = recorder.stage_totals()
        assert totals["verifier-compile"]["count"] == compiled
        # One root span per trap, thunk hit or miss.
        assert totals["syscall-verify"]["count"] == result.syscalls
        for name in ("verifier.thunks_compiled", "verifier.thunk_hits",
                     "verifier.thunks_invalidated"):
            assert recorder.counters.get(name, 0) == kernel.metrics.get(name)


def _warm(installed, key=KEY, **kernel_kwargs):
    """Load and step until the thunks are provably warm."""
    kernel = Kernel(key=key, **kernel_kwargs)
    kernel.vfs.write_file("/etc/motd", b"greetings")
    process, vm = kernel.load(installed.binary)
    while vm.syscall_count < WARMUP_SYSCALLS:
        assert vm.step(), "program ended before warm-up completed"
    return kernel, process, vm


def _open_record(installed):
    site = installed.site_for_syscall("open")
    return site, link(installed.binary).address_of(installed.site_records[site])


def _step_traps(vm, count):
    start = vm.syscall_count
    while vm.syscall_count < start + count:
        assert vm.step(), "program ended early"


class TestGuardInvalidation:
    def test_policy_record_write_voids_and_recompiles(self, installed_open):
        # Re-sign the open site's policy with the installer's key, minus
        # its call-site constraint: a different but valid record.  The
        # refresh sees a different encoded call and drops the thunk;
        # the full check accepts the new record and recompiles.
        kernel, process, vm = _warm(installed_open)
        jit = process.jit
        open_site, record = _open_record(installed_open)
        call = jit.thunk_at(open_site).call
        descriptor = int(call.record.descriptor)
        assert call.record.descriptor.call_site_constrained
        weaker = descriptor & ~1
        # Encoded call: u16 number, u32 descriptor, u32 call site, ...
        encoded = call.encoded_call[:2] + struct.pack("<I", weaker) + call.encoded_call[10:]
        vm.memory.write_u32(record, weaker, force=True)
        vm.memory.write(record + 16, kernel.mac.tag(encoded), force=True)
        compiled_before = kernel.metrics.get("verifier.thunks_compiled")

        vm.run()
        assert not vm.killed, vm.kill_reason
        assert kernel.metrics.get("verifier.thunks_invalidated") >= 1
        # The open site re-verified in full once and was specialized
        # again (the close site refreshed); the exit site compiled at
        # its first trap.
        assert kernel.metrics.get("verifier.thunks_compiled") == compiled_before + 2
        assert not jit.thunk_at(open_site).call.record.descriptor.call_site_constrained

    def test_same_value_write_gives_refreshed_hit(self, installed_open):
        kernel, process, vm = _warm(installed_open)
        twin_kernel, _, twin = _warm(installed_open)
        _, record = _open_record(installed_open)
        vm.memory.write(record, vm.memory.read(record, 1, force=True), force=True)
        before = dict(kernel.metrics)
        _step_traps(vm, 2)
        _step_traps(twin, 2)
        after = dict(kernel.metrics)
        assert after["verifier.thunks_refreshed"] == before.get("verifier.thunks_refreshed", 0) + 2
        # Two thunk hits, no full check, nothing recompiled or dropped.
        assert after["fastpath.hits"] == before["fastpath.hits"] + 2
        assert after["fastpath.misses"] == before["fastpath.misses"]
        assert after["verifier.thunks_compiled"] == before["verifier.thunks_compiled"]
        assert after.get("verifier.thunks_invalidated", 0) == before.get("verifier.thunks_invalidated", 0)
        # A refreshed hit costs exactly what a fresh one does.
        assert vm.cycles == twin.cycles

    def test_write_elsewhere_in_guarded_region_refreshes(self, installed_open):
        # Corrupt the exit site's call MAC: same region as the open and
        # close records, but no byte their verdicts depend on.
        kernel, process, vm = _warm(installed_open)
        exit_site = installed_open.site_for_syscall("exit")
        exit_record = link(installed_open.binary).address_of(
            installed_open.site_records[exit_site]
        )
        vm.memory.flip_bit(exit_record + 16, 0, force=True)
        misses = kernel.audit.fastpath.misses
        _step_traps(vm, 4)
        assert kernel.audit.fastpath.misses == misses
        assert kernel.metrics.get("verifier.thunks_refreshed") == 2
        assert not vm.killed

    def test_guard_churn_stops_recompilation(self, installed_open):
        # A same-value write into the policy region before each of the
        # 60 open/close traps: every trap refreshes, and each site is
        # compiled exactly once (a refresh never recompiles).
        kernel, process, vm = _warm(installed_open)
        compiled = kernel.metrics.get("verifier.thunks_compiled")
        _, record = _open_record(installed_open)
        byte = vm.memory.read(record, 1, force=True)
        start = vm.syscall_count
        while vm.syscall_count < 60:
            vm.memory.write(record, byte, force=True)  # bump the version
            assert vm.step()
        assert kernel.metrics.get("verifier.thunks_compiled") == compiled
        assert kernel.metrics.get("verifier.thunks_refreshed") == 60 - start
        assert kernel.audit.fastpath.misses == compiled
        vm.run()
        assert not vm.killed


def _mutate_record_field(vm, image, installed):
    _, record = _open_record(installed)
    vm.memory.flip_bit(record + 4, 0, force=True)  # blockID


def _mutate_as_header(vm, image, installed):
    vm.memory.flip_bit(image.address_of("path") - 1, 3, force=True)  # stringMAC


def _mutate_as_content(vm, image, installed):
    vm.memory.write(image.address_of("path"), b"/etc/shad", force=True)


def _mutate_predset(vm, image, installed):
    _, record = _open_record(installed)
    predset = vm.memory.read_u32(record + 8, force=True)
    vm.memory.write_u32(predset, 0xDEAD, force=True)


class TestChangedPolicyDrops:
    """A changed byte the thunk depends on drops it, and the full check
    kills in the same violation family — with the same reason — as on
    a kernel that runs the full check on every trap."""

    @pytest.mark.parametrize(
        "mutate, family",
        [
            (_mutate_record_field, "call-mac"),
            (_mutate_as_header, "call-mac"),
            (_mutate_as_content, "string-auth"),
            (_mutate_predset, "string-auth"),
        ],
        ids=["record-field", "as-header", "as-content", "predset"],
    )
    def test_full_check_kills(self, installed_open, mutate, family):
        reasons = []
        for fastpath in (True, False):
            kernel, process, vm = _warm(installed_open, fastpath=fastpath)
            mutate(vm, link(installed_open.binary), installed_open)
            vm.run()
            assert vm.killed and violation_family(vm.kill_reason) == family
            reasons.append(vm.kill_reason)
            if fastpath:
                open_site, _ = _open_record(installed_open)
                assert process.jit.thunk_at(open_site) is None
                assert kernel.metrics.get("verifier.thunks_invalidated") == 1
        assert reasons[0] == reasons[1]


class TestTamperAfterWarmup:
    """The fastpath-boundary attack, re-run against warm *thunks*: a
    post-warm-up corruption must fail-stop identically with the thunks
    on and with the full check on every trap (same kill reason, not
    merely both killed)."""

    MUTATIONS = [("string", "integrity"), ("polstate", "policy state")]

    @staticmethod
    def _kill_reasons(installed, key, mutation, fragment):
        reasons = []
        for jit in (True, False):
            kernel, process, vm = _warm(installed, key, fastpath=jit)
            if jit:
                assert kernel.metrics.get("verifier.thunk_hits") > 0
            image = link(installed.binary)
            if mutation == "string":
                vm.memory.write(
                    image.address_of("path"), b"/etc/shad", force=True
                )
            else:
                vm.memory.write_u32(
                    image.address_of("__asc_polstate"), 42, force=True
                )
            vm.run()
            assert vm.killed and fragment in vm.kill_reason
            reasons.append(vm.kill_reason)
        return reasons

    @pytest.mark.parametrize("mutation, fragment", MUTATIONS)
    def test_tamper_killed_with_jit_on_and_off(
        self, installed_open, mutation, fragment
    ):
        reasons = self._kill_reasons(installed_open, KEY, mutation, fragment)
        assert reasons[0] == reasons[1]

    @pytest.mark.parametrize("mutation, fragment", MUTATIONS)
    def test_tamper_killed_under_aes_cmac(
        self, installed_open_cmac, mutation, fragment
    ):
        # Warm lbMAC verifies are served by AesCmac's tag memo here; the
        # tampered trap must still die exactly as under the full check.
        reasons = self._kill_reasons(installed_open_cmac, CMAC_KEY, mutation, fragment)
        assert reasons[0] == reasons[1]


class TestAesCmacWarmTrap:
    def test_warm_trap_costs_one_aes_block(self, installed_open_cmac):
        # Each warm open/close trap re-MACs lastBlock || counter (one
        # block).  The lbMAC verify is for the payload tagged at the
        # previous trap and the path string's tag for bytes already
        # verified, so both are memo hits and cost no block.
        kernel, process, vm = _warm(installed_open_cmac, CMAC_KEY)
        blocks = []
        encrypt = kernel.mac._encrypt

        def counting(*words):
            blocks.append(words)
            return encrypt(*words)

        kernel.mac._encrypt = counting
        start = vm.syscall_count
        hits = kernel.metrics.get("verifier.thunk_hits")
        while vm.syscall_count < start + 20:
            assert vm.step()
        assert kernel.metrics.get("verifier.thunk_hits") - hits == 20
        assert len(blocks) == 20
        vm.run()
        assert not vm.killed


class TestProcessPartitions:
    FORK_BODY = """
    li r13, 5
warm:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt warm
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    li r1, 0
    call sys_exit
child:
    li r13, 5
cloop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt cloop
    li r1, 0
    call sys_exit
"""

    def test_fork_child_gets_fresh_partition(self):
        source = (
            ".section .text\n.global _start\n_start:\n" + self.FORK_BODY
            + runtime_source("linux", ("getpid", "fork", "wait4", "exit"))
        )
        installed = install(
            assemble(source, metadata={"program": "vjfork"}), KEY
        )
        kernel = Kernel(key=KEY)
        observations = {}  # pid -> [(partition id, len) at each trap]
        original = kernel.handle_trap

        def spy(vm, authenticated):
            process = kernel._vm_process.get(id(vm))
            if process is not None and process.jit is not None:
                observations.setdefault(process.pid, []).append(
                    (id(process.jit), len(process.jit))
                )
            return original(vm, authenticated)

        kernel.handle_trap = spy
        multi = kernel.run_many([(installed.binary, None, b"")])
        assert all(not r.killed for r in multi.results)
        assert len(observations) == 2
        parent_pid, child_pid = sorted(observations)
        parent_obs, child_obs = observations[parent_pid], observations[child_pid]
        # Distinct partition objects: the child never sees the parent's.
        assert {pid for pid, _ in parent_obs}.isdisjoint(
            {pid for pid, _ in child_obs}
        )
        # The parent was warm at fork time; the child still started
        # cold — a sibling's thunk is never reused.
        assert parent_obs[-1][1] > 0
        assert child_obs[0][1] == 0
        # The shared getpid site was therefore compiled at least twice.
        assert kernel.metrics.get("verifier.thunks_compiled") >= 4

    def test_execve_drops_partition_in_place(self, installed_loop):
        execer_source = """
.section .text
.global _start
_start:
    li r13, 5
warm:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt warm
    li r1, path
    li r2, 0
    li r3, 0
    call sys_execve
    li r1, 1
    call sys_exit
.section .rodata
path:
    .asciz "/bin/next"
""" + runtime_source("linux", ("getpid", "execve", "exit"))
        execer = install(
            assemble(execer_source, metadata={"program": "vjexec"}), KEY
        )
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/bin/next", installed_loop.binary.to_bytes())

        lens = []  # partition length at each trap of the (single) pid
        original = kernel.handle_trap

        def spy(vm, authenticated):
            process = kernel._vm_process.get(id(vm))
            if process is not None and process.jit is not None:
                lens.append(len(process.jit))
            return original(vm, authenticated)

        kernel.handle_trap = spy
        multi = kernel.run_many([(execer.binary, None, b"")])
        assert multi.results[0].exit_status == 0
        assert kernel.metrics.get("sched.execs") == 1
        # Warm before the exec, empty again at the first trap of the
        # replacement image: the partition died with the old image.
        peak = max(lens)
        assert peak > 0
        assert 0 in lens[lens.index(peak):]
