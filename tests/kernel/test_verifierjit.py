"""The verifier specialization engine (kernel/verifierjit.py).

Lifecycle: thunks are compiled on first full verification of a
(process, call-site) pair, reused across repeated traps, voided by
write-version guards, and partitioned per pid — exit and execve drop
the partition, fork children start empty.  Soundness: everything here
must be invisible except in host time, so cycle accounting and attack
verdicts are asserted bit-identical with the JIT on and off.
"""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
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
        kernel, _ = _run(installed_loop)
        assert kernel._jits == {}
        # Every compiled thunk was eventually invalidated (at exit).
        assert (kernel.metrics.get("verifier.thunks_invalidated")
                == kernel.metrics.get("verifier.thunks_compiled"))

    def test_escape_hatch_never_compiles(self, installed_loop):
        kernel, _ = _run(installed_loop, verifier_jit=False)
        assert kernel.metrics.get("verifier.thunks_compiled") == 0
        assert kernel.metrics.get("verifier.thunk_hits") == 0

    def test_jit_rides_on_the_fastpath(self, installed_loop):
        # No fast path, no thunks: the JIT extends the cache's
        # invalidation machinery and never outlives it.
        kernel, _ = _run(installed_loop, fastpath=False)
        assert kernel.metrics.get("verifier.thunks_compiled") == 0


class TestBitIdentity:
    @pytest.mark.parametrize("fixture", ["installed_loop", "installed_open"])
    def test_cycles_and_accounting_identical(self, fixture, request):
        installed = request.getfixturevalue(fixture)
        baseline = None
        for jit in (True, False):
            kernel, result = _run(installed, verifier_jit=jit)
            snapshot = (
                result.cycles,
                result.instructions,
                result.syscalls,
                result.exit_status,
                kernel.audit.fastpath.hits,
                kernel.audit.fastpath.misses,
            )
            if baseline is None:
                baseline = snapshot
            else:
                assert snapshot == baseline


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


class TestGuardInvalidation:
    def test_policy_record_write_voids_and_recompiles(self, installed_open):
        kernel, process, vm = _warm(installed_open)
        jit = kernel._jits[process.pid]
        open_site = installed_open.site_for_syscall("open")
        assert jit.thunk_at(open_site) is not None
        compiled_before = kernel.metrics.get("verifier.thunks_compiled")

        # Rewrite one record byte with its existing value: the bytes
        # are unchanged but the region's write version advances, so the
        # guard must fail closed and the thunk must be dropped.
        image = link(installed_open.binary)
        record = image.address_of(installed_open.site_records[open_site])
        byte = vm.memory.read(record, 1, force=True)
        vm.memory.write(record, byte, force=True)

        vm.run()
        assert not vm.killed
        assert kernel.metrics.get("verifier.thunks_invalidated") >= 1
        # The site re-verified in full and was specialized again.
        assert kernel.metrics.get("verifier.thunks_compiled") > compiled_before

    def test_guard_churn_stops_recompilation(self, installed_open):
        # A site whose policy material is written before every trap
        # must not recompile forever: after MAX_RECOMPILES guard
        # failures the generic path serves it (correctness unchanged).
        kernel, process, vm = _warm(installed_open)
        jit = kernel._jits[process.pid]
        open_site = installed_open.site_for_syscall("open")
        image = link(installed_open.binary)
        record = image.address_of(installed_open.site_records[open_site])
        byte = vm.memory.read(record, 1, force=True)

        seen_none_while_running = False
        while vm.syscall_count < ITERATIONS * 2:
            vm.memory.write(record, byte, force=True)  # bump the version
            if not vm.step():
                break
            if jit.thunk_at(open_site) is None and vm.syscall_count > 0:
                seen_none_while_running = True
        assert seen_none_while_running
        # Both the open and close records live in the shared .authdata
        # region, so both sites churn; each is capped independently and
        # compilation stays far below the ~60 traps served.
        assert (kernel.metrics.get("verifier.thunks_compiled")
                <= 2 * (jit.MAX_RECOMPILES + 1) + 1)


class TestTamperAfterWarmup:
    """The fastpath-boundary attack, re-run against warm *thunks*: a
    post-warm-up corruption must fail-stop identically with the JIT on
    and off (same kill reason, not merely both killed)."""

    MUTATIONS = [("string", "integrity"), ("polstate", "policy state")]

    @staticmethod
    def _kill_reasons(installed, key, mutation, fragment):
        reasons = []
        for jit in (True, False):
            kernel, process, vm = _warm(installed, key, verifier_jit=jit)
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
        # tampered trap must still die exactly as without the JIT.
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
            if process is not None:
                jit = kernel._jits.get(process.pid)
                if jit is not None:
                    observations.setdefault(process.pid, []).append(
                        (id(jit), len(jit))
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
            if process is not None and process.pid in kernel._jits:
                lens.append(len(kernel._jits[process.pid]))
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
