"""The verification fast path as the kernel reports it.

Covers the kernel-level counters surfaced through the audit log, the
``fastpath=False`` escape hatch, and the cycle accounting that makes a
thunk hit visibly cheaper than the full check.  The thunks themselves
are covered in tests/kernel/test_verifierjit.py; the *security*
boundary — tampering after warm-up — in
tests/attacks/test_fastpath_boundary.py.
"""

import pytest

from repro.asm import assemble
from repro.crypto import Key
from repro.installer import install
from repro.kernel import FastPathStats, Kernel
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("test-fastpath", provider="fast-hmac")

LOOP_ITERATIONS = 50

LOOP_PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {LOOP_ITERATIONS}
loop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))


@pytest.fixture(scope="module")
def installed():
    binary = assemble(LOOP_PROGRAM, metadata={"program": "fploop"})
    return install(binary, KEY)


class TestFastPathStats:
    def test_hit_rate(self):
        stats = FastPathStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate() == pytest.approx(0.75)

    def test_hit_rate_no_lookups(self):
        assert FastPathStats().hit_rate() == 0.0

    def test_render_and_reset(self):
        stats = FastPathStats(hits=9, misses=1)
        assert "90.0% hit rate" in stats.render()
        stats.reset()
        assert stats.lookups == 0


class TestKernelCounters:
    def test_steady_state_hits(self, installed):
        kernel = Kernel(key=KEY)
        result = kernel.run(installed.binary)
        assert result.ok
        stats = kernel.audit.fastpath
        # One getpid site (miss on first trap, hits after) plus exit.
        assert stats.hits >= LOOP_ITERATIONS - 2
        assert stats.misses <= 2
        assert stats.hit_rate() > 0.9

    def test_no_fastpath_never_probes(self, installed):
        kernel = Kernel(key=KEY, fastpath=False)
        result = kernel.run(installed.binary)
        assert result.ok
        stats = kernel.audit.fastpath
        assert stats.hits == 0 and stats.misses == 0 and stats.lookups == 0

    def test_both_modes_agree_on_outcome(self, installed):
        fast = Kernel(key=KEY).run(installed.binary)
        cold = Kernel(key=KEY, fastpath=False).run(installed.binary)
        assert fast.ok and cold.ok
        assert fast.exit_status == cold.exit_status
        assert fast.syscalls == cold.syscalls

    def test_cached_checks_cost_fewer_cycles(self, installed):
        fast = Kernel(key=KEY).run(installed.binary)
        cold = Kernel(key=KEY, fastpath=False).run(installed.binary)
        assert fast.cycles < cold.cycles
        # The surcharge per hit must shrink by the Table-4 factor (>=3x
        # on the verification work; here we assert the weaker whole-run
        # property to stay robust to cost-model recalibration).
        saved = cold.cycles - fast.cycles
        assert saved > LOOP_ITERATIONS * 1000

    def test_audit_clear_resets_fastpath_stats(self, installed):
        kernel = Kernel(key=KEY)
        kernel.run(installed.binary)
        assert kernel.audit.fastpath.lookups > 0
        kernel.audit.clear()
        assert kernel.audit.fastpath.lookups == 0
