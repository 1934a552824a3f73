"""The verification fast path as the kernel reports it.

Covers the kernel's ``fastpath.*`` counters, the ``repro run
--stats`` lines that report them and name the MAC that ran, the
``fastpath=False`` escape hatch, and the cycle accounting that makes a
thunk hit visibly cheaper than the full check.  The thunks themselves
are covered in tests/kernel/test_verifierjit.py; the *security*
boundary — tampering after warm-up — in
tests/attacks/test_fastpath_boundary.py.
"""

import pytest

from repro.asm import assemble
from repro.crypto import Key
from repro.crypto.aes import libcrypto_binding
from repro.installer import install
from repro.kernel import Kernel
from repro.tools.cli import main as cli_main
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
    """``repro run --stats`` reports the registry's fast-path counts."""

    def _stats_line(self, installed, tmp_path, capsys, cli_kernels, *flags):
        path = tmp_path / "fploop.sef"
        path.write_bytes(installed.binary.to_bytes())
        status = cli_main(["--fast-mac", "--key", "test-fastpath", "run",
                           str(path), "--stats", *flags])
        assert status == 0
        (kernel,) = cli_kernels
        (line,) = [text for text in capsys.readouterr().err.splitlines()
                   if text.startswith("[stats] fastpath:")]
        return line, kernel.metrics

    def test_hit_rate(self, installed, tmp_path, capsys, cli_kernels):
        line, metrics = self._stats_line(installed, tmp_path, capsys, cli_kernels)
        # A full check at the getpid and exit sites, thunk hits after.
        assert line == "[stats] fastpath: 49 hits / 2 misses (96.1% hit rate)"
        assert metrics.get("fastpath.hits") == 49
        assert metrics.get("fastpath.misses") == 2

    def test_hit_rate_no_lookups(self, installed, tmp_path, capsys, cli_kernels):
        line, metrics = self._stats_line(
            installed, tmp_path, capsys, cli_kernels, "--no-fastpath"
        )
        assert line == "[stats] fastpath: 0 hits / 0 misses (0.0% hit rate)"
        assert metrics.get("fastpath.hits") == metrics.get("fastpath.misses") == 0


class TestMacStats:
    """``repro run --stats`` names the MAC provider and, for AES-CMAC,
    the AES block that ran, since host times differ by backend."""

    def _mac_line(self, binary, tmp_path, capsys, cli_kernels, *flags):
        path = tmp_path / "fploop.sef"
        path.write_bytes(binary.to_bytes())
        status = cli_main([*flags, "--key", "test-fastpath", "run", str(path), "--stats"])
        assert status == 0
        (kernel,) = cli_kernels
        (line,) = [text for text in capsys.readouterr().err.splitlines()
                   if text.startswith("[stats] mac:")]
        return line, kernel.mac

    def test_aes_cmac_names_its_block(self, tmp_path, capsys, cli_kernels):
        binary = assemble(LOOP_PROGRAM, metadata={"program": "fploop"})
        installed = install(binary, Key.from_passphrase("test-fastpath"))
        line, mac = self._mac_line(installed.binary, tmp_path, capsys, cli_kernels)
        block = "libcrypto" if libcrypto_binding() is not None else "table"
        assert line == f"[stats] mac: aes-cmac (AES block: {block})"
        assert mac.block_cipher == block

    def test_fast_hmac_names_only_the_provider(self, installed, tmp_path, capsys, cli_kernels):
        line, mac = self._mac_line(installed.binary, tmp_path, capsys, cli_kernels,
                                   "--fast-mac")
        assert line == "[stats] mac: fast-hmac"
        assert mac.name == "fast-hmac"


class TestKernelCounters:
    def test_steady_state_hits(self, installed):
        kernel = Kernel(key=KEY)
        result = kernel.run(installed.binary)
        assert result.ok
        hits = kernel.metrics.get("fastpath.hits")
        misses = kernel.metrics.get("fastpath.misses")
        # One getpid site (miss on first trap, hits after) plus exit.
        assert hits >= LOOP_ITERATIONS - 2
        assert misses <= 2
        assert hits / (hits + misses) > 0.9

    def test_no_fastpath_never_probes(self, installed):
        kernel = Kernel(key=KEY, fastpath=False)
        result = kernel.run(installed.binary)
        assert result.ok
        assert kernel.metrics.get("fastpath.hits") == 0
        assert kernel.metrics.get("fastpath.misses") == 0

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
