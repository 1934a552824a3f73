"""Long-tail syscall coverage: the calls the big profiles exercise."""

import pytest

from repro.kernel.errors import Errno
from repro.kernel.syscalls import MAX_FILE_SIZE, MAX_RW
from tests.kernel.conftest import run_guest

EXIT0 = """
    li r1, 0
    call sys_exit
"""

#: exit(-r0): a failing call's errno becomes the exit status.
EXIT_ERRNO = """
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
"""

PATH_DATA = '.section .rodata\npath:\n  .asciz "/tmp/f"\nbyte:\n  .asciz "x"'


def _exit_r0():
    return "\n    mov r1, r0\n    call sys_exit\n"


class TestIdentityTail:
    def test_gid_family(self, kernel):
        result = run_guest(kernel, "call sys_getgid" + _exit_r0(), ["getgid"])
        assert result.exit_status == 1000 & 0xFF

    def test_setuid_to_self_ok(self, kernel):
        result = run_guest(
            kernel, "li r1, 1000\ncall sys_setuid" + _exit_r0(), ["setuid"]
        )
        assert result.exit_status == 0

    def test_setuid_to_root_denied(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    call sys_setuid
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["setuid"])
        assert result.exit_status == int(Errno.EPERM)

    def test_pgrp_and_sid(self, kernel):
        result = run_guest(kernel, """
    call sys_getpgrp
    mov r14, r0
    call sys_setsid
    sub r1, r0, r14
    call sys_exit
""", ["getpgrp", "setsid"])
        assert result.exit_status == 0  # both return the pid


class TestFileTail:
    def test_truncate_and_ftruncate(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"0123456789")
        run_guest(kernel, """
    li r1, path
    li r2, 4
    call sys_truncate
""" + EXIT0, ["truncate"], data='.section .rodata\npath:\n  .asciz "/tmp/f"')
        assert kernel.vfs.read_file("/tmp/f") == b"0123"
        run_guest(kernel, """
    li r1, path
    li r2, 2
    call sys_open
    mov r1, r0
    li r2, 8
    call sys_ftruncate
""" + EXIT0, ["open", "ftruncate"],
                  data='.section .rodata\npath:\n  .asciz "/tmp/f"')
        assert kernel.vfs.read_file("/tmp/f") == b"0123" + bytes(4)

    def test_fchmod(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"")
        run_guest(kernel, """
    li r1, path
    li r2, 2
    call sys_open
    mov r1, r0
    li r2, 0x180
    call sys_fchmod
""" + EXIT0, ["open", "fchmod"],
                  data='.section .rodata\npath:\n  .asciz "/tmp/f"')
        assert kernel.vfs.lookup("/tmp/f").mode == 0o600

    def test_link_shares_inode(self, kernel):
        kernel.vfs.write_file("/tmp/orig", b"shared")
        run_guest(kernel, """
    li r1, old
    li r2, new
    call sys_link
""" + EXIT0, ["link"],
                  data='.section .rodata\nold:\n  .asciz "/tmp/orig"\n'
                       'new:\n  .asciz "/tmp/alias"')
        assert kernel.vfs.read_file("/tmp/alias") == b"shared"
        assert kernel.vfs.lookup("/tmp/alias") is kernel.vfs.lookup("/tmp/orig")
        assert kernel.vfs.lookup("/tmp/orig").nlink == 2

    def test_fchdir(self, kernel):
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    mov r1, r0
    call sys_fchdir
    li r1, buf
    li r2, 32
    call sys_getcwd
    subi r3, r0, 1
    li r1, 1
    li r2, buf
    call sys_write
""" + EXIT0, ["open", "fchdir", "getcwd", "write"],
                  data='.section .rodata\npath:\n  .asciz "/etc"\n'
                       '.section .bss\nbuf:\n  .space 32')
        assert result.stdout == b"/etc"

    def test_flock_and_fsync_noop_success(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"")
        result = run_guest(kernel, """
    li r1, path
    li r2, 2
    call sys_open
    mov r14, r0
    mov r1, r14
    li r2, 2
    call sys_flock
    mov r1, r14
    call sys_fsync
""" + _exit_r0(), ["open", "flock", "fsync"],
                  data='.section .rodata\npath:\n  .asciz "/tmp/f"')
        assert result.exit_status == 0

    def test_readv_gathers(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"ABCDEFGH")
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    mov r1, r0
    li r2, iov
    li r3, 2
    call sys_readv
    mov r14, r0
    li r1, 1
    li r2, b1
    li r3, 3
    call sys_write
    li r1, 1
    li r2, b2
    li r3, 5
    call sys_write
""" + EXIT0, ["open", "readv", "write"],
                  data='.section .rodata\npath:\n  .asciz "/tmp/f"\n'
                       '.section .data\niov:\n  .word b1, 3, b2, 5\n'
                       '.section .bss\nb1:\n  .space 3\nb2:\n  .space 8')
        assert result.stdout == b"ABCDEFGH"


class TestFileSizeBound:
    """A write, truncate or ftruncate that would leave a file larger
    than MAX_FILE_SIZE fails with EFBIG and leaves the file as it was."""

    def test_truncate_up_to_the_cap_then_past_it(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"0123")
        result = run_guest(kernel, f"""
    li r1, path
    li r2, {MAX_FILE_SIZE}
    call sys_truncate
    cmpi r0, 0
    bne done
    li r1, path
    li r2, {MAX_FILE_SIZE + 1}
    call sys_truncate
done:""" + EXIT_ERRNO, ["truncate"], data=PATH_DATA)
        assert result.exit_status == int(Errno.EFBIG)
        assert len(kernel.vfs.read_file("/tmp/f")) == MAX_FILE_SIZE

    def test_ftruncate_past_the_cap(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"0123")
        result = run_guest(kernel, """
    li r1, path
    li r2, 2
    call sys_open
    mov r1, r0
    li r2, 0xFFFFFFFF
    call sys_ftruncate
""" + EXIT_ERRNO, ["open", "ftruncate"], data=PATH_DATA)
        assert result.exit_status == int(Errno.EFBIG)
        assert kernel.vfs.read_file("/tmp/f") == b"0123"

    def test_write_ending_at_the_cap_then_past_it(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"0123")
        result = run_guest(kernel, f"""
    li r1, path
    li r2, 2
    call sys_open
    mov r14, r0
    mov r1, r14
    li r2, {MAX_FILE_SIZE - 1}
    li r3, 0
    call sys_lseek
    mov r1, r14
    li r2, byte
    li r3, 1
    call sys_write
    cmpi r0, 1
    bne done
    mov r1, r14
    li r2, byte
    li r3, 1
    call sys_write
done:""" + EXIT_ERRNO, ["open", "lseek", "write"], data=PATH_DATA)
        assert result.exit_status == int(Errno.EFBIG)
        data = kernel.vfs.read_file("/tmp/f")
        assert len(data) == MAX_FILE_SIZE and data[-1:] == b"x"

    def test_write_after_seeking_past_4_gib(self, kernel):
        # Repeated SEEK_CUR moves the offset past what a 32-bit
        # argument can name; the write there must not zero-fill.
        kernel.vfs.write_file("/tmp/f", b"0123")
        result = run_guest(kernel, """
    li r1, path
    li r2, 2
    call sys_open
    mov r14, r0
    li r13, 3
again:
    mov r1, r14
    li r2, 0x7FFFFFFF
    li r3, 1
    call sys_lseek
    subi r13, r13, 1
    cmpi r13, 0
    bgt again
    mov r1, r14
    li r2, byte
    li r3, 1
    call sys_write
""" + EXIT_ERRNO, ["open", "lseek", "write"], data=PATH_DATA)
        assert result.exit_status == int(Errno.EFBIG)
        assert kernel.vfs.read_file("/tmp/f") == b"0123"


class TestOutputBound:
    """The output the kernel holds for a process (console stdout and
    stderr, the unconnected-socket sink) is capped like a file: a write
    that would take it past MAX_FILE_SIZE fails with EFBIG and appends
    nothing."""

    #: 16 writes of MAX_RW fill the cap exactly; the 17th passes it.
    WRITES = MAX_FILE_SIZE // MAX_RW + 1
    BUFFER = f".section .bss\nbuf:\n  .space {MAX_RW}"

    def _flood(self, call):
        """Up to WRITES calls of MAX_RW bytes to the fd in r12; the
        first that writes less ends the loop and exits with its errno."""
        return f"""
    li r13, {self.WRITES}
again:
    mov r1, r12
    li r2, buf
    li r3, {MAX_RW}
    li r4, 0
    li r5, 0
    li r6, 0
    call sys_{call}
    cmpi r0, {MAX_RW}
    bne done
    subi r13, r13, 1
    cmpi r13, 0
    bgt again
done:""" + EXIT_ERRNO

    def test_stdout(self, kernel):
        result = run_guest(
            kernel, "    li r12, 1" + self._flood("write"), ["write"],
            data=self.BUFFER,
        )
        assert result.exit_status == int(Errno.EFBIG)
        assert len(result.stdout) == MAX_FILE_SIZE

    @pytest.mark.parametrize("call", ["write", "sendto"])
    def test_unconnected_socket(self, kernel, call):
        result = run_guest(kernel, """
    li r1, 2
    li r2, 1
    li r3, 0
    call sys_socket
    mov r12, r0""" + self._flood(call), ["socket", call], data=self.BUFFER)
        assert result.exit_status == int(Errno.EFBIG)
        assert len(result.process.network) == MAX_FILE_SIZE


class TestResourceTail:
    def test_times_reports_ticks(self, kernel):
        result = run_guest(kernel, """
    cpuwork 48000000
    li r1, buf
    call sys_times
""" + _exit_r0(), ["times"], data=".section .bss\nbuf:\n  .space 16")
        # 48M cycles at 2.4G/100 ticks-per-second granularity = 2 ticks
        assert result.exit_status == 2

    def test_getrusage_writes_struct(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    li r2, buf
    call sys_getrusage
""" + _exit_r0(), ["getrusage"], data=".section .bss\nbuf:\n  .space 16")
        assert result.exit_status == 0

    def test_priority_calls(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    li r2, 0
    call sys_getpriority
""" + _exit_r0(), ["getpriority"])
        assert result.exit_status == 20

    def test_getgroups(self, kernel):
        result = run_guest(kernel, """
    li r1, 4
    li r2, buf
    call sys_getgroups
    ld r1, [r2+0]
    andi r1, r1, 0xFF
    call sys_exit
""", ["getgroups"], data=".section .bss\nbuf:\n  .space 16")
        assert result.exit_status == 1000 & 0xFF

    def test_wait4_echild(self, kernel):
        result = run_guest(kernel, """
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["wait4"])
        assert result.exit_status == int(Errno.ECHILD)

    def test_statfs(self, kernel):
        result = run_guest(kernel, """
    li r1, path
    li r2, buf
    call sys_statfs
    ld r1, [r2+4]
    shri r1, r1, 8
    call sys_exit
""", ["statfs"],
                  data='.section .rodata\npath:\n  .asciz "/tmp"\n'
                       ".section .bss\nbuf:\n  .space 16")
        assert result.exit_status == 0x10  # block size 4096 >> 8

    def test_select_and_poll_report_ready(self, kernel):
        result = run_guest(kernel, """
    li r1, 3
    li r2, 0
    li r3, 0
    li r4, 0
    li r5, 0
    call sys_select
    mov r14, r0
    li r1, 0
    li r2, 2
    li r3, 0
    call sys_poll
    add r1, r0, r14
    call sys_exit
""", ["select", "poll"])
        assert result.exit_status == 5


class TestSpawn:
    def test_spawn_returns_child_status(self, kernel):
        from repro.asm import assemble
        from repro.workloads.runtime import runtime_source

        child = assemble(
            ".section .text\n.global _start\n_start:\n    li r1, 7\n"
            "    call sys_exit\n" + runtime_source("linux", ("exit",)),
            metadata={"program": "child"},
        )
        kernel.register_binary("/bin/child", child)
        # spawn returns the child's pid; wait4 on it yields the status.
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_spawn
    cmpi r0, 0
    ble bad
    mov r1, r0
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
bad:
    li r1, 1
    call sys_exit
""", ["spawn", "wait4"],
                  data='.section .rodata\npath:\n  .asciz "/bin/child"\n'
                       '.section .data\nwstatus:\n  .word 0')
        assert result.exit_status == 7

    def test_spawn_missing_program(self, kernel):
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_spawn
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["spawn"], data='.section .rodata\npath:\n  .asciz "/bin/ghost"')
        # spawn truncates the status to a byte; an error surfaces as the
        # low byte of -ENOENT... check it is nonzero and not a crash.
        assert result.exit_status != 7

    SELF_SPAWN = """
.section .text
.global _start
_start:
    li r1, path
    li r2, 0
    call sys_spawn
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/bin/loop"
"""

    def _self_spawner(self, kernel):
        from repro.asm import assemble
        from repro.workloads.runtime import runtime_source

        binary = assemble(
            self.SELF_SPAWN + runtime_source("linux", ("spawn", "exit")),
            metadata={"program": "loop"},
        )
        kernel.register_binary("/bin/loop", binary)
        return binary

    def test_exec_depth_limited(self, kernel):
        # A program that spawns itself and exits stops at the task cap:
        # the last spawn fails with EAGAIN instead of growing forever.
        from repro.kernel.sched.scheduler import MAX_TASKS

        result = kernel.run(self._self_spawner(kernel))
        assert result.exit_status == 0
        tasks = kernel._scheduler.tasks
        assert len(tasks) == MAX_TASKS
        assert kernel.metrics.get("sched.spawns") == MAX_TASKS - 1
        assert all(not task.killed and task.exit_status == 0 for task in tasks.values())

    def test_self_spawn_chain_capped_under_run_many(self, kernel):
        from repro.kernel.sched.scheduler import MAX_TASKS

        multi = kernel.run_many([self._self_spawner(kernel)], timeslice=200)
        assert multi.results[0].exit_status == 0
        assert len(multi.scheduler.tasks) == MAX_TASKS
        assert kernel.metrics.get("sched.spawns") == MAX_TASKS - 1


class TestUnlinkableExecutable:
    """A target that parses as SEF but cannot be linked (a relocation
    pointing outside the address space) is refused with ``EACCES`` on
    every execve/spawn path — it must never escape to the host."""

    BODY = """
    li r1, path
    li r2, 0
    li r3, 0
    call sys_{call}
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
"""
    DATA = '.section .rodata\npath:\n  .asciz "/bin/bad"'

    @staticmethod
    def _register_unlinkable(kernel):
        import dataclasses

        from repro.asm import assemble
        from repro.binfmt import BinaryFormatError, SefBinary, link
        from repro.workloads.runtime import runtime_source

        binary = assemble(
            ".section .text\n.global _start\n_start:\n    li r1, msg\n"
            "    call sys_exit\n.section .rodata\nmsg:\n  .asciz \"x\"\n"
            + runtime_source("linux", ("exit",)),
            metadata={"program": "bad"},
        )
        binary.relocations[0] = dataclasses.replace(
            binary.relocations[0], addend=-0x80000000
        )
        blob = binary.to_bytes()
        with pytest.raises(BinaryFormatError, match="out of range"):
            link(SefBinary.from_bytes(blob))
        kernel.vfs.write_file("/bin/bad", blob)
        kernel.vfs.chmod("/bin/bad", 0o755)

    @pytest.mark.parametrize("call", ["execve", "spawn"])
    def test_run_returns_eacces(self, kernel, call):
        self._register_unlinkable(kernel)
        result = run_guest(
            kernel, self.BODY.format(call=call), [call], data=self.DATA
        )
        assert not result.killed
        assert result.exit_status == int(Errno.EACCES)

    @pytest.mark.parametrize("call", ["execve", "spawn"])
    def test_run_many_returns_eacces(self, kernel, call):
        from repro.asm import assemble
        from repro.workloads.runtime import runtime_source

        self._register_unlinkable(kernel)
        guest = assemble(
            ".section .text\n.global _start\n_start:\n"
            + self.BODY.format(call=call) + self.DATA + "\n"
            + runtime_source("linux", (call, "exit")),
            metadata={"program": "guest"},
        )
        multi = kernel.run_many([guest])
        assert not multi.results[0].killed
        assert multi.results[0].exit_status == int(Errno.EACCES)

    @staticmethod
    def _register_oversized(kernel, reserve):
        """A well-formed image whose .bss reserve reaches the stack."""
        from repro.asm import assemble
        from repro.binfmt import BinaryFormatError, link
        from repro.workloads.runtime import runtime_source

        binary = assemble(
            ".section .text\n.global _start\n_start:\n    li r1, 0\n"
            "    call sys_exit\n.section .bss\nbig:\n  .space 16\n"
            + runtime_source("linux", ("exit",)),
            metadata={"program": "big"},
        )
        binary.sections[".bss"].reserve = reserve
        with pytest.raises(BinaryFormatError, match="reaches the stack"):
            link(binary)
        kernel.register_binary("/bin/bad", binary)

    @pytest.mark.parametrize("reserve", [0xF0000000, 0x08000000])
    @pytest.mark.parametrize("call", ["execve", "spawn"])
    @pytest.mark.parametrize("entry", ["run", "run_many"])
    def test_image_reaching_the_stack_returns_eacces(self, kernel, entry, call, reserve):
        from repro.asm import assemble
        from repro.workloads.runtime import runtime_source

        self._register_oversized(kernel, reserve)
        guest = assemble(
            ".section .text\n.global _start\n_start:\n"
            + self.BODY.format(call=call) + self.DATA + "\n"
            + runtime_source("linux", (call, "exit")),
            metadata={"program": "guest"},
        )
        if entry == "run":
            result = kernel.run(guest)
        else:
            result = kernel.run_many([guest]).results[0]
        assert not result.killed
        assert result.exit_status == int(Errno.EACCES)
