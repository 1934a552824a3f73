"""System call semantics, exercised by real guest programs."""

import struct

from repro.kernel.errors import Errno, errno_of, is_error
from repro.kernel.process import MMAP_BASE
from repro.kernel.syscalls import MAX_MMAP_BYTES, PAGE
from tests.kernel.conftest import run_guest
from tests.kernel.sched.conftest import run_sched_guest

EXIT0 = """
    li r1, 0
    call sys_exit
"""


def _exit_with_r0():
    """Exit with the low byte of the last syscall's result."""
    return """
    mov r1, r0
    call sys_exit
"""


class TestErrnoHelpers:
    def test_as_result_is_twos_complement(self):
        assert Errno.ENOENT.as_result() == 0xFFFFFFFE

    def test_is_error_range(self):
        assert is_error(Errno.ENOENT.as_result())
        assert not is_error(0)
        assert not is_error(0x7FFFFFFF)

    def test_errno_of(self):
        assert errno_of(Errno.EBADF.as_result()) == Errno.EBADF


class TestProcessIdentity:
    def test_getpid_stable_and_unique(self, kernel):
        first = run_guest(kernel, "call sys_getpid\n" + _exit_with_r0(), ["getpid"])
        second = run_guest(kernel, "call sys_getpid\n" + _exit_with_r0(), ["getpid"])
        assert second.exit_status == first.exit_status + 1

    def test_uid_gid(self, kernel):
        result = run_guest(kernel, "call sys_getuid\n" + _exit_with_r0(), ["getuid"])
        assert result.exit_status == 1000 & 0xFF

    def test_exit_status_masked(self, kernel):
        result = run_guest(kernel, "li r1, 300\ncall sys_exit", [])
        assert result.exit_status == 300 & 0xFF


class TestFileIo:
    def test_open_read_write_close(self, kernel):
        kernel.vfs.write_file("/tmp/in", b"abcdef")
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    mov r14, r0
    mov r1, r14
    li r2, buf
    li r3, 16
    call sys_read
    mov r13, r0
    li r1, 1
    li r2, buf
    mov r3, r13
    call sys_write
    mov r1, r14
    call sys_close
""" + EXIT0,
            ["open", "read", "write", "close"],
            data='.section .rodata\npath:\n  .asciz "/tmp/in"\n'
                 '.section .bss\nbuf:\n  .space 16',
        )
        assert result.stdout == b"abcdef"
        assert result.exit_status == 0

    def test_open_missing_file_returns_enoent(self, kernel):
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["open"], data='.section .rodata\npath:\n  .asciz "/tmp/ghost"')
        assert result.exit_status == int(Errno.ENOENT)

    def test_o_creat_and_trunc(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"oldcontent")
        run_guest(kernel, """
    li r1, path
    li r2, 0x241
    li r3, 0x1a4
    call sys_open
    mov r1, r0
    li r2, msg
    li r3, 3
    call sys_write
""" + EXIT0,
            ["open", "write"],
            data='.section .rodata\npath:\n  .asciz "/tmp/f"\nmsg:\n  .asciz "new"',
        )
        assert kernel.vfs.read_file("/tmp/f") == b"new"

    def test_append_mode(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"AB")
        run_guest(kernel, """
    li r1, path
    li r2, 0x401         ; O_WRONLY|O_APPEND (0o2001)
    call sys_open
    mov r1, r0
    li r2, msg
    li r3, 2
    call sys_write
""" + EXIT0,
            ["open", "write"],
            data='.section .rodata\npath:\n  .asciz "/tmp/f"\nmsg:\n  .asciz "CD"',
        )
        assert kernel.vfs.read_file("/tmp/f") == b"ABCD"

    def test_read_from_stdin(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    li r2, buf
    li r3, 5
    call sys_read
    li r1, 1
    li r2, buf
    mov r3, r0
    call sys_write
""" + EXIT0,
            ["read", "write"],
            data=".section .bss\nbuf:\n  .space 8",
            stdin=b"hi!",
        )
        assert result.stdout == b"hi!"

    def test_bad_fd(self, kernel):
        result = run_guest(kernel, """
    li r1, 55
    call sys_close
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["close"])
        assert result.exit_status == int(Errno.EBADF)

    def test_lseek_set_and_end(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"0123456789")
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    mov r14, r0
    mov r1, r14
    li r2, 4
    li r3, 0
    call sys_lseek
    mov r1, r14
    li r2, buf
    li r3, 2
    call sys_read
    li r1, 1
    li r2, buf
    li r3, 2
    call sys_write
""" + EXIT0,
            ["open", "lseek", "read", "write"],
            data='.section .rodata\npath:\n  .asciz "/tmp/f"\n'
                 '.section .bss\nbuf:\n  .space 4',
        )
        assert result.stdout == b"45"

    def test_dup_shares_offset_snapshot(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"xyz")
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    mov r1, r0
    call sys_dup
""" + _exit_with_r0(),
            ["open", "dup"],
            data='.section .rodata\npath:\n  .asciz "/tmp/f"',
        )
        assert result.exit_status == 4  # 0,1,2 std; 3 open; 4 dup


class TestNamespaceCalls:
    def test_mkdir_chdir_getcwd(self, kernel):
        result = run_guest(kernel, """
    li r1, path
    li r2, 0x1ed
    call sys_mkdir
    li r1, path
    call sys_chdir
    li r1, buf
    li r2, 64
    call sys_getcwd
    subi r3, r0, 1
    li r1, 1
    li r2, buf
    call sys_write
""" + EXIT0,
            ["mkdir", "chdir", "getcwd", "write"],
            data='.section .rodata\npath:\n  .asciz "/tmp/newdir"\n'
                 '.section .bss\nbuf:\n  .space 64',
        )
        assert result.stdout == b"/tmp/newdir"

    def test_unlink_and_access(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"")
        result = run_guest(kernel, """
    li r1, path
    call sys_unlink
    li r1, path
    li r2, 0
    call sys_access
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["unlink", "access"], data='.section .rodata\npath:\n  .asciz "/tmp/f"')
        assert result.exit_status == int(Errno.ENOENT)

    def test_rename(self, kernel):
        kernel.vfs.write_file("/tmp/a", b"data")
        run_guest(kernel, """
    li r1, old
    li r2, new
    call sys_rename
""" + EXIT0,
            ["rename"],
            data='.section .rodata\nold:\n  .asciz "/tmp/a"\nnew:\n  .asciz "/tmp/b"',
        )
        assert kernel.vfs.read_file("/tmp/b") == b"data"

    def test_symlink_readlink(self, kernel):
        result = run_guest(kernel, """
    li r1, target
    li r2, ln
    call sys_symlink
    li r1, ln
    li r2, buf
    li r3, 64
    call sys_readlink
    mov r3, r0
    li r1, 1
    li r2, buf
    call sys_write
""" + EXIT0,
            ["symlink", "readlink", "write"],
            data='.section .rodata\ntarget:\n  .asciz "/etc/motd"\n'
                 'ln:\n  .asciz "/tmp/ln"\n.section .bss\nbuf:\n  .space 64',
        )
        assert result.stdout == b"/etc/motd"


class TestMetadataCalls:
    def test_stat_fields(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"12345")
        result = run_guest(kernel, """
    li r1, path
    li r2, buf
    call sys_stat
    li r1, 1
    li r2, buf
    li r3, 12
    call sys_write
""" + EXIT0,
            ["stat", "write"],
            data='.section .rodata\npath:\n  .asciz "/tmp/f"\n'
                 '.section .bss\nbuf:\n  .space 32',
        )
        ino, mode, size = struct.unpack_from("<III", result.stdout, 0)
        assert size == 5
        assert mode & 0o170000 == 0o100000  # S_IFREG

    def test_gettimeofday_writes_tv(self, kernel):
        result = run_guest(kernel, """
    li r1, buf
    li r2, 0
    call sys_gettimeofday
    li r1, 1
    li r2, buf
    li r3, 8
    call sys_write
""" + EXIT0,
            ["gettimeofday", "write"],
            data=".section .bss\nbuf:\n  .space 8",
        )
        seconds, _micros = struct.unpack("<II", result.stdout)
        assert seconds >= 1127692800

    def test_uname(self, kernel):
        result = run_guest(kernel, """
    li r1, buf
    call sys_uname
    li r1, 1
    li r2, buf
    li r3, 5
    call sys_write
""" + EXIT0,
            ["uname", "write"],
            data=".section .bss\nbuf:\n  .space 160",
        )
        assert result.stdout == b"SVM32"

    def test_getdirentries_format(self, kernel):
        kernel.vfs.write_file("/tmp/zz", b"")
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    mov r1, r0
    li r2, buf
    li r3, 256
    li r4, 0
    call sys_getdirentries
    mov r3, r0
    li r1, 1
    li r2, buf
    call sys_write
""" + EXIT0,
            ["open", "getdirentries", "write"],
            data='.section .rodata\npath:\n  .asciz "/tmp"\n'
                 '.section .bss\nbuf:\n  .space 256',
        )
        assert b"zz\x00" in result.stdout


class TestMemoryCalls:
    def test_brk_grows_heap(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    call sys_brk
    mov r14, r0
    addi r1, r14, 8192
    call sys_brk
    sub r1, r0, r14
    call sys_exit
""", ["brk"])
        assert result.exit_status == 8192 & 0xFF or result.exit_status == 0

    def test_brk_memory_usable(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    call sys_brk
    mov r14, r0
    addi r1, r14, 4096
    call sys_brk
    li r9, 77
    st r9, [r14+100]
    ld r1, [r14+100]
    call sys_exit
""", ["brk"])
        assert result.exit_status == 77

    def test_mmap_returns_usable_region(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    li r2, 8192
    li r3, 3
    li r4, 0x22
    li r5, 0xFFFFFFFF
    li r6, 0
    call sys_mmap
    mov r14, r0
    li r9, 55
    st r9, [r14+4096]
    ld r1, [r14+4096]
    call sys_exit
""", ["mmap"])
        assert result.exit_status == 55

    def test_mmap_file_backed(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"Q" + bytes(10))
        result = run_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_open
    mov r13, r0
    li r1, 0
    li r2, 4096
    li r3, 1
    li r4, 2
    mov r5, r13
    li r6, 0
    call sys_mmap
    ldb r1, [r0+0]
    call sys_exit
""", ["open", "mmap"], data='.section .rodata\npath:\n  .asciz "/tmp/f"')
        assert result.exit_status == ord("Q")

    def test_mmap_of_an_unopened_fd_maps_nothing(self, kernel):
        result = run_guest(kernel, _mmap_call(0x100000, fd=77) + _exit_with_r0(), ["mmap"])
        assert result.exit_status == Errno.EBADF.as_result() & 0xFF
        assert (result.process.mmap_cursor, result.process.mmap_bytes) == (MMAP_BASE, 0)
        assert not [r for r in result.vm.memory.regions() if r.name.startswith("[mmap")]

    def test_mmap_up_to_the_cap_then_one_page_past_it(self, kernel):
        result = run_guest(kernel, _mmap_call(MAX_MMAP_BYTES) + """
    mov r13, r0
""" + _mmap_call(PAGE) + """
    mov r12, r0
""" + EXIT0, ["mmap"])
        assert result.exit_status == 0
        assert result.vm.regs[13] == MMAP_BASE
        assert result.vm.regs[12] == Errno.ENOMEM.as_result()
        process = result.process
        assert process.mmap_bytes == MAX_MMAP_BYTES
        assert process.mmap_cursor == MMAP_BASE + MAX_MMAP_BYTES + PAGE
        mapped = [r for r in result.vm.memory.regions() if r.name.startswith("[mmap")]
        assert [len(r.data) for r in mapped] == [MAX_MMAP_BYTES]

    def test_fork_child_starts_from_its_parents_mmap_total(self, kernel):
        # The parent maps all but one page; the child may map that page
        # and no more.
        multi = run_sched_guest(kernel, _mmap_call(MAX_MMAP_BYTES - PAGE) + """
    call sys_fork
    cmpi r0, 0
    beq child
    mov r1, r0
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
""" + EXIT0 + """
child:
""" + _mmap_call(2 * PAGE) + """
    mov r12, r0
""" + _mmap_call(PAGE) + """
    mov r13, r0
""" + EXIT0, ["mmap", "fork", "wait4"], data=".section .data\nwstatus:\n    .space 4")
        parent, child = (multi.scheduler.tasks[pid] for pid in sorted(multi.scheduler.tasks))
        assert parent.process.mmap_bytes == MAX_MMAP_BYTES - PAGE
        assert child.vm.regs[12] == Errno.ENOMEM.as_result()
        assert child.vm.regs[13] == MMAP_BASE + MAX_MMAP_BYTES
        assert child.process.mmap_bytes == MAX_MMAP_BYTES


def _mmap_call(length: int, fd: int = 0xFFFFFFFF) -> str:
    """Guest code for ``mmap(0, length, RW, flags, fd, 0)`` (anonymous
    by default); the result lands in r0."""
    flags = 0x22 if fd == 0xFFFFFFFF else 0x2
    return f"""
    li r1, 0
    li r2, {length}
    li r3, 3
    li r4, {flags}
    li r5, {fd}
    li r6, 0
    call sys_mmap
"""


class TestVectoredIo:
    def test_writev_gathers(self, kernel):
        result = run_guest(kernel, """
    li r1, 1
    li r2, iov
    li r3, 2
    call sys_writev
""" + EXIT0,
            ["writev"],
            data=".section .rodata\n"
                 'part1:\n  .asciz "hello "\n'
                 'part2:\n  .asciz "world"\n'
                 ".section .data\niov:\n"
                 "  .word part1, 6, part2, 5",
        )
        assert result.stdout == b"hello world"


class TestIndirection:
    def test_generic_syscall_dispatches(self, kernel):
        # __syscall(20) == getpid
        result = run_guest(kernel, """
    li r1, 20
    call sys_syscall
""" + _exit_with_r0(), ["__syscall", "getpid"])
        assert result.exit_status == result.process.pid & 0xFF

    def test_generic_syscall_rejects_recursion(self, kernel):
        result = run_guest(kernel, """
    li r1, 198
    call sys_syscall
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["__syscall"])
        assert result.exit_status == int(Errno.ENOSYS)


class TestSignalsAndLimits:
    def test_kill_signal_zero_probe(self, kernel):
        result = run_guest(kernel, """
    call sys_getpid
    mov r1, r0
    li r2, 0
    call sys_kill
""" + _exit_with_r0(), ["getpid", "kill"])
        assert result.exit_status == 0

    def test_kill_self_terminates(self, kernel):
        result = run_guest(kernel, """
    call sys_getpid
    mov r1, r0
    li r2, 9
    call sys_kill
""" + EXIT0, ["getpid", "kill"])
        assert result.killed
        assert result.exit_status == 128 + 9

    def test_sigaction_records_handler(self, kernel):
        result = run_guest(kernel, """
    li r1, 2
    li r2, 0x1234
    li r3, 0
    call sys_sigaction
""" + _exit_with_r0(), ["sigaction"])
        assert result.exit_status == 0
        assert result.process.signal_handlers[2] == 0x1234

    def test_getrlimit(self, kernel):
        result = run_guest(kernel, """
    li r1, 0
    li r2, buf
    call sys_getrlimit
    ld r1, [r2+0]
    andi r1, r1, 0xFF
    call sys_exit
""", ["getrlimit"], data=".section .bss\nbuf:\n  .space 8")
        assert result.exit_status == 0xFF


class TestSockets:
    def test_socket_sendto(self, kernel):
        result = run_guest(kernel, """
    li r1, 2
    li r2, 1
    li r3, 0
    call sys_socket
    mov r1, r0
    li r2, msg
    li r3, 4
    li r4, 0
    li r5, 0
    li r6, 0
    call sys_sendto
""" + _exit_with_r0(),
            ["socket", "sendto"],
            data='.section .rodata\nmsg:\n  .asciz "ping"',
        )
        assert result.exit_status == 4
        assert result.process.network == [b"ping"]

    def test_sendto_on_file_fd_rejected(self, kernel):
        kernel.vfs.write_file("/tmp/f", b"")
        result = run_guest(kernel, """
    li r1, path
    li r2, 1
    call sys_open
    mov r1, r0
    li r2, msg
    li r3, 1
    li r4, 0
    call sys_sendto
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""",
            ["open", "sendto"],
            data='.section .rodata\npath:\n  .asciz "/tmp/f"\nmsg:\n  .asciz "x"',
        )
        assert result.exit_status == int(Errno.EINVAL)


class TestUnknownSyscall:
    def test_enosys(self, kernel):
        result = run_guest(kernel, """
    li r0, 9999
    sys
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", [])
        assert result.exit_status == int(Errno.ENOSYS)
