"""Kernel pipe objects: the Pipe primitive and the fd-level plumbing."""

import pytest

from repro.kernel.sched.blocking import WouldBlock
from repro.kernel.sched.pipe import PIPE_CAPACITY, BrokenPipe, Pipe

from tests.kernel.sched.conftest import run_sched_guest


class TestPipePrimitive:
    def _pipe(self):
        pipe = Pipe(ident=0)
        pipe.retain(writer=False)
        pipe.retain(writer=True)
        return pipe

    def test_roundtrip(self):
        pipe = self._pipe()
        assert pipe.write(b"hello") == 5
        assert pipe.read(5) == b"hello"

    def test_short_read_drains_what_is_there(self):
        pipe = self._pipe()
        pipe.write(b"abc")
        assert pipe.read(100) == b"abc"

    def test_empty_read_blocks_while_writers_exist(self):
        pipe = self._pipe()
        with pytest.raises(WouldBlock):
            pipe.read(1)

    def test_empty_read_is_eof_after_writers_close(self):
        pipe = self._pipe()
        pipe.release(writer=True)
        assert pipe.read(1) == b""

    def test_buffered_data_survives_writer_close(self):
        pipe = self._pipe()
        pipe.write(b"tail")
        pipe.release(writer=True)
        assert pipe.read(10) == b"tail"
        assert pipe.read(10) == b""

    def test_write_without_readers_breaks(self):
        pipe = self._pipe()
        pipe.release(writer=False)
        with pytest.raises(BrokenPipe):
            pipe.write(b"x")

    def test_full_pipe_blocks_blocking_writer(self):
        pipe = self._pipe()
        pipe.write(b"x" * PIPE_CAPACITY)
        with pytest.raises(WouldBlock):
            pipe.write(b"y")

    def test_partial_write_accepts_available_space(self):
        pipe = self._pipe()
        pipe.write(b"x" * (PIPE_CAPACITY - 3))
        assert pipe.write(b"abcdef") == 3



PIPE_DATA = """
.section .rodata
msg:
    .ascii "hi"
.section .data
pfd:
    .space 8
.section .bss
buf:
    .space 16
"""


class TestPipeSyscalls:
    def test_sync_roundtrip(self, kernel):
        """Under plain ``Kernel.run`` a process can write its own pipe
        and read the bytes back."""
        from tests.kernel.conftest import run_guest

        result = run_guest(kernel, """
    li r1, pfd
    call sys_pipe
    li r9, pfd
    ld r1, [r9+4]
    li r2, msg
    li r3, 2
    call sys_write
    li r9, pfd
    ld r1, [r9+0]
    li r2, buf
    li r3, 16
    call sys_read
    mov r1, r0
    call sys_exit
""", ["pipe", "read", "write"], data=PIPE_DATA)
        assert result.exit_status == 2

    def test_sync_empty_read_returns_zero(self, kernel):
        """Under plain ``Kernel.run``, an empty pipe whose write end is
        closed reads as EOF: 0 bytes."""
        from tests.kernel.conftest import run_guest

        result = run_guest(kernel, """
    li r1, pfd
    call sys_pipe
    li r9, pfd
    ld r1, [r9+4]
    call sys_close
    li r9, pfd
    ld r1, [r9+0]
    li r2, buf
    li r3, 16
    call sys_read
    mov r1, r0
    call sys_exit
""", ["pipe", "close", "read"], data=PIPE_DATA)
        assert not result.killed
        assert result.exit_status == 0

    def test_scheduled_roundtrip(self, kernel):
        multi = run_sched_guest(kernel, """
    li r1, pfd
    call sys_pipe
    li r9, pfd
    ld r1, [r9+4]
    li r2, msg
    li r3, 2
    call sys_write
    li r9, pfd
    ld r1, [r9+0]
    li r2, buf
    li r3, 16
    call sys_read
    mov r1, r0
    call sys_exit
""", ["pipe", "read", "write"], data=PIPE_DATA)
        assert multi.results[0].exit_status == 2

    def test_dup_keeps_write_end_alive(self, kernel):
        """dup the write end, close the original: the write end stays
        open (refcount 1 remains), so bytes written through the dup
        reach the reader."""
        from tests.kernel.conftest import run_guest

        result = run_guest(kernel, """
    li r1, pfd
    call sys_pipe
    li r9, pfd
    ld r1, [r9+4]
    call sys_dup
    li r9, pfd
    ld r1, [r9+4]
    call sys_close
    ; write through the dup'd fd, read it back
    li r9, pfd
    ld r1, [r9+4]
    addi r1, r1, 1       ; dup allocated the next free fd
    li r2, msg
    li r3, 2
    call sys_write
    li r9, pfd
    ld r1, [r9+0]
    li r2, buf
    li r3, 16
    call sys_read
    mov r1, r0
    call sys_exit
""", ["pipe", "dup", "close", "read", "write"], data=PIPE_DATA)
        assert result.exit_status == 2
