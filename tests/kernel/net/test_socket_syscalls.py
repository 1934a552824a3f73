"""The socket system calls, exercised by real guest programs.

The handshake completes at ``connect`` and a send never waits while
the buffer has room, so one process under plain ``Kernel.run`` can
stand up a listener, dial it, and echo through the accepted end —
which is exactly what these tests do.
"""

from repro.kernel.errors import Errno
from tests.kernel.conftest import run_guest

NEG_R0_EXIT = """
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
"""

EXIT_R0 = """
    mov r1, r0
    call sys_exit
"""

FAIL = """
fail:
    li r1, 77
    call sys_exit
"""


def _socket(domain, type_, protocol):
    return f"""
    li r1, {domain}
    li r2, {type_}
    li r3, {protocol}
    call sys_socket
"""


class TestSocketArgumentValidation:
    def test_unknown_domain_is_eafnosupport(self, kernel):
        result = run_guest(
            kernel, _socket(5, 1, 0) + NEG_R0_EXIT, ["socket"]
        )
        assert result.exit_status == int(Errno.EAFNOSUPPORT)

    def test_unknown_type_is_eprotonosupport(self, kernel):
        result = run_guest(
            kernel, _socket(2, 3, 0) + NEG_R0_EXIT, ["socket"]
        )
        assert result.exit_status == int(Errno.EPROTONOSUPPORT)

    def test_udp_protocol_on_stream_is_rejected(self, kernel):
        result = run_guest(
            kernel, _socket(2, 1, 17) + NEG_R0_EXIT, ["socket"]
        )
        assert result.exit_status == int(Errno.EPROTONOSUPPORT)

    def test_tcp_protocol_on_dgram_is_rejected(self, kernel):
        result = run_guest(
            kernel, _socket(2, 2, 6) + NEG_R0_EXIT, ["socket"]
        )
        assert result.exit_status == int(Errno.EPROTONOSUPPORT)

    def test_matching_protocols_accepted(self, kernel):
        # AF_INET stream+TCP and AF_UNIX dgram+UDP both yield fds.
        result = run_guest(kernel, _socket(2, 1, 6) + """
    cmpi r0, 0
    blt fail
""" + _socket(1, 2, 17) + """
    cmpi r0, 0
    blt fail
    li r1, 0
    call sys_exit
""" + FAIL, ["socket"])
        assert result.exit_status == 0


class TestSocketFstat:
    def test_fstat_reports_s_ifsock(self, kernel):
        # Exit with the file-type nibbles of st_mode (mode >> 12):
        # S_IFSOCK = 0o140000 -> 0o14 = 12.
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, statbuf
    call sys_fstat
    cmpi r0, 0
    bne fail
    li r9, statbuf
    ld r10, [r9+4]
    shri r1, r10, 12
    call sys_exit
""" + FAIL, ["socket", "fstat"],
            data=".section .bss\nstatbuf:\n  .space 32")
        assert result.exit_status == 0o140000 >> 12

    def test_socket_pipe_console_types_differ(self, kernel):
        # socket 0o14, pipe 0o01, console 0o02 — packed as nibble sums
        # to prove the three synthesized stats are distinguishable.
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, statbuf
    call sys_fstat
    li r9, statbuf
    ld r10, [r9+4]
    shri r13, r10, 12      ; r13 = socket type bits (12)
    li r1, fds
    call sys_pipe
    cmpi r0, 0
    bne fail
    li r9, fds
    ld r1, [r9+0]
    li r2, statbuf
    call sys_fstat
    li r9, statbuf
    ld r10, [r9+4]
    shri r10, r10, 12      ; pipe type bits (1)
    shli r10, r10, 8
    add r13, r13, r10
    li r1, 1
    li r2, statbuf
    call sys_fstat
    li r9, statbuf
    ld r10, [r9+4]
    shri r10, r10, 12      ; console type bits (2)
    shli r10, r10, 4
    add r13, r13, r10
    mov r1, r13
    call sys_exit
""" + FAIL, ["socket", "fstat", "pipe"],
            data=".section .bss\nstatbuf:\n  .space 32\nfds:\n  .space 8")
        assert result.exit_status == (12 + (2 << 4) + (1 << 8)) & 0xFF


class TestStreamErrors:
    def test_send_on_console_is_enotsock(self, kernel):
        result = run_guest(kernel, """
    li r1, 1
    li r2, buf
    li r3, 4
    li r4, 0
    call sys_send
""" + NEG_R0_EXIT, ["send"],
            data=".section .bss\nbuf:\n  .space 8")
        assert result.exit_status == int(Errno.ENOTSOCK)

    def test_sendto_on_console_is_einval(self, kernel):
        result = run_guest(kernel, """
    li r1, 1
    li r2, buf
    li r3, 4
    li r4, 0
    li r5, 0
    li r6, 0
    call sys_sendto
""" + NEG_R0_EXIT, ["sendto"],
            data=".section .bss\nbuf:\n  .space 8")
        assert result.exit_status == int(Errno.EINVAL)

    def test_sendto_unconnected_stays_a_diagnostic_sink(self, kernel):
        # The pre-net contract: an unconnected socket with no
        # destination swallows the bytes and reports the count.
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, buf
    li r3, 5
    li r4, 0
    li r5, 0
    li r6, 0
    call sys_sendto
""" + EXIT_R0, ["socket", "sendto"],
            data=".section .bss\nbuf:\n  .space 8")
        assert result.exit_status == 5

    def test_recv_unconnected_is_enotconn(self, kernel):
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
""" + NEG_R0_EXIT, ["socket", "recv"],
            data=".section .bss\nbuf:\n  .space 8")
        assert result.exit_status == int(Errno.ENOTCONN)

    def test_send_unconnected_is_enotconn(self, kernel):
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_send
""" + NEG_R0_EXIT, ["socket", "send"],
            data=".section .bss\nbuf:\n  .space 8")
        assert result.exit_status == int(Errno.ENOTCONN)

    def test_shutdown_errors(self, kernel):
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r12, r0
    mov r1, r12
    li r2, 9               ; bad `how`
    call sys_shutdown
""" + NEG_R0_EXIT, ["socket", "shutdown"])
        assert result.exit_status == int(Errno.EINVAL)
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, 1               ; SHUT_WR, but not connected
    call sys_shutdown
""" + NEG_R0_EXIT, ["socket", "shutdown"])
        assert result.exit_status == int(Errno.ENOTCONN)

    def test_connect_without_listener_is_econnrefused(self, kernel):
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, name
    li r3, 0
    call sys_connect
""" + NEG_R0_EXIT, ["socket", "connect"],
            data='.section .rodata\nname:\n  .asciz "svc:ghost"')
        assert result.exit_status == int(Errno.ECONNREFUSED)

    def test_bind_null_address_is_efault(self, kernel):
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r1, r0
    li r2, 0
    li r3, 0
    call sys_bind
""" + NEG_R0_EXIT, ["socket", "bind"])
        assert result.exit_status == int(Errno.EFAULT)


class TestLoopbackEcho:
    def test_single_process_echo_through_accepted_end(self, kernel):
        # Listener, dialer, and accepted end all in one program: no
        # step of it has to wait for another process.
        result = run_guest(kernel, _socket(2, 1, 0) + """
    mov r12, r0            ; r12 = listen fd
    mov r1, r12
    li r2, name
    li r3, 0
    call sys_bind
    cmpi r0, 0
    bne fail
    mov r1, r12
    li r2, 4
    call sys_listen
    cmpi r0, 0
    bne fail
""" + _socket(2, 1, 0) + """
    mov r13, r0            ; r13 = client fd
    mov r1, r13
    li r2, name
    li r3, 0
    call sys_connect
    cmpi r0, 0
    bne fail
    mov r1, r12
    li r2, addrbuf
    li r3, addrlen
    call sys_accept
    cmpi r0, 0
    blt fail
    mov r14, r0            ; r14 = server-side fd
    ; the reported peer name is the deterministic "conn:<ident>"
    li r9, addrbuf
    ld r10, [r9+0]
    li r9, 0x6E6E6F63      ; "conn" little-endian
    cmp r10, r9
    bne fail
    mov r1, r13
    li r2, msg
    li r3, 8
    li r4, 0
    call sys_send
    cmpi r0, 8
    bne fail
    mov r1, r14
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 8
    bne fail
    li r9, msg
    ld r10, [r9+0]
    li r9, buf
    ld r9, [r9+0]
    cmp r9, r10
    bne fail
    ; tear down: EOF flows from a closed client to the server side
    mov r1, r13
    call sys_close
    mov r1, r14
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 0
    bne fail
    li r1, 0
    call sys_exit
""" + FAIL,
            ["socket", "bind", "listen", "connect", "accept",
             "send", "recv", "close"],
            data='.section .rodata\nname:\n  .asciz "svc:test"\n'
                 'msg:\n  .asciz "ping-01"\n'
                 '.section .data\naddrlen:\n  .word 16\n'
                 '.section .bss\naddrbuf:\n  .space 16\nbuf:\n  .space 8')
        assert result.exit_status == 0
        assert not result.killed

    def test_dgram_roundtrip_reports_source(self, kernel):
        result = run_guest(kernel, _socket(2, 2, 0) + """
    mov r12, r0            ; r12 = receiver
    mov r1, r12
    li r2, name_a
    li r3, 0
    call sys_bind
    cmpi r0, 0
    bne fail
""" + _socket(2, 2, 0) + """
    mov r13, r0            ; r13 = sender
    mov r1, r13
    li r2, name_b
    li r3, 0
    call sys_bind
    cmpi r0, 0
    bne fail
    mov r1, r13
    li r2, msg
    li r3, 6
    li r4, 0
    li r5, name_a
    li r6, 0
    call sys_sendto
    cmpi r0, 6
    bne fail
    mov r1, r12
    li r2, buf
    li r3, 16
    li r4, 0
    li r5, srcbuf
    li r6, srclen
    call sys_recvfrom
    cmpi r0, 6
    bne fail
    li r9, srcbuf
    ld r10, [r9+0]
    li r9, 0x3A637673      ; "svc:" little-endian
    cmp r10, r9
    bne fail
    li r9, buf
    ld r10, [r9+0]
    li r9, msg
    ld r9, [r9+0]
    cmp r9, r10
    bne fail
    li r1, 0
    call sys_exit
""" + FAIL,
            ["socket", "bind", "sendto", "recvfrom"],
            data='.section .rodata\nname_a:\n  .asciz "svc:a"\n'
                 'name_b:\n  .asciz "svc:b"\nmsg:\n  .asciz "hello"\n'
                 '.section .data\nsrclen:\n  .word 16\n'
                 '.section .bss\nbuf:\n  .space 16\nsrcbuf:\n  .space 16')
        assert result.exit_status == 0
