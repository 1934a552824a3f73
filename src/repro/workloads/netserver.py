"""The network server workload: one listener, N forked client processes.

This is the loopback stack's acceptance workload (the networking
analogue of :mod:`repro.workloads.multiproc`).  The master creates a
stream socket, binds it to the constant service name — which the
installer authenticates as a string parameter of the ``bind`` site —
and listens with a backlog sized for every client, *before* forking, so
clients never race the listener into ``ECONNREFUSED``.  Each forked
client dials the same constant name, sends ``requests`` fixed-size
request records, checks each echoed response, then shuts down its write
side and waits for the server's EOF.  The master accepts and serves the
connections sequentially (client order is the deterministic accept-queue
order), echoing records and burning a spin loop per request so the
preemptive timeslice fires mid-request, then reaps every child with
``wait4`` and exits 0 iff every count agrees.

All transfers are 8-byte records and the per-direction stream buffer is
a multiple of 8, so sends and receives never split a record: a client
``recv`` either blocks or returns one whole response.  Every socket
call site passes its buffer pointer and length as ``li`` constants —
the installer derives Immediate constraints for them, which is what the
tampered-send attack and the ``sock-reg-tamper`` fault kind rely on.
Like multiproc, the program exits 1 if a ``fork`` fails.
"""

from __future__ import annotations

from repro.asm import assemble
from repro.binfmt import SefBinary
from repro.workloads.runtime import runtime_source, stub_label

#: Bytes per request/response record.
RECORD_SIZE = 8

#: Marker word carried in every request (and echoed back).
REQUEST_MARKER = 0x4E455121  # "NEQ!"

#: Default spin-loop trip count per served request.
DEFAULT_SPIN = 300

#: The service name clients dial.  A constant in ``.rodata``, so the
#: bind and connect sites carry it as an authenticated string parameter.
SERVICE_NAME = "svc:echo"


def netserver_source(
    clients: int = 4,
    requests: int = 8,
    spin: int = DEFAULT_SPIN,
    personality: str = "linux",
) -> str:
    """Render the echo server and its forked clients as assembly."""
    if clients < 1:
        raise ValueError("need at least one client")
    if not 0 < requests <= 255:
        # A client's completed count rides in the 8-bit exit status.
        raise ValueError("requests per client must fit an exit status")
    if clients > 64:
        raise ValueError("backlog (and listen queue) caps at 64 clients")
    total = clients * requests

    source = f"""
.section .text
.global _start
_start:
    ; --- listener first: socket/bind/listen before any fork, so every
    ;     client finds the service registered when it dials ---
    li r1, 2             ; AF_INET
    li r2, 1             ; SOCK_STREAM
    li r3, 0
    call {stub_label('socket')}
    cmpi r0, 0
    blt fail
    mov r12, r0          ; r12 = listen fd
    mov r1, r12
    li r2, service_name
    li r3, 0
    call {stub_label('bind')}
    cmpi r0, 0
    bne fail
    mov r1, r12
    li r2, {clients}
    call {stub_label('listen')}
    cmpi r0, 0
    bne fail
    ; --- fork the clients; r11 is the client index in each child ---
    li r11, 0
fork_loop:
    cmpi r11, {clients}
    bge server
    call {stub_label('fork')}
    cmpi r0, 0
    beq client
    blt fail
    addi r11, r11, 1
    jmp fork_loop

; ---------------------------------------------------------------- client
client:
    ; the listen fd is the parent's business
    mov r1, r12
    call {stub_label('close')}
    li r1, 2
    li r2, 1
    li r3, 0
    call {stub_label('socket')}
    cmpi r0, 0
    blt fail
    mov r12, r0          ; r12 = connection fd
    mov r1, r12
    li r2, service_name
    li r3, 0
    call {stub_label('connect')}
    cmpi r0, 0
    bne fail
    li r13, 0            ; r13 = completed request count
client_loop:
    cmpi r13, {requests}
    bge client_done
    ; request record: [client_index<<8 | seq, marker]
    li r9, request
    shli r10, r11, 8
    add r10, r10, r13
    st r10, [r9+0]
    li r10, {REQUEST_MARKER}
    st r10, [r9+4]
    mov r1, r12
    li r2, request
    li r3, {RECORD_SIZE}
    li r4, 0
    call {stub_label('send')}
    cmpi r0, {RECORD_SIZE}
    bne fail
    mov r1, r12
    li r2, reply
    li r3, {RECORD_SIZE}
    li r4, 0
    call {stub_label('recv')}
    cmpi r0, {RECORD_SIZE}
    bne fail
    ; the echo must carry our own request word back
    li r9, request
    ld r10, [r9+0]
    li r9, reply
    ld r9, [r9+0]
    cmp r9, r10
    bne fail
    addi r13, r13, 1
    jmp client_loop
client_done:
    ; half-close our side; the server's next recv sees EOF and it
    ; closes the connection, which our final recv observes as EOF too
    mov r1, r12
    li r2, 1             ; SHUT_WR
    call {stub_label('shutdown')}
    cmpi r0, 0
    bne fail
    mov r1, r12
    li r2, reply
    li r3, {RECORD_SIZE}
    li r4, 0
    call {stub_label('recv')}
    cmpi r0, 0
    bne fail
    mov r1, r12
    call {stub_label('close')}
    mov r1, r13
    call {stub_label('exit')}

; ---------------------------------------------------------------- server
server:
    li r11, 0            ; r11 = connections served
    li r14, 0            ; r14 = total records echoed
accept_loop:
    cmpi r11, {clients}
    bge serving_done
    mov r1, r12
    li r2, 0
    li r3, 0
    call {stub_label('accept')}
    cmpi r0, 0
    blt fail
    mov r13, r0          ; r13 = connection fd
echo_loop:
    mov r1, r13
    li r2, record
    li r3, {RECORD_SIZE}
    li r4, 0
    call {stub_label('recv')}
    cmpi r0, 0
    beq conn_done        ; EOF: client shut down its write side
    cmpi r0, {RECORD_SIZE}
    bne fail
    ; per-request work: real instructions, so the timeslice preempts
    ; the server mid-request
    li r9, {spin}
server_spin:
    subi r9, r9, 1
    cmpi r9, 0
    bgt server_spin
    mov r1, r13
    li r2, record
    li r3, {RECORD_SIZE}
    li r4, 0
    call {stub_label('send')}
    cmpi r0, {RECORD_SIZE}
    bne fail
    addi r14, r14, 1
    jmp echo_loop
conn_done:
    mov r1, r13
    call {stub_label('close')}
    addi r11, r11, 1
    jmp accept_loop
serving_done:
    mov r1, r12
    call {stub_label('close')}
    ; reap every client, summing the completed counts from the exit
    ; statuses (normal exit: code in bits 8..15)
    li r13, 0            ; summed client counts
    li r11, 0
reap_loop:
    cmpi r11, {clients}
    bge reap_done
    li r1, 0xFFFFFFFF    ; pid -1: any child
    li r2, wstatus
    li r3, 0
    li r4, 0
    call {stub_label('wait4')}
    cmpi r0, 0
    blt fail
    li r9, wstatus
    ld r10, [r9+0]
    shri r10, r10, 8
    add r13, r13, r10
    addi r11, r11, 1
    jmp reap_loop
reap_done:
    cmpi r13, {total}
    bne fail
    cmpi r14, {total}
    bne fail
    li r1, 0
    call {stub_label('exit')}
fail:
    li r1, 1
    call {stub_label('exit')}
.section .rodata
service_name:
    .asciz "{SERVICE_NAME}"
.section .data
wstatus:
    .space 4
.section .bss
request:
    .space {RECORD_SIZE}
reply:
    .space {RECORD_SIZE}
record:
    .space {RECORD_SIZE}
"""
    source += runtime_source(
        personality,
        (
            "socket", "bind", "listen", "accept", "connect",
            "send", "recv", "shutdown", "close", "fork", "wait4", "exit",
        ),
    )
    return source


def build_netserver(
    clients: int = 4,
    requests: int = 8,
    spin: int = DEFAULT_SPIN,
    personality: str = "linux",
) -> SefBinary:
    """Assemble the network echo server."""
    return assemble(
        netserver_source(clients, requests, spin, personality),
        metadata={"program": "netserver", "personality": personality},
    )
