"""The multi-process server workload: one master, N pipe-fed workers.

This is the scheduler's acceptance workload.  The master creates one
kernel pipe per worker *before* forking, so the fd numbers — and the
``pipefds`` array the pipe() calls filled in — are identical in every
child's inherited image.  Each worker drains its own pipe of 8-byte
request records, burns a spin loop per record (real instructions, so
the preemptive timeslice fires mid-request), echoes the record to its
own stdout, and exits with its handled count.  The master feeds
``requests`` records round-robin, closes the write ends (delivering
EOF), reaps every child with ``wait4(-1)``, and exits 0 iff the summed
handled counts equal the number of requests fed.  If ``fork`` fails
(``-EAGAIN`` once a run holds ``MAX_TASKS`` tasks) the program exits 1.
"""

from __future__ import annotations

from repro.asm import assemble
from repro.binfmt import SefBinary
from repro.workloads.runtime import runtime_source, stub_label

#: Bytes per request record fed through a pipe.
RECORD_SIZE = 8

#: Default spin-loop trip count per record.  Each trip is 3
#: instructions, so the default burns ~1800 instructions per request —
#: comfortably more than the small timeslices the tests schedule with,
#: forcing mid-request preemption.
DEFAULT_SPIN = 600


def server_source(
    workers: int = 4,
    requests: int = 16,
    spin: int = DEFAULT_SPIN,
    personality: str = "linux",
) -> str:
    """Render the master/worker server as assembly source."""
    if workers < 1:
        raise ValueError("need at least one worker")
    if requests < 0:
        raise ValueError("requests must be non-negative")
    if requests > 255 * workers:
        # A worker's handled count rides in the 8-bit exit status.
        raise ValueError("too many requests for 8-bit handled counts")

    source = f"""
.section .text
.global _start
_start:
    ; --- create one pipe per worker, before any fork, so fd numbers
    ;     and the pipefds array agree across every inherited image ---
    li r11, 0
make_pipes:
    cmpi r11, {workers}
    bge pipes_done
    li r9, pipefds
    shli r10, r11, 3
    add r1, r9, r10
    call {stub_label('pipe')}
    cmpi r0, 0
    bne fail
    addi r11, r11, 1
    jmp make_pipes
pipes_done:
    ; --- fork the workers; r11 is the worker index in each child ---
    li r11, 0
fork_loop:
    cmpi r11, {workers}
    bge master
    call {stub_label('fork')}
    cmpi r0, 0
    beq worker
    blt fail
    addi r11, r11, 1
    jmp fork_loop

; ---------------------------------------------------------------- worker
worker:
    ; close every write end, and the read ends of the other workers'
    ; pipes; keeping only our own read end lets writer-close drive EOF
    li r14, 0
worker_close:
    cmpi r14, {workers}
    bge worker_ready
    li r9, pipefds
    shli r10, r14, 3
    add r10, r9, r10
    ld r1, [r10+4]
    call {stub_label('close')}
    cmp r14, r11
    beq worker_close_next
    ld r1, [r10+0]
    call {stub_label('close')}
worker_close_next:
    addi r14, r14, 1
    jmp worker_close
worker_ready:
    li r9, pipefds
    shli r10, r11, 3
    add r10, r9, r10
    ld r12, [r10+0]      ; r12 = our read fd
    li r13, 0            ; r13 = handled count
worker_loop:
    mov r1, r12
    li r2, record
    li r3, {RECORD_SIZE}
    call {stub_label('read')}
    cmpi r0, 0
    beq worker_done      ; EOF: every writer closed
    blt fail
    ; per-request work: real instructions, so the timeslice preempts
    ; the worker mid-request
    li r9, {spin}
worker_spin:
    subi r9, r9, 1
    cmpi r9, 0
    bgt worker_spin
    li r1, 1
    li r2, record
    li r3, {RECORD_SIZE}
    call {stub_label('write')}
    addi r13, r13, 1
    jmp worker_loop
worker_done:
    mov r1, r13
    call {stub_label('exit')}

; ---------------------------------------------------------------- master
master:
    ; drop the read ends; the workers own those
    li r14, 0
master_close_reads:
    cmpi r14, {workers}
    bge feed
    li r9, pipefds
    shli r10, r14, 3
    add r10, r9, r10
    ld r1, [r10+0]
    call {stub_label('close')}
    addi r14, r14, 1
    jmp master_close_reads
feed:
    ; feed request j to worker (j mod {workers})
    li r11, 0
feed_loop:
    cmpi r11, {requests}
    bge feed_done
    li r9, {workers}
    mod r10, r11, r9
    shli r10, r10, 3
    li r9, pipefds
    add r10, r9, r10
    ld r1, [r10+4]
    li r9, record
    st r11, [r9+0]
    li r10, 0x51455221   ; request marker
    st r10, [r9+4]
    li r2, record
    li r3, {RECORD_SIZE}
    call {stub_label('write')}
    cmpi r0, {RECORD_SIZE}
    bne fail
    addi r11, r11, 1
    jmp feed_loop
feed_done:
    ; close the write ends: the workers' next empty read returns EOF
    li r14, 0
master_close_writes:
    cmpi r14, {workers}
    bge reap
    li r9, pipefds
    shli r10, r14, 3
    add r10, r9, r10
    ld r1, [r10+4]
    call {stub_label('close')}
    addi r14, r14, 1
    jmp master_close_writes
reap:
    ; wait4(-1) once per worker, summing the handled counts carried in
    ; the exit statuses
    li r13, 0            ; summed handled counts
    li r14, 0
reap_loop:
    cmpi r14, {workers}
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
    shri r10, r10, 8     ; normal exit: code lives in bits 8..15
    add r13, r13, r10
    addi r14, r14, 1
    jmp reap_loop
reap_done:
    cmpi r13, {requests}
    bne fail
    li r1, 0
    call {stub_label('exit')}
fail:
    li r1, 1
    call {stub_label('exit')}
.section .data
pipefds:
    .space {workers * 8}
wstatus:
    .space 4
.section .bss
record:
    .space {RECORD_SIZE}
"""
    source += runtime_source(
        personality,
        ("pipe", "fork", "close", "read", "write", "wait4", "exit"),
    )
    return source


def build_server(
    workers: int = 4,
    requests: int = 16,
    spin: int = DEFAULT_SPIN,
    personality: str = "linux",
) -> SefBinary:
    """Assemble the multi-process server."""
    return assemble(
        server_source(workers, requests, spin, personality),
        metadata={"program": "multiproc-server", "personality": personality},
    )
