"""Cross-process attack scenarios for the multiprogramming subsystem.

Single-process attacks (scenarios.py) model an attacker who has
corrupted *the victim's own* memory.  These scenarios model the new
surface multiprogramming opens: an attacker who controls one process —
or the moment of a context switch — and tries to turn that into
authenticated system calls in *another* process.

The isolation mechanism under test is the per-process authentication
context: each process carries its own kernel-resident ``auth_counter``
(the §3.2 online-memory-checker nonce), its own lastBlock/lbMAC region
in its own address space, and its own fast-path cache partition.  The
lbMAC binds lastBlock to the *owning process's* counter value, so
policy state transplanted from a process whose counter has diverged —
a sibling with a head start, or a fork parent that ran on — fails the
MAC check and the recipient alone is fail-stopped.

1. **cross-process replay** -- copy a running sibling's
   lastBlock/lbMAC into another instance of the same program at a
   context switch.  Blocked: the donor's counter has advanced past the
   recipient's, so the MAC verifies against the wrong nonce.
2. **fork counter confusion** -- at fork the child inherits a
   mutually-consistent (counter, polstate) pair; after the pair
   diverges, splice the parent's newer polstate into the child.
   Blocked: the child's kernel counter never saw the parent's
   post-fork advances.
3. **pipe-fed tamper** -- an unauthenticated feeder process delivers a
   stack-smashing payload through a kernel pipe into a protected
   victim's ``read``.  Blocked in the victim (the injected raw ``SYS``
   is unauthenticated) while an identically-fed benign sibling runs to
   completion — fail-stop stays per-process.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.asm import assemble
from repro.binfmt import SefBinary, link
from repro.configs import DEFAULT_CONFIG, EngineConfig
from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.isa import Instruction
from repro.isa.opcodes import Op
from repro.kernel.sched.scheduler import Scheduler, Task
from repro.kernel.syscalls import SYSCALL_NUMBERS
from repro.policy.record import POLSTATE_SIZE
from repro.workloads.runtime import runtime_source
from repro.attacks.scenarios import (
    _LS_MARKER,
    AttackResult,
    _encode,
    _prepare_kernel,
)
from repro.attacks.victim import build_victim


def _looper_binary(iterations: int = 12, spin: int = 60) -> SefBinary:
    """A program whose authenticated-call counter visibly advances:
    ``iterations`` stub writes with a spin loop between them (so a
    small timeslice preempts it mid-run)."""
    source = f"""
.section .text
.global _start
_start:
    li r13, {iterations}
loop:
    li r1, 1
    li r2, msg
    li r3, 5
    call sys_write
    li r9, {spin}
spin:
    subi r9, r9, 1
    cmpi r9, 0
    bgt spin
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
.section .rodata
msg:
    .ascii "tick\\n"
""" + runtime_source("linux", ("write", "exit"))
    return assemble(source, metadata={"program": "looper"})


def _forker_binary(
    iterations: int = 8, parent_spin: int = 40, child_spin: int = 400
) -> SefBinary:
    """Fork once; parent and child then make authenticated writes at
    *different* rates, so their auth counters diverge from the shared
    value they held at the fork."""
    source = f"""
.section .text
.global _start
_start:
    call sys_fork
    cmpi r0, 0
    beq child
    blt fail
    li r13, {iterations}
    li r14, {parent_spin}
    jmp loop
child:
    li r13, {iterations}
    li r14, {child_spin}
loop:
    li r1, 1
    li r2, msg
    li r3, 5
    call sys_write
    mov r9, r14
spin:
    subi r9, r9, 1
    cmpi r9, 0
    bgt spin
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
fail:
    li r1, 1
    call sys_exit
.section .rodata
msg:
    .ascii "tock\\n"
""" + runtime_source("linux", ("fork", "write", "exit"))
    return assemble(source, metadata={"program": "forker"})


# ---------------------------------------------------------------------------
# 1. cross-process lastBlock/lbMAC replay
# ---------------------------------------------------------------------------


def cross_process_replay_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Run three instances of one installed program; after the first
    instance's counter advances, copy its live lastBlock/lbMAC into
    the second at a context switch.  The images are identical, so the
    *only* thing wrong with the transplanted state is the counter it
    was MAC'd under — the per-process nonce is what gets B killed
    while A and C run on."""
    key = key or Key.generate()
    installed = install(_looper_binary(), key, InstallerOptions())
    kernel = _prepare_kernel(key, config)
    polstate = link(installed.binary).address_of("__asc_polstate")

    scheduler = Scheduler(kernel, timeslice=1000)
    tasks = [
        scheduler.adopt(*kernel.load(installed.binary)) for _ in range(3)
    ]
    donor, target, bystander = tasks
    injected: list[int] = []

    def on_switch(sched: Scheduler, task: Task) -> None:
        if injected or task.pid != target.pid:
            return
        if donor.process.auth_counter == target.process.auth_counter:
            return  # equal nonces would make the transplant trivially valid
        blob = donor.vm.memory.read(polstate, POLSTATE_SIZE, force=True)
        task.vm.memory.write(polstate, blob, force=True)
        injected.append(donor.process.auth_counter)

    scheduler.on_switch = on_switch
    scheduler.run()

    siblings_ok = donor.exit_status == 0 and bystander.exit_status == 0
    return AttackResult(
        name="cross-process-replay",
        blocked=bool(injected)
        and target.killed
        and "policy state MAC" in target.kill_reason
        and siblings_ok,
        detail=(
            "copied a sibling's live lastBlock/lbMAC across processes at a "
            "context switch"
        ),
        kill_reason=target.kill_reason,
        stdout=bytes(target.process.stdout),
    )


# ---------------------------------------------------------------------------
# 2. counter confusion after fork
# ---------------------------------------------------------------------------


def fork_counter_confusion_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """At fork, parent and child hold byte-identical polstate and equal
    counters — a mutually consistent pair, by construction.  Once the
    counters diverge, the parent's *newer* polstate is spliced into the
    child: the child's kernel counter never advanced with the parent's,
    so the MAC fails and only the child is fail-stopped."""
    key = key or Key.generate()
    installed = install(_forker_binary(), key, InstallerOptions())
    kernel = _prepare_kernel(key, config)
    polstate = link(installed.binary).address_of("__asc_polstate")

    scheduler = Scheduler(kernel, timeslice=800)
    parent = scheduler.adopt(*kernel.load(installed.binary))
    injected: list[tuple[int, int]] = []

    def on_switch(sched: Scheduler, task: Task) -> None:
        if injected or task.parent_pid is None:
            return
        source = sched.tasks.get(task.parent_pid)
        if source is None or not source.alive:
            return
        if source.process.auth_counter == task.process.auth_counter:
            return  # still the consistent fork-time pair; wait for divergence
        blob = source.vm.memory.read(polstate, POLSTATE_SIZE, force=True)
        task.vm.memory.write(polstate, blob, force=True)
        injected.append(
            (source.process.auth_counter, task.process.auth_counter)
        )

    scheduler.on_switch = on_switch
    scheduler.run()

    # The parent's exit reparents the child (parent_pid -> None), so
    # identify the child as "the task that is not the parent".
    child = next(
        (task for task in scheduler.tasks.values() if task.pid != parent.pid),
        None,
    )
    return AttackResult(
        name="fork-counter-confusion",
        blocked=bool(injected)
        and child is not None
        and child.killed
        and "policy state MAC" in child.kill_reason
        and parent.exit_status == 0,
        detail=(
            "spliced the fork parent's post-divergence polstate into the child"
        ),
        kill_reason=child.kill_reason if child else "",
        stdout=bytes(child.process.stdout) if child else b"",
    )


# ---------------------------------------------------------------------------
# 3. pipe-fed argument tamper
# ---------------------------------------------------------------------------


def _launcher_binary(payload_bad: bytes, payload_ok: bytes) -> SefBinary:
    """The (unauthenticated) feeder: two pipes, two forked children
    that each dup2 their pipe onto stdin and exec the protected victim;
    the parent feeds one child the attack payload and the other a
    benign file name, then reaps both."""
    bad_words = ", ".join(str(b) for b in payload_bad)
    ok_words = ", ".join(str(b) for b in payload_ok)
    source = f"""
.section .text
.global _start
_start:
    li r1, pfd1
    call sys_pipe
    cmpi r0, 0
    bne fail
    call sys_fork
    cmpi r0, 0
    beq child1
    blt fail
    li r1, pfd2
    call sys_pipe
    cmpi r0, 0
    bne fail
    call sys_fork
    cmpi r0, 0
    beq child2
    blt fail
    ; parent: keep only the write ends
    li r9, pfd1
    ld r1, [r9+0]
    call sys_close
    li r9, pfd2
    ld r1, [r9+0]
    call sys_close
    ; feed the attack payload, then the benign one
    li r9, pfd1
    ld r1, [r9+4]
    li r2, payload_bad
    li r3, {len(payload_bad)}
    call sys_write
    li r9, pfd2
    ld r1, [r9+4]
    li r2, payload_ok
    li r3, {len(payload_ok)}
    call sys_write
    li r9, pfd1
    ld r1, [r9+4]
    call sys_close
    li r9, pfd2
    ld r1, [r9+4]
    call sys_close
    ; reap both children (their statuses are the experiment's output)
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    li r1, 0
    call sys_exit
child1:
    li r9, pfd1
    ld r1, [r9+0]
    li r2, 0
    call sys_dup2
    li r9, pfd1
    ld r1, [r9+0]
    call sys_close
    li r9, pfd1
    ld r1, [r9+4]
    call sys_close
    jmp exec_victim
child2:
    li r9, pfd2
    ld r1, [r9+0]
    li r2, 0
    call sys_dup2
    li r9, pfd1
    ld r1, [r9+0]
    call sys_close
    li r9, pfd1
    ld r1, [r9+4]
    call sys_close
    li r9, pfd2
    ld r1, [r9+0]
    call sys_close
    li r9, pfd2
    ld r1, [r9+4]
    call sys_close
exec_victim:
    li r1, victim_path
    li r2, 0
    li r3, 0
    call sys_execve
    li r1, 1
    call sys_exit
fail:
    li r1, 1
    call sys_exit
.section .rodata
victim_path:
    .asciz "/bin/victim"
payload_bad:
    .byte {bad_words}
payload_ok:
    .byte {ok_words}
.section .data
pfd1:
    .space 8
pfd2:
    .space 8
""" + runtime_source(
        "linux",
        ("pipe", "fork", "dup2", "close", "write", "wait4", "execve", "exit"),
    )
    return assemble(source, metadata={"program": "launcher"})


def _find_pipe_buffer_address(
    key: Key,
    victim_bytes: bytes,
    config: EngineConfig,
) -> int:
    """Discovery run: launch the full pipe-fed setup with dummy
    payloads and capture r2 at the victim's stdin read.  The address
    only depends on the victim image and argv, so it holds for the
    real run."""
    kernel = _prepare_kernel(key, config)
    kernel.vfs.write_file("/bin/victim", victim_bytes)
    launcher = _launcher_binary(b"/etc/motd\x00", b"/etc/motd\x00")
    captured: list[int] = []
    original = kernel.handle_trap

    def spy(vm, authenticated):
        process = kernel._vm_process.get(id(vm))
        if (
            not captured
            and process is not None
            and process.name == "victim"
            and vm.regs[0] == SYSCALL_NUMBERS["read"]
            and vm.regs[1] == 0
        ):
            captured.append(vm.regs[2])
        return original(vm, authenticated)

    kernel.handle_trap = spy  # shadows the bound method for every VM
    kernel.run_many([launcher], timeslice=700)
    if not captured:
        raise RuntimeError("pipe-fed victim never reached its read call")
    return captured[0]


def pipe_fed_tamper_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Feed a stack-smashing payload through a kernel pipe into a
    protected victim's blocking read, while an identical sibling gets
    a benign file name.  The tampered victim's injected raw ``SYS`` is
    fail-stopped; the sibling — and the unauthenticated feeder — run
    to completion, demonstrating per-process containment."""
    key = key or Key.generate()
    installed = install(build_victim(), key, InstallerOptions())
    victim_bytes = installed.binary.to_bytes()
    buffer_address = _find_pipe_buffer_address(key, victim_bytes, config)

    string_address = buffer_address + 48
    code = _encode([
        Instruction(Op.LI, regs=(0,), imm=SYSCALL_NUMBERS["execve"]),
        Instruction(Op.LI, regs=(1,), imm=string_address),
        Instruction(Op.LI, regs=(2,), imm=0),
        Instruction(Op.SYS),
        Instruction(Op.HALT),
    ])
    payload = code.ljust(48, b"\x00") + b"/bin/sh\x00".ljust(16, b"\x00")
    payload += struct.pack("<I", buffer_address)  # smashed return address

    kernel = _prepare_kernel(key, config)
    kernel.vfs.write_file("/bin/victim", victim_bytes)
    launcher = _launcher_binary(payload, b"/etc/motd\x00")
    multi = kernel.run_many([launcher], timeslice=700)
    tasks = multi.scheduler.tasks

    feeder, tampered, benign = (tasks[pid] for pid in sorted(tasks))
    benign_ok = (
        benign.exit_status == 0
        and not benign.killed
        and _LS_MARKER in benign.process.stdout
    )
    return AttackResult(
        name="pipe-fed-tamper",
        blocked=tampered.killed
        and "unauthenticated" in tampered.kill_reason
        and benign_ok
        and feeder.exit_status == 0,
        detail=(
            "smashed a protected victim's stack through a kernel pipe; the "
            "identically-fed sibling survived"
        ),
        kill_reason=tampered.kill_reason,
        stdout=bytes(tampered.process.stdout),
    )


def run_cross_process_attacks(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[AttackResult]:
    """The multiprogramming battery.  Separate from
    :func:`repro.attacks.scenarios.run_all_attacks` (whose length is a
    published experiment shape) but with the same contract: outcomes
    must be identical on every roster configuration."""
    key = key or Key.generate()
    return [
        cross_process_replay_attack(key, config),
        fork_counter_confusion_attack(key, config),
        pipe_fed_tamper_attack(key, config),
    ]
