"""The benchmark's four workloads: what each builds, installs and runs.

Every pass builds a fresh :class:`~repro.kernel.Kernel` exactly as a
user gets it: ``Kernel(key=...)`` with the default AES-CMAC provider
(the MAC the paper specifies), the threaded engine with block chaining,
and the fast path and verifier JIT on.  The seed only selects the MAC
key, so every architectural output of a pass is seed-independent and
can be pinned.

Each workload stresses a different layer, and each has a partner that
exercises the same code the opposite way:

- ``spec-cpu``: one long-lived process with a fused hot loop; the CPU
  engine does about half the host work.
- ``syscall-warm``: a syscall-dense loop over seven warm authenticated
  sites; almost all host time is trap entry, the compiled verifier
  thunk, the live counter re-MAC and the syscall body.
- ``cold-sites``: four profile programs whose traps are nearly all the
  first at their site, so every one pays the full §3.4 check and
  compiles a thunk that is never reused.
- ``netserver``: the only workload that uses the scheduler, blocking,
  wakeup and the loopback stack.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import repro.installer as installer
from repro.asm import assemble
from repro.crypto import Key
from repro.kernel import Kernel
from repro.workloads import (
    SPEC_PROGRAMS,
    build_profile_program,
    build_spec_program,
    runtime_source,
)
from repro.workloads.netserver import build_netserver

SPEC_PROGRAM = "gzip-spec"
SYSCALL_WARM_LOOPS = 1000
PROFILE_PROGRAMS = ("bison", "calc", "screen", "tar")
NET_CLIENTS = 4
NET_REQUESTS = 255
NET_TIMESLICE = 1500


def bench_key(seed: int) -> Key:
    """The MAC key for ``seed`` (default provider: AES-CMAC)."""
    return Key.from_passphrase(f"bench-seed-{seed}")


def syscall_warm_source(loops: int = SYSCALL_WARM_LOOPS) -> str:
    """Seven authenticated sites in a tight loop, in the style of the
    Table 4 microbenchmark: getpid, gettimeofday, brk(0), then a 4 KiB
    write and read-back around two rewinds."""
    return f"""
.section .text
.global _start
_start:
    li r1, path
    li r2, 0x42      ; O_RDWR|O_CREAT
    li r3, 0x1a4
    call sys_open
    cmpi r0, 0
    blt fail
    mov r14, r0
    li r13, {loops}
loop:
    call sys_getpid
    li r1, tv
    li r2, 0
    call sys_gettimeofday
    li r1, 0
    call sys_brk
    mov r1, r14
    li r2, 0
    li r3, 0
    call sys_lseek
    mov r1, r14
    li r2, iobuf
    li r3, 4096
    call sys_write
    mov r1, r14
    li r2, 0
    li r3, 0
    call sys_lseek
    mov r1, r14
    li r2, iobuf
    li r3, 4096
    call sys_read
    cmpi r0, 4096
    bne fail
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
fail:
    li r1, 1
    call sys_exit
.section .rodata
path:
    .asciz "/tmp/syscall-warm.dat"
.section .bss
tv:
    .space 8
iobuf:
    .space 4096
""" + runtime_source(
        "linux",
        ("open", "getpid", "gettimeofday", "brk", "lseek", "write", "read", "exit"),
    )


@dataclass
class PassResult:
    """One pass: the pinned architectural outputs plus the kernels'
    summed counters (read by the traced run, never pinned)."""

    outputs: dict
    counters: dict


@dataclass(frozen=True)
class Workload:
    #: User-level requests one pass completes (the numerator of
    #: ``req_per_s``).
    requests: int
    #: Assembles the uninstalled programs: ``[(argv, binary), ...]``.
    build: Callable[[], list]
    #: Runs one pass over the installed programs.
    run: Callable[..., PassResult]


def setup(workload: Workload, key: Key) -> list:
    """Assemble and install the workload's programs under ``key``."""
    return [
        (argv, installer.install(binary, key).binary)
        for argv, binary in workload.build()
    ]


def _sum_counters(kernels) -> dict:
    counters: dict[str, int] = {}
    for kernel in kernels:
        for name, value in kernel.metrics:
            counters[name] = counters.get(name, 0) + value
    return counters


def _verified_traps(counters: dict) -> int:
    # Every trap that passes §3.4 verification is either a fast-path
    # hit or a miss, once, even when its dispatch later blocks.
    return counters.get("fastpath.hits", 0) + counters.get("fastpath.misses", 0)


def _run_programs(key: Key, programs: list, recorder=None) -> PassResult:
    """Each program in its own fresh kernel, run to exit."""
    kernels = []
    results = []
    for argv, binary in programs:
        kernel = Kernel(key=key, recorder=recorder)
        kernels.append(kernel)
        results.append(kernel.run(binary, argv=argv))
    counters = _sum_counters(kernels)
    outputs = {
        "exit_statuses": [r.exit_status for r in results],
        "killed": [r.killed for r in results],
        "instructions": sum(r.instructions for r in results),
        "traps": _verified_traps(counters),
        "syscalls": sum(r.syscalls for r in results),
        "cycles": sum(r.cycles for r in results),
    }
    return PassResult(outputs, counters)


def _run_netserver(key: Key, programs: list, recorder=None) -> PassResult:
    ((argv, binary),) = programs
    kernel = Kernel(key=key, recorder=recorder)
    scheduler = kernel.run_many([(binary, argv)], timeslice=NET_TIMESLICE).scheduler
    tasks = [scheduler.tasks[pid] for pid in sorted(scheduler.tasks)]
    counters = _sum_counters([kernel])
    interleaving = repr(scheduler.interleaving).encode("ascii")
    outputs = {
        "exit_statuses": [task.exit_status for task in tasks],
        "killed": [task.killed for task in tasks],
        # A forked child starts with its parent's instruction, trap and
        # cycle counts; the slice log counts each instruction once.
        "instructions": sum(consumed for _, consumed in scheduler.interleaving),
        "traps": _verified_traps(counters),
        # Per-process totals as the kernel reports them (pre-fork counts
        # included), the basis of sim_cycles_per_syscall.
        "syscalls": sum(task.vm.syscall_count for task in tasks),
        "cycles": sum(task.vm.cycles for task in tasks),
        "interleaving_sha256": hashlib.sha256(interleaving).hexdigest(),
    }
    return PassResult(outputs, counters)


WORKLOADS: dict[str, Workload] = {
    "spec-cpu": Workload(
        # One request is one loop iteration: checksum, rewind, write and
        # read back a 1 KiB record.
        requests=SPEC_PROGRAMS[SPEC_PROGRAM].plan()[0],
        build=lambda: [([SPEC_PROGRAM], build_spec_program(SPEC_PROGRAM))],
        run=_run_programs,
    ),
    "syscall-warm": Workload(
        requests=SYSCALL_WARM_LOOPS,  # one loop iteration: seven calls
        build=lambda: [(
            ["syscall-warm"],
            assemble(syscall_warm_source(), metadata={"program": "syscall-warm"}),
        )],
        run=_run_programs,
    ),
    "cold-sites": Workload(
        requests=len(PROFILE_PROGRAMS),  # one program run
        build=lambda: [
            ([name, "full"], build_profile_program(name, "linux"))
            for name in PROFILE_PROGRAMS
        ],
        run=_run_programs,
    ),
    "netserver": Workload(
        requests=NET_CLIENTS * NET_REQUESTS,  # one echo round trip
        build=lambda: [(
            ["netserver"],
            build_netserver(clients=NET_CLIENTS, requests=NET_REQUESTS, spin=0),
        )],
        run=_run_netserver,
    ),
}


def check_outputs(outputs: dict, pin: Optional[dict]) -> Optional[str]:
    """Why a pass's outputs are wrong, or None if they match the pin."""
    if pin is None:
        return "no pinned outputs for this workload"
    if any(outputs["killed"]):
        return f"process killed (exit statuses {outputs['exit_statuses']})"
    keys = pin.keys() | outputs.keys()
    wrong = sorted(key for key in keys if outputs.get(key) != pin.get(key))
    if wrong:
        return "outputs differ from pins: " + ", ".join(
            f"{key}={outputs.get(key)!r} (pinned {pin.get(key)!r})" for key in wrong
        )
    return None
