"""The fault battery's target workloads.

Three fixed workloads, chosen so the battery exercises every class of
authenticated material:

- ``loop`` — a small iterative program whose four call sites (write,
  open, close, exit) each trap repeatedly.  Repetition is the point:
  it warms the verifier thunks, so post-warm-up faults stress the
  staleness guards and the thunk refresh over pre-verified spans
  rather than the first-verification path.
- ``victim`` — the attack battery's §4.1 victim run with *benign*
  stdin: string-argument-rich (open path, execve path), includes an
  execve into an unauthenticated marker program.
- ``loop-sched`` — three independent ``loop`` instances under the
  preemptive scheduler.  Independence is deliberate: with no IPC, every
  per-process result is interleaving-invariant by construction, so any
  divergence under timeslice jitter or run-queue rotation is a real
  determinism bug.
- ``netserver`` — the loopback-socket echo server with forked clients
  (see :mod:`repro.workloads.netserver`), scaled down for sweep speed.
  Its send/recv sites pass buffer pointers as Immediate constraints,
  which is what the ``sock-reg-tamper`` kind corrupts at trap entry.

Workloads are installed once per sweep with the sweep key and replayed
on every engine configuration.
"""

from __future__ import annotations

from repro.asm import assemble
from repro.attacks.scenarios import _LS_MARKER, _marker_program
from repro.attacks.victim import build_victim
from repro.binfmt import SefBinary, link
from repro.crypto import Key
from repro.installer import InstalledProgram, InstallerOptions, install
from repro.kernel import EnforcementMode, Kernel
from repro.workloads.netserver import build_netserver
from repro.workloads.runtime import runtime_source

#: The iterative workload's trip count.  Six trips × three traps per
#: trip + the final exit ≈ nineteen authenticated traps — enough that
#: every site re-traps well past the warm-up threshold while keeping a
#: thousand-run sweep fast.
LOOP_TRIPS = 6

#: Benign stdin for the victim (names an existing file, no overflow).
VICTIM_STDIN = b"/etc/motd\x00"

#: How many ``loop`` instances the scheduled workload runs.
SCHED_INSTANCES = 3

#: Netserver shape for the sweep: two clients × three requests gives
#: ~28 authenticated send/recv traps — enough spread for seeded trap
#: indices while keeping hundreds of scheduled runs fast.
NETSERVER_CLIENTS = 2
NETSERVER_REQUESTS = 3
NETSERVER_SPIN = 40

#: Sections whose spans the record-flip / prewarm-flip kinds target.
FLIP_SECTIONS = (".authdata", ".authstr")


def loop_source() -> str:
    """The ``loop`` workload (see module docstring)."""
    return f"""
.section .text
.global _start
_start:
    li r11, {LOOP_TRIPS}
loop:
    li r1, 1
    li r2, msg
    li r3, 5
    call sys_write
    li r1, path
    li r2, 0
    call sys_open
    mov r12, r0          ; the fd survives the close call in r12
    mov r1, r12
    call sys_close
    subi r11, r11, 1
    cmpi r11, 0
    bgt loop
    li r1, 0
    call sys_exit

.section .rodata
msg:
    .ascii "tick\\n"
path:
    .asciz "/etc/motd"
""" + runtime_source("linux", ("write", "open", "close", "exit"))


def build_loop() -> SefBinary:
    return assemble(loop_source(), metadata={"program": "fault-loop"})


def build_workloads(key: Key) -> dict[str, InstalledProgram]:
    """Install the battery's programs with the sweep key.

    ``loop-sched`` reuses the ``loop`` image — the scheduled workload
    differs only in how it is run, not in what is installed."""
    return {
        "loop": install(build_loop(), key, InstallerOptions()),
        "victim": install(build_victim(), key, InstallerOptions()),
        "netserver": install(
            build_netserver(
                clients=NETSERVER_CLIENTS,
                requests=NETSERVER_REQUESTS,
                spin=NETSERVER_SPIN,
            ),
            key,
            InstallerOptions(),
        ),
    }


def section_sizes(workloads: dict) -> dict:
    """(workload, section) -> byte length of the section's real data
    (not the page-rounded mapping), bounding span-flip offsets so every
    seeded flip lands on installer-emitted bytes."""
    sizes: dict = {}
    for name, installed in sorted(workloads.items()):
        image = link(installed.binary)
        for section in FLIP_SECTIONS:
            sizes[(name, section)] = image.segment(section).size
    return sizes


def make_kernel(key: Key, config, recorder=None) -> Kernel:
    """A fresh machine for one run: the config's engine knobs plus the
    filesystem the workloads expect (the open target and the victim's
    execve target)."""
    kernel = Kernel(
        key=key,
        mode=EnforcementMode.PERMISSIVE,
        recorder=recorder,
        **config.kernel_kwargs(),
    )
    kernel.vfs.write_file("/etc/motd", b"hello\n")
    kernel.vfs.write_file("/bin/ls", _marker_program(_LS_MARKER))
    return kernel
