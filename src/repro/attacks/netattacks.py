"""Attack scenarios against the loopback networking stack.

The cross-process battery (crossproc.py) established that per-process
authentication contexts isolate processes that share a CPU.  These
scenarios establish the same for processes that share *sockets*: a
connection is a kernel object both ends touch, so an attacker who owns
one end (or the moment of a context switch) has a new lever against
the authenticated call sites of the other end.

All three run the real netserver workload — one listener, forked
clients — under the preemptive scheduler, and all three must fail-stop
*only* the attacked server process, in the right violation family:

1. **accept replay (mimicry)** -- snapshot the server's own
   lastBlock/lbMAC early in its accept loop and replay it verbatim
   once its auth counter has advanced, mimicking the polstate of an
   earlier, legitimately-verified accept.  Blocked by the §3.2 replay
   nonce: the stored MAC binds the snapshot to the old counter value.
2. **socket state reuse** -- copy a live *client's* polstate into the
   server at a context switch.  Server and clients are forks of one
   image, so the bytes land at the right address and carry genuinely
   valid MAC material — for the wrong process.  Blocked by the
   per-process counter, exactly like cross-process replay, but here
   the donor is a network peer attacking the service it is using.
3. **tampered send** -- flip one bit in the buffer-pointer register of
   the server's echo-loop ``send`` after the site has been verified
   (and its verifier thunk compiled).  The pointer is an Immediate
   constraint in the signed per-site record, so the pre-verified site
   must still die with a call-MAC mismatch — warm caches are not an
   exemption from argument binding.

In every case the surviving clients observe EOF/ECONNREFUSED through
normal socket teardown and exit on their own error paths: fail-stop
stays confined to the attacked process, and no survivor deadlocks.
"""

from __future__ import annotations

from typing import Optional

from repro.binfmt import link
from repro.configs import DEFAULT_CONFIG, EngineConfig
from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.kernel.sched.scheduler import Scheduler, Task
from repro.kernel.syscalls import SYSCALL_NUMBERS
from repro.policy.record import POLSTATE_SIZE
from repro.workloads.netserver import build_netserver
from repro.attacks.scenarios import AttackResult, _prepare_kernel

#: Netserver shape for the battery: enough clients that the server is
#: mid-service when the injection window opens, small enough to keep
#: the roster-wide sweep quick.
_CLIENTS = 3
_REQUESTS = 4
_TIMESLICE = 400

#: Echo-loop send traps to let pass before tampering, so the site is
#: verified and warm (its verifier thunk compiled).
_WARM_SENDS = 3


def _launch(key: Key, config: EngineConfig):
    """Install the netserver and stand up a scheduled kernel around it.

    Returns (kernel, scheduler, master task, polstate address)."""
    installed = install(
        build_netserver(clients=_CLIENTS, requests=_REQUESTS),
        key,
        InstallerOptions(),
    )
    kernel = _prepare_kernel(key, config)
    polstate = link(installed.binary).address_of("__asc_polstate")
    scheduler = Scheduler(kernel, timeslice=_TIMESLICE)
    master = scheduler.adopt(*kernel.load(installed.binary))
    return kernel, scheduler, master, polstate


def _clients_of(scheduler: Scheduler, master: Task) -> list[Task]:
    return [
        task for pid, task in sorted(scheduler.tasks.items())
        if pid != master.pid
    ]


def _survivors_contained(scheduler: Scheduler, master: Task) -> bool:
    """Fail-stop containment: every client ran to a normal exit (their
    own failure paths included — the service died under them), none
    was killed by the checker, and no wait was left for the scheduler
    to fail as unsatisfiable."""
    clients = _clients_of(scheduler, master)
    return (
        bool(clients)
        and scheduler.kernel.metrics.get("sched.unsatisfiable_waits") == 0
        and all(not task.killed and task.exit_status is not None for task in clients)
    )


# ---------------------------------------------------------------------------
# 1. accept replay (mimicry)
# ---------------------------------------------------------------------------


def accept_replay_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Mimicry via the server's own history: the polstate bytes that
    were valid at an earlier accept are replayed once the counter has
    moved on.  Every byte of the replayed state is genuine — only the
    kernel-resident nonce has advanced — so this isolates the replay
    protection from every other check."""
    key = key or Key.generate()
    kernel, scheduler, master, polstate = _launch(key, config)
    snapshot: list[tuple[int, bytes]] = []
    injected: list[int] = []

    def on_switch(sched: Scheduler, task: Task) -> None:
        if injected or task.pid != master.pid:
            return
        counter = task.process.auth_counter
        if not snapshot:
            if counter > 0:  # polstate has been written at least once
                blob = task.vm.memory.read(polstate, POLSTATE_SIZE, force=True)
                snapshot.append((counter, bytes(blob)))
            return
        taken, blob = snapshot[0]
        if counter == taken:
            return  # nonce unchanged; the replay would be trivially valid
        task.vm.memory.write(polstate, blob, force=True)
        injected.append(counter)

    scheduler.on_switch = on_switch
    scheduler.run()

    return AttackResult(
        name="accept-replay",
        blocked=bool(injected)
        and master.killed
        and "policy state MAC" in master.kill_reason
        and _survivors_contained(scheduler, master),
        detail=(
            "replayed the server's own accept-era lastBlock/lbMAC after "
            "its replay nonce advanced"
        ),
        kill_reason=master.kill_reason,
        stdout=bytes(master.process.stdout),
    )


# ---------------------------------------------------------------------------
# 2. cross-process polstate reuse, client -> server
# ---------------------------------------------------------------------------


def socket_state_reuse_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """A connected client donates its live polstate to the server it is
    talking to.  Same image, same ``__asc_polstate`` address, valid MAC
    material — but MAC'd under the *client's* counter, which the
    server's kernel-side nonce has never seen."""
    key = key or Key.generate()
    kernel, scheduler, master, polstate = _launch(key, config)
    injected: list[tuple[int, int]] = []

    def on_switch(sched: Scheduler, task: Task) -> None:
        if injected or task.pid != master.pid:
            return
        donor = next(
            (
                client for client in _clients_of(sched, master)
                if client.alive
                and client.process.auth_counter > 0
                and client.process.auth_counter != task.process.auth_counter
            ),
            None,
        )
        if donor is None:
            return  # no client with a divergent nonce yet
        blob = donor.vm.memory.read(polstate, POLSTATE_SIZE, force=True)
        task.vm.memory.write(polstate, blob, force=True)
        injected.append(
            (donor.process.auth_counter, task.process.auth_counter)
        )

    scheduler.on_switch = on_switch
    scheduler.run()

    return AttackResult(
        name="socket-state-reuse",
        blocked=bool(injected)
        and master.killed
        and "policy state MAC" in master.kill_reason
        and _survivors_contained(scheduler, master),
        detail=(
            "spliced a connected client's live polstate into the server "
            "at a context switch"
        ),
        kill_reason=master.kill_reason,
        stdout=bytes(master.process.stdout),
    )


# ---------------------------------------------------------------------------
# 3. tampered send at a pre-verified site
# ---------------------------------------------------------------------------


def tampered_send_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Flip one bit in the buffer-pointer register of the server's
    echo ``send`` — after the site has trapped enough times that its
    verifier thunk is compiled.  The pointer is an Immediate constraint
    in the signed record, so the thunk's register check fails and the
    encoded call the full check rebuilds diverges from the MAC'd one."""
    key = key or Key.generate()
    kernel, scheduler, master, _ = _launch(key, config)
    send_number = SYSCALL_NUMBERS["send"]
    sends_seen = [0]
    tampered: list[int] = []
    forward = kernel.handle_trap

    def spy(vm, authenticated):
        process = kernel._vm_process.get(id(vm))
        if (
            authenticated
            and not tampered
            and process is not None
            and process.pid == master.pid
            and vm.regs[0] == send_number
        ):
            if sends_seen[0] < _WARM_SENDS:
                sends_seen[0] += 1
            else:
                vm.regs[2] ^= 0x40  # one bit in the buffer pointer
                tampered.append(vm.regs[2])
        return forward(vm, authenticated)

    kernel.handle_trap = spy  # shadows the bound method for every VM
    scheduler.run()

    return AttackResult(
        name="tampered-send",
        blocked=bool(tampered)
        and master.killed
        and "call MAC mismatch" in master.kill_reason
        and _survivors_contained(scheduler, master),
        detail=(
            "flipped a bit in the echo send's buffer-pointer register at "
            "a warm, pre-verified site"
        ),
        kill_reason=master.kill_reason,
        stdout=bytes(master.process.stdout),
    )


def run_net_attacks(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[AttackResult]:
    """The networking battery.  Same contract as the other batteries:
    every scenario blocked, with identical kill reasons, on every
    roster configuration."""
    key = key or Key.generate()
    return [
        accept_replay_attack(key, config),
        socket_state_reuse_attack(key, config),
        tampered_send_attack(key, config),
    ]
