"""Control-flow signals between syscall handlers, kernel, and scheduler.

Three exceptions carry the multiprogramming subsystem's control
transfers.  They are deliberately free of imports so that both the
syscall layer and the CPU engines can raise/propagate them without
creating an import cycle.

The critical invariant is *verification atomicity*: by the time a
handler discovers it must block, the authenticated-call check has
already run to completion — including steps 3–5 of the §3.2 online
memory checker, which advance the per-process counter and re-MAC the
``lastBlock`` state.  A blocked call therefore must **never** re-execute
the trap instruction; only the *dispatch* (the handler body) is retried
when the wait condition clears.  :class:`ProcessBlocked` records
everything needed to complete the call without touching the trap again:
the syscall number, the trap PC (so the wake path can advance past the
``ASYS``), and the verification cycles that still need to be charged.

It also records what the call waits on.  Every object a call can wait
on — each direction of a connection, a listen queue, a bound datagram
socket's queue, a pipe, the scheduler's child table — carries a
:class:`Changes` counter, bumped on every state change that could let a
waiter go on.  A blocking handler raises :class:`WouldBlock` naming the
counter its wait depends on, and the exception snapshots it there and
then.  The wake poll retries a parked call only once that counter has
moved past its snapshot: until then the state the call found
unsatisfiable is unchanged, so a retry would fail again.  A call that
names no counter (``sched_yield``, ``select``, ``poll``) is retried at
every poll.
"""

from __future__ import annotations

from typing import Optional


class Changes:
    """One waitable object's change counter.

    Counters only grow, so a parked call whose snapshot still equals
    ``count`` has seen no change to the object since it last failed."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class WouldBlock(Exception):
    """Raised by a syscall handler whose wait condition is not ready.

    ``watch`` is the :class:`Changes` counter the wait depends on, or
    None for a call every wake poll must retry (``sched_yield``, and
    ``select`` and ``poll``, which watch many fds).  Handlers raise
    before they touch any state, so a failed dispatch changes nothing.

    The kernel converts this into :class:`ProcessBlocked` and the
    scheduler parks the task until a wake poll's retry succeeds — or,
    if no task could ever satisfy the wait, completes the call with
    ``-EAGAIN``."""

    def __init__(self, wait: str, watch: Optional[Changes] = None):
        super().__init__(f"would block on {wait}")
        self.wait = wait
        self.watch = watch
        #: ``watch.count`` at the moment the wait was found unsatisfied.
        self.stamp = None if watch is None else watch.count


class ProcessBlocked(Exception):
    """A trap completed verification but its dispatch must wait.

    Propagates out of both execution engines with ``vm.pc`` still at
    the trap site (traps terminate basic blocks, so the batched
    accounting is already exact).  The scheduler parks this exception
    itself as the task's pending call; the wake path retries *only*
    the dispatch and then advances the PC past the trap, charging
    ``auth_cycles`` (the already-performed verification work) exactly
    once.  ``watch`` and ``stamp`` come from the :class:`WouldBlock`
    and are refreshed by every retry that fails again."""

    def __init__(
        self,
        wait: str,
        number: int,
        name: str,
        block_id: Optional[int],
        trap_pc: int,
        watch=None,
        stamp: Optional[int] = None,
    ):
        super().__init__(f"{name} blocked on {wait}")
        self.wait = wait
        self.number = number
        self.name = name
        self.block_id = block_id
        self.trap_pc = trap_pc
        self.watch = watch
        self.stamp = stamp
        #: Verification cycles the ASYS check consumed before the
        #: dispatch blocked; filled in by the kernel's trap handler.
        self.auth_cycles = 0


class ImageReplaced(Exception):
    """``execve`` replaced the calling process's image in place.

    The old VM is dead; ``vm`` is the fresh image's, which the
    scheduler swaps into the task before re-queueing it.  Instruction
    and cycle counters carry over to the new VM, so slice accounting
    and budgets see one continuous process."""

    def __init__(self, vm, path: str):
        super().__init__(f"execve {path}")
        self.vm = vm
