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
"""

from __future__ import annotations

from typing import Optional


class WouldBlock(Exception):
    """Raised by a syscall handler whose wait condition is not ready.

    The kernel converts this into :class:`ProcessBlocked` and the
    scheduler parks the task until a wake poll's retry succeeds — or,
    if no task could ever satisfy the wait, completes the call with
    ``-EAGAIN``."""

    def __init__(self, wait: str):
        super().__init__(f"would block on {wait}")
        self.wait = wait


class ProcessBlocked(Exception):
    """A trap completed verification but its dispatch must wait.

    Propagates out of both execution engines with ``vm.pc`` still at
    the trap site (traps terminate basic blocks, so the batched
    accounting is already exact).  The scheduler parks the task; the
    wake path retries *only* the dispatch and then advances the PC past
    the trap, charging ``auth_cycles`` (the already-performed
    verification work) exactly once."""

    def __init__(
        self,
        wait: str,
        number: int,
        name: str,
        block_id: Optional[int],
        trap_pc: int,
    ):
        super().__init__(f"{name} blocked on {wait}")
        self.wait = wait
        self.number = number
        self.name = name
        self.block_id = block_id
        self.trap_pc = trap_pc
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
