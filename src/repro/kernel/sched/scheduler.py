"""Preemptive round-robin scheduler over the kernel's processes.

The run queue holds pids; each slice runs one task for at most
``timeslice`` *instructions* (all engine configurations account
instructions identically, so the interleaving is bit-identical between
``interp``, ``threaded``, and ``threaded`` with block chaining and
superblocks).  Preemption happens at basic-block boundaries — the
threaded engine returns control only between blocks, and the
interpreter between instructions.  Chained successors and fused
superblocks are only entered when the remaining timeslice covers them
(the engine otherwise falls back to its dispatch loop and, for slices
shorter than one block, to single-stepping), so the preemption point
lands on the same boundary in every configuration.  Since every trap
terminates a block, an authenticated-call check is never split across
a context switch: verification is atomic with respect to scheduling by
construction.

Everything is deterministic: no randomness, FIFO wake polling, a
plain deque run queue, and an instruction-count timeslice.  Two runs
with the same programs and timeslice produce identical interleavings,
audit logs, and metrics — the CI determinism gate asserts exactly
that.

The scheduler owns no verification state.  Each task's
:class:`~repro.kernel.process.Process` carries its own ``auth_counter``
and verifier-thunk partition, and its image carries its own
lastBlock/lbMAC region, so a context switch swaps authentication
context implicitly.

It is the kernel's only process model: ``Kernel.run`` is a one-task
run whose single slice covers the whole instruction budget, and
``Kernel.run_many`` a multi-task one.  Every run is bounded twice: by
its instruction budget (each slice is clamped to what remains, so the
survivors are killed at exactly ``max_instructions``) and by
:data:`MAX_TASKS`.  A wait no task can ever satisfy ends one way: when
nothing is runnable and a full wake poll moved nobody, the oldest
blocked call completes with ``-EAGAIN``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, unique
from typing import Callable, Optional

from repro.cpu.vm import VM, ExecutionFault, ProcessExit
from repro.isa import INSTRUCTION_SIZE
from repro.kernel.errors import Errno
from repro.kernel.process import Process

from .blocking import ImageReplaced, ProcessBlocked

#: Exit status for scheduler-imposed terminations (instruction-budget
#: exhaustion); matches the kernel's KILL_STATUS.
SCHED_KILL_STATUS = 128 + 9

#: Most tasks one scheduler run may hold, reaped ones included (a
#: reaped task keeps its VM for the caller to inspect).  At the cap,
#: fork and spawn return ``-EAGAIN``.
MAX_TASKS = 256

#: Fault terminations (guest machine faults: divide by zero, bad fetch,
#: protection) surface as a SIGSEGV-style status.
FAULT_STATUS = 128 + 11


@unique
class TaskState(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"  # exited, waiting to be reaped by the parent
    REAPED = "reaped"


@dataclass
class PendingSyscall:
    """A dispatch that blocked after verification completed.

    Only the handler body is retried on wake; the trap itself — and the
    §3.4 checks, which already advanced the auth counter — never
    re-execute.  ``auth_cycles`` is the verification cost still owed to
    the guest clock, charged exactly once at completion."""

    wait: str
    number: int
    name: str
    block_id: Optional[int]
    trap_pc: int
    auth_cycles: int


@dataclass
class Task:
    """One scheduled process."""

    pid: int
    process: Process
    vm: VM
    parent_pid: Optional[int] = None
    seq: int = 0
    state: TaskState = TaskState.RUNNABLE
    pending: Optional[PendingSyscall] = None
    #: Signal posted by another process's ``kill``; delivered at the
    #: next schedule point or wake poll.
    pending_signal: Optional[int] = None
    #: Times this task was switched in (context-switch granularity, not
    #: slice granularity: consecutive slices of the same pid count once).
    switches: int = 0
    exit_status: Optional[int] = None
    killed: bool = False
    kill_reason: str = ""

    @property
    def alive(self) -> bool:
        return self.state in (TaskState.RUNNABLE, TaskState.BLOCKED)


@dataclass
class MultiRunResult:
    """Results of a multiprogrammed run, in spawn order."""

    results: list
    scheduler: "Scheduler"

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)


class Scheduler:
    """Deterministic preemptive round-robin over one kernel."""

    def __init__(
        self,
        kernel,
        timeslice: int = 5000,
        max_instructions: int = 200_000_000,
    ):
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        self.kernel = kernel
        self.timeslice = timeslice
        #: Machine-wide instruction budget across all tasks.  Each slice
        #: is clamped to what remains, so survivors are killed after
        #: exactly this many instructions.
        self.max_instructions = max_instructions
        self.tasks: dict[int, Task] = {}
        self._runq: deque[int] = deque()
        self._blocked: list[int] = []
        #: (pid, instructions consumed) per slice, in schedule order —
        #: the determinism check compares this list across runs.
        self.interleaving: list[tuple[int, int]] = []
        #: Test/attack hook invoked as ``on_switch(scheduler, task)``
        #: right after a context switch is charged, before the slice
        #: runs.  The cross-process attack scenarios use it to model an
        #: attacker acting between slices.
        self.on_switch: Optional[Callable[["Scheduler", Task], None]] = None
        self._last_pid: Optional[int] = None
        self._instructions = 0
        self._seq = 0
        kernel._scheduler = self

    # -- admission -----------------------------------------------------

    def adopt(self, process: Process, vm: VM, parent_pid: Optional[int] = None) -> Task:
        """Place an already-loaded process on the run queue."""
        task = Task(
            pid=process.pid,
            process=process,
            vm=vm,
            parent_pid=parent_pid,
            seq=self._seq,
        )
        self._seq += 1
        self.tasks[process.pid] = task
        self._runq.append(process.pid)
        return task

    def spawn(self, binary, argv=None, stdin: bytes = b"", cwd: str = "/") -> Task:
        """Load a binary and adopt it as a top-level task."""
        process, vm = self.kernel.load(binary, argv=argv, stdin=stdin, cwd=cwd)
        return self.adopt(process, vm)

    def perturb_runq(self, rotation: int = 1) -> None:
        """Deterministically rotate the run queue.

        The fault-injection battery's scheduler-perturbation faults use
        this (from an ``on_switch`` hook) to force different preemption
        orders: per-process results must be invariant under *any*
        run-queue order, so a rotation that changes an outcome is a
        detection-coverage failure, not a scheduling choice."""
        self._runq.rotate(rotation)

    # -- queries used by the kernel/syscall layer ----------------------

    def find_zombie(self, parent_pid: int, pid_spec: int):
        """wait4 support: returns a reapable child Task, ``None`` when
        there are no children at all, or the string ``"waiting"`` when
        children exist but none is a zombie yet."""
        children = [
            task
            for task in self.tasks.values()
            if task.parent_pid == parent_pid and task.state is not TaskState.REAPED
        ]
        if pid_spec > 0:
            children = [task for task in children if task.pid == pid_spec]
        if not children:
            return None
        for task in sorted(children, key=lambda t: t.seq):
            if task.state is TaskState.ZOMBIE:
                return task
        return "waiting"

    def post_signal(self, pid: int, sig: int) -> bool:
        """Cross-process kill: mark the target for termination at its
        next schedule point.  Returns False if no live target."""
        task = self.tasks.get(pid)
        if task is None:
            return False
        if task.state is TaskState.ZOMBIE:
            return True  # signalling a zombie is a no-op, not an error
        if not task.alive:
            return False
        task.pending_signal = sig
        return True

    # -- the loop ------------------------------------------------------

    def run(self) -> None:
        """Schedule until every task has exited."""
        metrics = self.kernel.metrics
        while self._runq or self._blocked:
            if self._instructions >= self.max_instructions:
                self._kill_survivors("scheduler instruction budget exhausted")
                break
            woke = self._wake_blocked()
            peak = len(self._runq)
            if peak > metrics.get("sched.runq_peak"):
                metrics.set("sched.runq_peak", peak)
            if not self._runq:
                if self._blocked and woke == 0:
                    # Every live task is blocked and a full wake poll
                    # moved nobody: no task can ever satisfy any wait.
                    self._fail_oldest_wait()
                continue
            pid = self._runq.popleft()
            task = self.tasks.get(pid)
            if task is None or task.state is not TaskState.RUNNABLE:
                continue
            self._run_slice(task)

    # -- internals -----------------------------------------------------

    def _wake_blocked(self) -> int:
        """FIFO poll of blocked tasks: deliver pending signals, retry
        blocked dispatches.  Returns how many tasks changed state."""
        kernel = self.kernel
        metrics = kernel.metrics
        woke = 0
        still: list[int] = []
        for pid in self._blocked:
            task = self.tasks[pid]
            if task.state is not TaskState.BLOCKED:
                woke += 1
                continue
            if task.pending_signal is not None:
                self._deliver_signal(task)
                woke += 1
                continue
            try:
                completed = kernel.retry_blocked(task)
            except ProcessExit as exit_info:
                self._finish(task, exit_info.status, exit_info.killed, exit_info.reason)
                woke += 1
                continue
            if completed:
                task.state = TaskState.RUNNABLE
                self._runq.append(pid)
                metrics.inc("sched.wakeups")
                woke += 1
            else:
                still.append(pid)
        self._blocked = still
        return woke

    def _run_slice(self, task: Task) -> None:
        kernel = self.kernel
        metrics = kernel.metrics
        pid = task.pid
        if task.pending_signal is not None:
            self._deliver_signal(task)
            return
        if pid != self._last_pid:
            self._last_pid = pid
            task.switches += 1
            metrics.inc("sched.context_switches")
            metrics.inc(f"sched.switches.pid{pid}")
            if self.on_switch is not None:
                self.on_switch(self, task)
        rec = kernel.obs
        traced = rec.enabled
        if traced:
            depth = rec.open_spans
            rec.begin(f"pid{pid}", "sched")
        before = task.vm.instructions_executed
        budget = min(self.timeslice, self.max_instructions - self._instructions)
        try:
            task.vm.run_slice(budget)
        except ProcessBlocked as blocked:
            task.pending = PendingSyscall(
                wait=blocked.wait,
                number=blocked.number,
                name=blocked.name,
                block_id=blocked.block_id,
                trap_pc=blocked.trap_pc,
                auth_cycles=blocked.auth_cycles,
            )
            task.state = TaskState.BLOCKED
            self._blocked.append(pid)
            metrics.inc("sched.blocks")
        except ImageReplaced as replaced:
            # The new image's VM carries the old one's counters, so the
            # consumed computation below stays exact.
            task.vm = replaced.vm
            self._runq.append(pid)
            metrics.inc("sched.execs")
        except ExecutionFault as fault:
            self._finish(task, FAULT_STATUS, killed=True, reason=str(fault))
        else:
            if task.vm.exit_status is not None:
                self._finish(
                    task,
                    task.vm.exit_status,
                    task.vm.killed,
                    task.vm.kill_reason,
                )
            else:
                self._runq.append(pid)
                metrics.inc("sched.preemptions")
        finally:
            if traced:
                rec.close_to(depth)
        consumed = task.vm.instructions_executed - before
        self._instructions += consumed
        self.interleaving.append((pid, consumed))

    def _deliver_signal(self, task: Task) -> None:
        sig = task.pending_signal or 0
        task.pending_signal = None
        self.kernel.metrics.inc("sched.signal_kills")
        self._finish(
            task,
            128 + (sig & 0x7F),
            killed=True,
            reason=f"terminated by signal {sig}",
        )

    def _finish(self, task: Task, status: int, killed: bool, reason: str) -> None:
        """Exit path: close fds (releasing pipe endpoints so sibling
        readers see EOF), tear down kernel per-pid state, become a
        zombie for the parent to reap — or be auto-reaped when no live
        parent exists."""
        metrics = self.kernel.metrics
        task.exit_status = status
        task.killed = killed
        task.kill_reason = reason
        for fd in list(task.process.fds):
            task.process.close_fd(fd)
        self.kernel.release_process(task.process, task.vm)
        task.state = TaskState.ZOMBIE
        metrics.inc("sched.exits")
        # Reparenting: our children become orphans; orphan zombies are
        # reaped immediately (there will never be a waiter).
        for child in self.tasks.values():
            if child.parent_pid == task.pid:
                child.parent_pid = None
                if child.state is TaskState.ZOMBIE:
                    child.state = TaskState.REAPED
                    metrics.inc("sched.zombies_reaped")
        parent = (
            self.tasks.get(task.parent_pid) if task.parent_pid is not None else None
        )
        if parent is None or not parent.alive:
            task.state = TaskState.REAPED
        else:
            metrics.inc("sched.zombies")

    def _fail_oldest_wait(self) -> None:
        """The unsatisfiable-wait rule: complete the oldest blocked call
        with ``-EAGAIN``, charged as a zero-byte completion (the call's
        cost plus its deferred verification cycles), and resume it
        past the trap."""
        pid = self._blocked.pop(0)
        task = self.tasks[pid]
        pending = task.pending
        vm = task.vm
        vm.regs[0] = Errno.EAGAIN.as_result()
        vm.cycles += (
            self.kernel.costs.syscall_cost(pending.name, 0) + pending.auth_cycles
        )
        vm.pc = pending.trap_pc + INSTRUCTION_SIZE
        task.pending = None
        task.state = TaskState.RUNNABLE
        self._runq.append(pid)
        self.kernel.metrics.inc("sched.unsatisfiable_waits")

    def _kill_survivors(self, reason: str) -> None:
        for task in list(self.tasks.values()):
            if task.alive:
                self._finish(task, SCHED_KILL_STATUS, killed=True, reason=reason)
        self._blocked = []
        self._runq.clear()
