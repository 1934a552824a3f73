"""Scheduler semantics: preemption, fork, wait, exec, signals."""

import pytest

from repro.kernel import Kernel
from repro.kernel.errors import Errno
from repro.kernel.sched.scheduler import (
    FAULT_STATUS,
    MAX_TASKS,
    SCHED_KILL_STATUS,
    TaskState,
)
from repro.workloads.multiproc import build_server

from tests.kernel.sched.conftest import guest_binary, run_sched_guest

WSTATUS_DATA = """
.section .data
wstatus:
    .space 4
"""


class TestServerAcceptance:
    @pytest.mark.parametrize("engine", ["interp", "threaded"])
    def test_four_worker_server(self, engine):
        """The ISSUE acceptance bar: a 4-worker pipe-fed server runs to
        completion under both engines with interleaved execution."""
        kernel = Kernel(engine=engine)
        multi = kernel.run_many(
            [build_server(workers=4, requests=16)], timeslice=500
        )
        assert multi.results[0].exit_status == 0
        assert not multi.results[0].killed
        tasks = multi.scheduler.tasks
        assert len(tasks) == 5  # master + 4 forked workers
        master = min(tasks)
        workers = [task for pid, task in tasks.items() if pid != master]
        # Every worker handled its round-robin share...
        assert [task.exit_status for task in workers] == [4, 4, 4, 4]
        # ...echoed each 8-byte record...
        for task in workers:
            assert len(task.process.stdout) == 4 * 8
        # ...and was context-switched in more than once (interleaving,
        # not run-to-completion).
        for task in workers:
            assert task.switches > 1
        assert kernel.metrics.get("sched.context_switches") > len(tasks)
        assert kernel.metrics.get("sched.preemptions") > 0
        assert kernel.metrics.get("sched.blocks") > 0
        assert kernel.metrics.get("sched.forks") == 4
        assert kernel.metrics.get("sched.zombies_reaped") == 4


class TestForkWait:
    def test_fork_returns_zero_in_child_and_pid_in_parent(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
child:
    li r1, 7
    call sys_exit
""", ["fork", "wait4"], data=WSTATUS_DATA)
        assert multi.results[0].exit_status == 7

    def test_wait4_specific_pid(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    mov r1, r0           ; wait for exactly the forked pid
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
child:
    li r1, 9
    call sys_exit
""", ["fork", "wait4"], data=WSTATUS_DATA)
        assert multi.results[0].exit_status == 9

    def test_wait4_echild_without_children(self, kernel):
        multi = run_sched_guest(kernel, """
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["wait4"])
        assert multi.results[0].exit_status == int(Errno.ECHILD)

    def test_wait4_wnohang_returns_zero_while_child_runs(self, kernel):
        # The parent's WNOHANG poll runs in the same slice as the fork,
        # before the child has ever been scheduled.
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 1             ; WNOHANG
    li r4, 0
    call sys_wait4
    mov r1, r0
    call sys_exit
child:
    li r1, 0
    call sys_exit
""", ["fork", "wait4"])
        assert multi.results[0].exit_status == 0

    def test_fork_under_plain_run(self, kernel):
        """Plain ``Kernel.run`` forks for real: the parent writes to its
        child through a pipe and reaps it with wait4."""
        from tests.kernel.conftest import run_guest

        result = run_guest(kernel, """
    li r1, pfd
    call sys_pipe
    call sys_fork
    cmpi r0, 0
    beq child
    blt bad
    mov r14, r0
    li r9, pfd
    ld r1, [r9+4]
    li r2, msg
    li r3, 2
    call sys_write
    mov r1, r14
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8       ; the child's status: bytes it read
    subi r1, r1, 2
    call sys_exit
child:
    li r9, pfd
    ld r1, [r9+0]
    li r2, buf
    li r3, 16
    call sys_read
    mov r1, r0
    call sys_exit
bad:
    li r1, 99
    call sys_exit
""", ["pipe", "fork", "write", "read", "wait4"], data=WSTATUS_DATA + """
.section .rodata
msg:
    .ascii "hi"
.section .data
pfd:
    .space 8
.section .bss
buf:
    .space 16
""")
        assert not result.killed
        assert result.exit_status == 0
        assert kernel.metrics.get("sched.forks") == 1

    def test_getppid_in_child(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
child:
    call sys_getppid
    mov r1, r0
    call sys_exit
""", ["fork", "wait4", "getppid"], data=WSTATUS_DATA)
        # The top-level process gets pid 100; the child reports it.
        assert multi.results[0].exit_status == 100


class TestSignalsAndYield:
    def test_cross_process_kill_and_wstatus(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    mov r14, r0
    call sys_sched_yield  ; let the child get onto the CPU once
    mov r1, r14
    li r2, 9
    call sys_kill
    mov r1, r14
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    andi r1, r1, 0x7F    ; killed-by-signal encoding
    call sys_exit
child:
    jmp child            ; spin until killed
""", ["fork", "kill", "wait4", "sched_yield"], data=WSTATUS_DATA)
        assert multi.results[0].exit_status == 9
        assert kernel.metrics.get("sched.signal_kills") == 1
        child = multi.scheduler.tasks[101]
        assert child.killed
        assert "signal 9" in child.kill_reason

    def test_sched_yield_requeues(self, kernel):
        binary = guest_binary("""
    call sys_sched_yield
    call sys_sched_yield
    call sys_sched_yield
    li r1, 0
    call sys_exit
""", ["sched_yield"])
        multi = kernel.run_many([binary, binary], timeslice=100_000)
        assert all(r.exit_status == 0 for r in multi.results)
        assert kernel.metrics.get("sched.yields") == 6
        # With a huge timeslice the only scheduling points are the
        # yields; the two tasks must actually alternate.
        pids = [pid for pid, _ in multi.scheduler.interleaving]
        assert len(set(pids)) == 2
        assert kernel.metrics.get("sched.context_switches") > 2


OWN_PIPE_DATA = """
.section .data
pfd:
    .space 8
.section .bss
buf:
    .space 8
"""

#: Read our own empty pipe (the write end stays open: no task can ever
#: satisfy the read), then exit with -r0.
READ_OWN_PIPE = """
    li r1, pfd
    call sys_pipe
    li r9, pfd
    ld r1, [r9+0]
    li r2, buf
    li r3, 8
    call sys_read
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
"""


class TestBlockingAndDeadlock:
    def test_read_own_empty_pipe_returns_eagain(self, kernel):
        multi = run_sched_guest(kernel, READ_OWN_PIPE, ["pipe", "read"], data=OWN_PIPE_DATA)
        result = multi.results[0]
        assert not result.killed
        assert result.exit_status == int(Errno.EAGAIN)
        assert kernel.metrics.get("sched.unsatisfiable_waits") == 1
        assert kernel.audit.alerts() == []

    def test_unsatisfiable_read_under_plain_run_is_eagain(self, kernel):
        from tests.kernel.conftest import run_guest

        result = run_guest(kernel, READ_OWN_PIPE, ["pipe", "read"], data=OWN_PIPE_DATA)
        assert not result.killed
        assert result.exit_status == int(Errno.EAGAIN)
        assert kernel.metrics.get("sched.unsatisfiable_waits") == 1

    @pytest.mark.parametrize("entry", ["run", "run_many"])
    def test_eagain_completion_costs_a_zero_byte_read(self, entry):
        """The completion charges what a zero-byte read costs: the same
        instruction stream reading empty stdin instead of the pipe
        ends on the same cycle count."""
        source = """
    li r1, pfd
    call sys_pipe
    li r9, {src}
    ld r10, [r9+0]
    li r9, fdslot
    st r10, [r9+0]
    ld r1, [r9+0]
    li r2, buf
    li r3, 8
    call sys_read
    mov r1, r0
    halt
"""
        data = OWN_PIPE_DATA + """
.section .data
fdslot:
    .word 0
zero:
    .word 0
"""
        runs = {}
        for src in ("pfd", "zero"):
            kernel = Kernel()
            binary = guest_binary(source.format(src=src), ["pipe", "read"], data)
            if entry == "run":
                result = kernel.run(binary)
            else:
                result = kernel.run_many([binary]).results[0]
            runs[src] = result
        assert runs["pfd"].exit_status == Errno.EAGAIN.as_result()
        assert runs["zero"].exit_status == 0
        assert runs["pfd"].instructions == runs["zero"].instructions
        assert runs["pfd"].cycles == runs["zero"].cycles

    def test_oldest_blocked_call_completes_first(self, kernel):
        """Two tasks each wait on their own empty pipe; only the one
        that blocked first is failed, and its exit lets nothing else
        proceed, so the second is failed on the next empty poll."""
        binary = guest_binary(READ_OWN_PIPE, ["pipe", "read"], OWN_PIPE_DATA)
        multi = kernel.run_many([binary, binary], timeslice=100_000)
        assert [r.exit_status for r in multi.results] == [int(Errno.EAGAIN)] * 2
        assert kernel.metrics.get("sched.unsatisfiable_waits") == 2
        # The first task blocked first, so it resumed (and exited) first.
        pids = [pid for pid, _ in multi.scheduler.interleaving]
        first, second = (r.process.pid for r in multi.results)
        assert pids.index(first, 2) < pids.index(second, 2)


#: Under plain run the one slice covers the budget; under run_many a
#: timeslice that does not divide it leaves a clamped last slice.
ENTRY_POINTS = ["run", "run_many"]


def _run_entry(kernel, binary, entry, max_instructions=50_000_000):
    """Run ``binary`` through one entry point; returns (result, tasks)."""
    if entry == "run":
        result = kernel.run(binary, max_instructions=max_instructions)
    else:
        result = kernel.run_many(
            [binary], timeslice=3000, max_instructions=max_instructions
        ).results[0]
    return result, kernel._scheduler.tasks


class TestOneProcessModel:
    """Both entry points end every run the same way, and never with a
    host exception or unbounded growth."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_guest_fault_is_a_fault_kill(self, kernel, entry):
        binary = guest_binary("""
    li r1, 7
    li r2, 0
    div r3, r1, r2
    li r1, 0
    call sys_exit
""")
        result, _ = _run_entry(kernel, binary, entry)
        assert result.killed
        assert result.exit_status == FAULT_STATUS
        assert "division by zero" in result.kill_reason

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_budget_kills_at_exactly_max_instructions(self, kernel, entry):
        binary = guest_binary("""
spin:
    jmp spin
""")
        result, _ = _run_entry(kernel, binary, entry, max_instructions=100_000)
        assert result.killed
        assert result.exit_status == SCHED_KILL_STATUS
        assert "budget" in result.kill_reason
        assert result.instructions == 100_000

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_fork_bomb_stops_at_task_cap(self, kernel, entry):
        binary = guest_binary("""
bomb:
    call sys_fork
    jmp bomb
""", ["fork"])
        result, tasks = _run_entry(kernel, binary, entry, max_instructions=20_000)
        assert len(tasks) == MAX_TASKS
        assert kernel.metrics.get("sched.forks") == MAX_TASKS - 1
        assert result.exit_status == SCHED_KILL_STATUS
        assert all(task.state is TaskState.REAPED for task in tasks.values())
        assert sum(
            consumed for _, consumed in kernel._scheduler.interleaving
        ) == 20_000

class TestSpawnExec:
    CHILD_SOURCE = """
    li r1, 5
    call sys_exit
"""

    def _install_child(self, kernel):
        binary = guest_binary(self.CHILD_SOURCE, name="five")
        kernel.vfs.write_file("/bin/five", binary.to_bytes())

    def test_spawn_is_asynchronous(self, kernel):
        self._install_child(kernel)
        multi = run_sched_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_spawn
    cmpi r0, 0
    ble bad
    mov r1, r0
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
bad:
    li r1, 1
    call sys_exit
""", ["spawn", "wait4"], data=WSTATUS_DATA + """
.section .rodata
path:
    .asciz "/bin/five"
""")
        assert multi.results[0].exit_status == 5
        assert kernel.metrics.get("sched.spawns") == 1

    def test_execve_replaces_image_in_place(self, kernel):
        self._install_child(kernel)
        multi = run_sched_guest(kernel, """
    li r1, path
    li r2, 0
    li r3, 0
    call sys_execve
    li r1, 1
    call sys_exit        ; unreachable unless exec failed
""", ["execve"], data="""
.section .rodata
path:
    .asciz "/bin/five"
""")
        assert multi.results[0].exit_status == 5
        assert kernel.metrics.get("sched.execs") == 1
        # Same pid before and after the exec: one task only.
        assert len(multi.scheduler.tasks) == 1

    def test_zombie_states_visible(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    li r1, 0
    call sys_exit
child:
    li r1, 3
    call sys_exit
""", ["fork", "wait4"])
        assert multi.results[0].exit_status == 0
        assert all(
            task.state is TaskState.REAPED
            for task in multi.scheduler.tasks.values()
        )
        assert kernel.metrics.get("sched.zombies_reaped") >= 1
