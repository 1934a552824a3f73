"""The kernel object: trap dispatch, process loading, enforcement.

One :class:`Kernel` models one machine: a filesystem, a MAC key shared
with the trusted installer, an enforcement mode, the per-process
authentication counters, and the audit log.  It implements the VM's
:class:`repro.cpu.vm.TrapHandler` protocol, so constructing a process
is just "link the binary, map the segments, point the VM at us".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

from repro.binfmt import BinaryFormatError, SefBinary, link
from repro.binfmt.image import PAGE_SIZE, LoadedImage
from repro.cpu.memory import (
    Memory,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.cpu.vm import VM, ProcessExit
from repro.crypto import AesCmac, Key
from repro.isa import INSTRUCTION_SIZE
from repro.kernel.audit import AuditEvent, AuditLog
from repro.kernel.auth import AuthChecker, AuthViolation
from repro.kernel.costs import CYCLES_PER_SECOND, CostModel
from repro.kernel.errors import Errno
from repro.kernel.net import NetStack
from repro.kernel.process import MMAP_BASE, Process
from repro.kernel.sched.blocking import ImageReplaced, ProcessBlocked, WouldBlock
from repro.kernel.sched.scheduler import MAX_TASKS, MultiRunResult, Scheduler, Task
from repro.kernel.syscalls import (
    SYSCALL_NAMES,
    SYSCALLS,
    FdEffect,
    SyscallContext,
    dispatch,
)
from repro.kernel.verifierjit import VerifierJit
from repro.kernel.vfs import Vfs, VfsError
from repro.obs import NULL_RECORDER, MetricsRegistry, Recorder
from repro.policy.capability import CapabilityTable

#: Fixed epoch for deterministic time syscalls: 26 Sep 2005, the
#: paper's submission date.
EPOCH = 1127692800

KILL_STATUS = 128 + 9  # SIGKILL-style status for security terminations

#: The calls whose authenticated dispatch maintains a process's §5.3
#: capability table: every call with an fd effect in the syscall table
#: (the producers grant, ``close`` revokes).
CAPABILITY_CALLS = frozenset(
    name for name, spec in SYSCALLS.items() if spec.fd_effect is not None
)


def fork_address_space(memory: Memory) -> Memory:
    """Duplicate an address space the way fork does: writable regions
    are copied, read-only ones (code, rodata, the MACed policy
    sections) are shared by reference."""
    copy = Memory()
    for region in memory.regions():
        if region.prot & PROT_WRITE:
            copy.map_region(
                region.start,
                len(region.data),
                region.prot,
                name=region.name,
                data=region.data,  # map_region copies it
            )
        else:
            copy.adopt_region(region)
    return copy


@unique
class EnforcementMode(Enum):
    """What the kernel does with *unauthenticated* binaries.

    Protected (installer-produced) binaries are always enforced; the
    mode only governs legacy binaries, mirroring a staged rollout where
    "the system as a whole is protected once all binaries ... have been
    transformed" (§3.3)."""

    PERMISSIVE = "permissive"  # legacy binaries may use plain SYS
    ENFORCE = "enforce"  # plain SYS is always fatal


@dataclass
class RunResult:
    """Everything a caller learns from running one program."""

    exit_status: int
    killed: bool
    kill_reason: str
    stdout: bytes
    stderr: bytes
    cycles: int
    instructions: int
    syscalls: int
    process: Process
    vm: VM

    @property
    def ok(self) -> bool:
        return not self.killed and self.exit_status == 0


class Kernel:
    """The simulated operating system.

    Every check a protected binary gets follows its MAC-verified
    records, so the kernel has no switch for any of them: §5.3
    capability tracking, like control flow and patterns, applies at
    exactly the sites whose installed record carries it (a non-zero
    ``fd_mask``), and the installer's
    ``InstallerOptions(capability_tracking=True)`` is the one choice."""

    def __init__(
        self,
        key: Optional[Key] = None,
        mode: EnforcementMode = EnforcementMode.PERMISSIVE,
        costs: Optional[CostModel] = None,
        nx: bool = False,
        fastpath: bool = True,
        engine: str = "threaded",
        recorder: Optional[Recorder] = None,
    ):
        self.key = key or Key.generate()
        self.mac = AesCmac(self.key.material)
        self.mode = mode
        self.costs = costs or CostModel()
        self.vfs = Vfs()
        #: Observability (see DESIGN.md "Observability").  ``obs`` is
        #: the span recorder — the shared NullRecorder unless the caller
        #: passes a :class:`repro.obs.TraceRecorder` — and ``metrics``
        #: is the machine-wide counter registry, the only place a
        #: counter lives.
        self.obs: Recorder = recorder if recorder is not None else NULL_RECORDER
        self.metrics = MetricsRegistry()
        self.audit = AuditLog()
        #: No-execute enforcement.  The paper's 2005-era testbed had no
        #: NX bit (which is what makes stack shellcode expressible);
        #: enabling it supports the hardware-vs-authentication ablation.
        self.nx = nx
        #: Verification fast path: per-process partitions of compiled
        #: per-site verifier thunks (kernel/verifierjit.py).  Off
        #: (`fastpath=False`, the --no-fastpath escape hatch) every trap
        #: runs the paper's full check, as the paper measured.
        self.fastpath = fastpath
        #: CPU execution engine for guest processes: "threaded" (the
        #: basic-block translation cache, default) or "interp" (the
        #: reference interpreter).  Both are bit-identical by contract.
        self.engine = engine
        self._checker = AuthChecker(self.mac, self.costs, self.obs)
        #: Optional syscall tracer (duck-typed: .record(ctx)); used by
        #: the training-based baseline monitors.
        self.tracer = None
        self._next_pid = 100
        #: The one VM -> process map (keyed by VM identity), probed once
        #: per trap; everything per-process lives on the Process record.
        self._vm_process: dict[int, Process] = {}
        #: The scheduler of the current run: every process runs under
        #: one (``run`` is a one-task run).
        self._scheduler: Optional[Scheduler] = None
        self._next_pipe_ident = 0
        #: Loopback network state (port table, connection idents); see
        #: kernel/net/.  Deterministic: idents are a plain counter and
        #: all queues are FIFO.
        self.net = NetStack(metrics=self.metrics)

    @property
    def chain(self) -> bool:
        """Whether the threaded engine chains blocks and fuses hot
        loops: it always does (read-only)."""
        return True

    @property
    def verifier_jit(self) -> bool:
        """Whether traps run through compiled per-site thunks: always
        exactly when the fast path is on (read-only)."""
        return self.fastpath

    # -- loading ----------------------------------------------------------

    def load(
        self,
        binary: SefBinary,
        argv: Optional[list[str]] = None,
        stdin: bytes = b"",
        cwd: str = "/",
    ) -> tuple[Process, VM]:
        """Link, map, and prepare one process (not yet run)."""
        return self._load_image(binary, link(binary), argv, stdin, cwd)

    def _load_image(
        self,
        binary: SefBinary,
        image: LoadedImage,
        argv: Optional[list[str]],
        stdin: bytes,
        cwd: str,
    ) -> tuple[Process, VM]:
        """Map an already linked ``binary`` and prepare its process."""
        process = Process(pid=self._allocate_pid(), name="", cwd=cwd, stdin=stdin)
        return process, self._start_image(process, binary, image, argv)

    def _start_image(
        self,
        process: Process,
        binary: SefBinary,
        image: LoadedImage,
        argv: Optional[list[str]],
    ) -> VM:
        """Map ``image`` into a fresh VM and (re)start ``process`` on
        it (load and in-place execve): the authentication context
        (counter back to 0 — the new image's .polstate starts at its
        installed epoch), capability table, mmap cursor and thunk
        partition all belong to the image and begin anew."""
        memory, heap_base = self._map_image(image)
        vm = VM(
            memory=memory,
            entry=image.entry,
            trap_handler=self,
            nx=self.nx,
            engine=self.engine,
            recorder=self.obs,
        )
        process.name = image.metadata.get("program", binary.entry)
        process.brk = process.initial_brk = heap_base
        process.authenticated = image.metadata.get("authenticated") == "yes"
        process.auth_counter = 0
        process.signal_handlers.clear()
        process.capabilities = CapabilityTable()
        process.mmap_cursor = MMAP_BASE
        process.mmap_bytes = 0
        self._drop_jit(process)
        if self.fastpath:
            process.jit = self._new_jit()
        self._vm_process[id(vm)] = process
        self._setup_argv(vm, argv or [process.name])
        return vm

    def _new_jit(self) -> VerifierJit:
        """A fresh per-process thunk partition (load/fork/execve)."""
        return VerifierJit(self.mac, self.costs, self.metrics, self.obs)

    def _drop_jit(self, process: Process) -> None:
        """Tear down a process's thunk partition (exit/execve), folding
        its dropped thunks into the invalidation counters."""
        jit = process.jit
        if jit is None:
            return
        process.jit = None
        dropped = jit.invalidate()
        if dropped:
            self.metrics.inc("verifier.thunks_invalidated", dropped)

    def _map_image(self, image) -> tuple[Memory, int]:
        """Map a linked image's segments plus a fresh heap."""
        memory = Memory()
        for segment in image.segments:
            if segment.size == 0:
                continue  # empty sections occupy no pages
            prot = PROT_READ
            if segment.flags & 0x2:
                prot |= PROT_WRITE
            if segment.flags & 0x4:
                prot |= PROT_EXEC
            size = max(segment.size, 1)
            # Round segment sizes to pages so images stay contiguous.
            size = (size + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            memory.map_region(
                segment.vaddr, size, prot, name=segment.name, data=segment.data
            )
        heap_base = (image.end + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        memory.map_region(heap_base, PAGE_SIZE, PROT_READ | PROT_WRITE, name="[heap]")
        return memory, heap_base

    def _setup_argv(self, vm: VM, argv: list[str]) -> None:
        """Push argv strings and the pointer array onto the stack;
        the process starts with r1=argc, r2=argv."""
        pointers = []
        for arg in argv:
            data = arg.encode("utf-8") + b"\x00"
            vm.regs[15] -= len(data)
            vm.regs[15] &= ~0x3
            vm.memory.write(vm.regs[15], data)
            pointers.append(vm.regs[15])
        vm.regs[15] -= 4 * (len(pointers) + 1)
        table = vm.regs[15]
        for i, pointer in enumerate(pointers):
            vm.memory.write_u32(table + 4 * i, pointer)
        vm.memory.write_u32(table + 4 * len(pointers), 0)
        vm.regs[1] = len(argv)
        vm.regs[2] = table

    def run(
        self,
        binary: SefBinary,
        argv: Optional[list[str]] = None,
        stdin: bytes = b"",
        cwd: str = "/",
        max_instructions: int = 50_000_000,
    ) -> RunResult:
        """Load and execute a program to completion: a one-task
        scheduler run whose one slice covers the whole budget (the
        program may still fork or spawn more tasks)."""
        scheduler = Scheduler(
            self, timeslice=max_instructions, max_instructions=max_instructions
        )
        task = scheduler.spawn(binary, argv=argv, stdin=stdin, cwd=cwd)
        scheduler.run()
        return self._task_result(task)

    def run_many(
        self,
        programs,
        timeslice: int = 5000,
        max_instructions: int = 200_000_000,
    ) -> MultiRunResult:
        """Run several programs concurrently under a preemptive
        round-robin scheduler.

        ``programs`` is a list of :class:`SefBinary` or ``(binary,
        argv)`` / ``(binary, argv, stdin)`` tuples.  Results come back
        in spawn order; processes created at runtime (fork/spawn) are
        reachable through ``result.scheduler.tasks``."""
        scheduler = Scheduler(
            self, timeslice=timeslice, max_instructions=max_instructions
        )
        top: list[Task] = []
        for spec in programs:
            argv: Optional[list[str]] = None
            stdin = b""
            if isinstance(spec, tuple):
                binary = spec[0]
                if len(spec) > 1:
                    argv = spec[1]
                if len(spec) > 2:
                    stdin = spec[2]
            else:
                binary = spec
            top.append(scheduler.spawn(binary, argv=argv, stdin=stdin))
        scheduler.run()
        results = [self._task_result(task) for task in top]
        return MultiRunResult(results=results, scheduler=scheduler)

    def _task_result(self, task: Task) -> RunResult:
        return RunResult(
            exit_status=task.exit_status,
            killed=task.killed,
            kill_reason=task.kill_reason,
            stdout=bytes(task.process.stdout),
            stderr=bytes(task.process.stderr),
            cycles=task.vm.cycles,
            instructions=task.vm.instructions_executed,
            syscalls=task.vm.syscall_count,
            process=task.process,
            vm=task.vm,
        )

    def release_process(self, process: Process, vm: VM) -> None:
        """Tear down a process's kernel-side state at exit.  A thunk
        never outlives the address space it was compiled against."""
        self._vm_process.pop(id(vm), None)
        self._drop_jit(process)
        self._fold_vm_tallies(vm)

    def _allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _fold_vm_tallies(self, vm: VM) -> None:
        """Add a retiring VM's decode- and block-cache tallies to the
        registry (at exit, and for the image an execve replaces), so
        the hot loops only ever touch plain attribute counters.  A fork
        child and an exec'd image inherit instruction and trap totals,
        so the scheduler counts those per slice instead."""
        metrics = self.metrics
        metrics.inc("decode.invalidations", vm.decode_invalidations)
        block_cache = vm._block_cache
        if block_cache is not None:
            metrics.inc("engine.blocks_compiled", block_cache.compiles)
            metrics.inc("engine.blocks_evicted", block_cache.invalidations)
            metrics.inc("engine.chains_linked", block_cache.chains_linked)
            metrics.inc("engine.chains_severed", block_cache.chains_severed)
            metrics.inc("engine.superblocks_fused", block_cache.superblocks_fused)
            metrics.inc("engine.superblocks_killed", block_cache.superblocks_killed)

    # -- trap handling (TrapHandler protocol) --------------------------------

    def handle_trap(self, vm: VM, authenticated: bool) -> int:
        process = self._vm_process.get(id(vm))
        if process is None:
            raise ProcessExit(KILL_STATUS, killed=True, reason="orphan VM trap")

        if authenticated:
            return self._handle_asys(vm, process)
        return self._handle_sys(vm, process)

    def _handle_sys(self, vm: VM, process: Process) -> int:
        """A plain SYS trap."""
        number = vm.regs[0]
        name = SYSCALL_NAMES.get(number, f"syscall#{number}")
        if process.authenticated:
            # §3.4: "Unauthenticated calls are also blocked."
            self._kill(
                vm, process, name,
                "unauthenticated system call from protected binary",
            )
        if self.mode is EnforcementMode.ENFORCE:
            self._kill(
                vm, process, name,
                "unauthenticated binary denied in enforcing mode",
            )
        return self._dispatch(vm, process, number)

    def _handle_asys(self, vm: VM, process: Process) -> int:
        """An authenticated ASYS trap: check, then dispatch.

        The kernel owns the "syscall-verify" root span (one per trap)
        so a thunk hit and the full check's staged pipeline present the
        same span tree shape to the recorder.  With the fast path on,
        each verified trap counts once: a thunk hit in
        ``fastpath.hits``, a full check in ``fastpath.misses``.  The
        verdict is the full check's ``CheckResult`` or, on a hit, the
        ``SiteThunk`` itself, which carries the same fields."""
        rec = self.obs
        traced = rec.enabled
        if traced:
            span_depth = rec.open_spans
            rec.begin("syscall-verify", "verify")
        jit = process.jit
        result = jit.execute(vm, process) if jit is not None else None
        hit = result is not None
        if not hit:
            try:
                result = self._checker.check(vm, process)
            except AuthViolation as violation:
                number = vm.regs[0]
                name = SYSCALL_NAMES.get(number, f"syscall#{number}")
                if traced:
                    # A violation aborts the checker mid-stage;
                    # rebalance the span stack before the kill unwinds
                    # the VM.
                    rec.close_to(span_depth)
                self._kill(vm, process, name, violation.reason)
                raise AssertionError("unreachable")  # pragma: no cover
            if jit is not None:
                # First full verification of this site (or its thunk
                # just got dropped): specialize it for the next trap.
                jit.compile_site(vm, process, result)
        if traced:
            rec.end()  # syscall-verify
        if jit is not None:
            self.metrics.inc("fastpath.hits" if hit else "fastpath.misses")
        if result.fd_mask:
            self._check_capability(vm, process, result)
        try:
            cycles = self._dispatch(
                vm, process, result.syscall_number, result.block_id
            )
        except ProcessBlocked as blocked:
            # The §3.4 checks above already ran (and advanced the
            # counter); their cost is charged once, when the blocked
            # dispatch eventually completes.
            blocked.auth_cycles = result.cycles
            raise
        return cycles + result.cycles

    def _check_capability(self, vm: VM, process: Process, result) -> None:
        """§5.3: each tracked fd argument must descend from a permitted
        producing call site."""
        table = process.capabilities
        name = SYSCALL_NAMES.get(result.syscall_number, "?")
        for index in range(6):
            if not result.fd_mask & (1 << index):
                continue
            fd = vm.regs[1 + index]
            if fd in (0, 1, 2):  # inherited standard descriptors
                continue
            if not table.check(fd, result.fd_allowed):
                self._kill(
                    vm, process, name,
                    f"capability violation: fd {fd} (arg {index}) not "
                    f"produced by a permitted call site",
                )

    def _dispatch(
        self,
        vm: VM,
        process: Process,
        number: int,
        block_id: Optional[int] = None,
        retry: bool = False,
    ) -> int:
        name = SYSCALL_NAMES.get(number)
        if name is None:
            vm.regs[0] = 0xFFFFFFDA  # -ENOSYS
            return self.costs.syscall_cost("unknown")
        ctx = SyscallContext(self, process, vm, name, tuple(vm.regs[1:7]), retry)
        try:
            result = dispatch(ctx)
        except WouldBlock as would_block:
            raise ProcessBlocked(
                would_block.wait, number, name, block_id, vm.pc,
                would_block.watch, would_block.stamp,
            ) from None
        vm.regs[0] = result
        if name in CAPABILITY_CALLS and block_id is not None:
            self._track_capability(process, vm, name, result, block_id)
        return self.costs.syscall_cost(name, ctx.transferred)

    def retry_blocked(self, task: Task) -> bool:
        """Re-run a parked task's blocked dispatch (never the trap — the
        verification already happened and advanced the counter).  On
        success the result lands in r0, the deferred verification cost
        is charged, and the PC advances past the trap; returns False if
        the wait condition still holds, after re-snapshotting what the
        call now waits on."""
        blocked = task.blocked
        vm = task.vm
        try:
            cost = self._dispatch(
                vm, task.process, blocked.number, blocked.block_id, retry=True
            )
        except ProcessBlocked as again:
            blocked.watch = again.watch
            blocked.stamp = again.stamp
            return False
        vm.cycles += cost + blocked.auth_cycles
        vm.pc = blocked.trap_pc + INSTRUCTION_SIZE
        task.blocked = None
        return True

    def allocate_pipe_ident(self) -> int:
        self._next_pipe_ident += 1
        return self._next_pipe_ident

    def _track_capability(
        self, process: Process, vm: VM, name: str, result: int, block_id: int
    ) -> None:
        """§5.3 bookkeeping on every authenticated dispatch of a
        :data:`CAPABILITY_CALLS` call: a successful close revokes the
        fd, and an fd a producer returns belongs to the producing
        site's block from then on, whichever site held its number
        before (``dup2`` onto an open fd closes and reuses it)."""
        table = process.capabilities
        if SYSCALLS[name].fd_effect is FdEffect.REVOKES:
            if result == 0:
                table.revoke(vm.regs[1])
        elif result < 0x8000_0000:
            table.revoke(result)
            table.grant(block_id, result)

    def capability_table(self, vm: VM) -> CapabilityTable:
        return self._vm_process[id(vm)].capabilities

    def _kill(self, vm: VM, process: Process, syscall: str, reason: str) -> None:
        self.audit.record(
            AuditEvent(
                kind="killed",
                pid=process.pid,
                program=process.name,
                syscall=syscall,
                reason=reason,
                call_site=vm.pc,
            )
        )
        raise ProcessExit(KILL_STATUS, killed=True, reason=reason)

    # -- services used by syscall handlers -----------------------------------

    def current_time(self, vm: VM) -> int:
        return EPOCH + vm.cycles // CYCLES_PER_SECOND

    def current_timeofday(self, vm: VM) -> tuple[int, int]:
        seconds = EPOCH + vm.cycles // CYCLES_PER_SECOND
        micros = (vm.cycles % CYCLES_PER_SECOND) * 1_000_000 // CYCLES_PER_SECOND
        return seconds, micros

    # -- execve ----------------------------------------------------------------

    def register_binary(self, path: str, binary: SefBinary) -> None:
        """Install a program file into the VFS so execve can find it."""
        self.vfs.write_file(path, binary.to_bytes())
        self.vfs.chmod(path, 0o755)

    def _resolve_executable(
        self, process: Process, path: str, syscall: str = "execve"
    ) -> tuple[SefBinary, LoadedImage]:
        """Read and validate an executable for execve/spawn: must parse
        and link as a SEF binary (else ``EACCES``, before anything is
        mapped), and enforcing mode refuses unauthenticated images
        (audited)."""
        data = self.vfs.read_file(path, cwd=process.cwd)
        try:
            binary = SefBinary.from_bytes(bytes(data))
            image = link(binary)
        except BinaryFormatError:
            raise VfsError(Errno.EACCES, path) from None
        if self.mode is EnforcementMode.ENFORCE and binary.metadata.get(
            "authenticated"
        ) != "yes":
            self.audit.record(
                AuditEvent(
                    kind="blocked",
                    pid=process.pid,
                    program=process.name,
                    syscall=syscall,
                    reason=f"refusing unauthenticated binary {path}",
                )
            )
            raise VfsError(Errno.EPERM, path)
        return binary, image

    # -- multiprogramming services ------------------------------------------

    def _room_for_task(self) -> Scheduler:
        """The running scheduler, if it may hold one more task; at
        :data:`MAX_TASKS` fork and spawn fail with ``EAGAIN``."""
        scheduler = self._scheduler
        if len(scheduler.tasks) >= MAX_TASKS:
            raise VfsError(Errno.EAGAIN)
        return scheduler

    def exec_replace(self, ctx: SyscallContext, path: str, argv=None) -> None:
        """In-place execve: restart the calling process on a fresh VM
        over the new image (same pid, fds and output streams).  Raises
        :class:`ImageReplaced` on success (execve does not return)."""
        old_vm = ctx.vm
        binary, image = self._resolve_executable(ctx.process, path)
        self._vm_process.pop(id(old_vm), None)
        new_vm = self._start_image(ctx.process, binary, image, argv)
        self._fold_vm_tallies(old_vm)
        # Accounting continuity: the scheduler's slice bookkeeping and
        # the guest-visible clock see one uninterrupted process.
        new_vm.cycles = old_vm.cycles
        new_vm.instructions_executed = old_vm.instructions_executed
        new_vm.syscall_count = old_vm.syscall_count
        raise ImageReplaced(new_vm, path)

    def fork_process(self, ctx: SyscallContext) -> int:
        """Real fork.

        The address space is duplicated copy-on-reference: read-only
        regions (code, rodata — including the image's MACed policy
        records) are shared by reference; writable regions (stack,
        heap, .data, and crucially the ``.polstate`` lastBlock/lbMAC
        section) are copied.  The child inherits the parent's
        ``auth_counter``, which is consistent with the copied polstate
        because the §3.4 checker re-MACed it *before* this handler ran
        — from here on the two processes' counters diverge
        independently, which is exactly the per-process isolation the
        paper's §3.2 checker provides."""
        scheduler = self._room_for_task()
        parent = ctx.process
        parent_vm = ctx.vm
        child_vm = VM(
            memory=fork_address_space(parent_vm.memory),
            entry=parent_vm.pc,
            trap_handler=self,
            nx=self.nx,
            engine=self.engine,
            recorder=self.obs,
            map_stack=False,  # the copied image already contains [stack]
        )
        child_vm.regs[:] = parent_vm.regs
        child_vm.flag_zero = parent_vm.flag_zero
        child_vm.flag_neg = parent_vm.flag_neg
        child_vm.cycles = parent_vm.cycles
        child_vm.instructions_executed = parent_vm.instructions_executed
        child_vm.syscall_count = parent_vm.syscall_count
        child_vm.pc = parent_vm.pc + INSTRUCTION_SIZE  # resume past the trap
        child_vm.regs[0] = 0  # fork() returns 0 in the child
        parent_caps = parent.capabilities
        child = Process(
            pid=self._allocate_pid(),
            name=parent.name,
            cwd=parent.cwd,
            fds={fd: desc.dup() for fd, desc in parent.fds.items()},
            brk=parent.brk,
            initial_brk=parent.initial_brk,
            auth_counter=parent.auth_counter,
            authenticated=parent.authenticated,
            stdin=parent.stdin,
            stdin_offset=parent.stdin_offset,
            signal_handlers=dict(parent.signal_handlers),
            capabilities=CapabilityTable(
                by_site={site: set(fds) for site, fds in parent_caps.by_site.items()},
                owner=dict(parent_caps.owner),
            ),
            mmap_cursor=parent.mmap_cursor,
            mmap_bytes=parent.mmap_bytes,
            # A fresh partition: the child's starts empty and a
            # sibling's compiled verifier is never consulted, so a
            # cross-process thunk-poisoning angle does not exist by
            # construction (tested).
            jit=self._new_jit() if self.fastpath else None,
        )
        self._vm_process[id(child_vm)] = child
        scheduler.adopt(child, child_vm, parent_pid=parent.pid)
        self.metrics.inc("sched.forks")
        return child.pid

    def spawn_process(self, ctx: SyscallContext, path: str, argv=None) -> int:
        """Asynchronous spawn: load the target as a child task and
        return its pid immediately (the caller collects it with wait4).
        The child's console output goes to its parent's stdout and
        stderr."""
        scheduler = self._room_for_task()
        parent = ctx.process
        binary, image = self._resolve_executable(parent, path, syscall="spawn")
        process, vm = self._load_image(binary, image, argv or None, b"", parent.cwd)
        process.stdout = parent.stdout
        process.stderr = parent.stderr
        scheduler.adopt(process, vm, parent_pid=parent.pid)
        self.metrics.inc("sched.spawns")
        return process.pid
