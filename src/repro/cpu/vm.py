"""The SVM32 interpreter.

Executes one process image with deterministic cycle accounting.  Trap
instructions (``SYS``/``ASYS``) suspend the guest and invoke a
:class:`TrapHandler` — the simulated kernel — which reads the register
file, performs the call (including all authenticated-system-call
checks), deposits the result in ``r0``, and reports the kernel cycles
consumed.

The 2005 x86 machines the paper measured had no NX protection, so by
default the VM will execute from any *readable* page ("nx=False");
enabling ``nx=True`` is available for the ablation that shows the §4.1
shellcode attack being stopped by page protection instead of by
authentication.

Two execution engines share the architectural state:

- ``interp`` — the reference interpreter: fetch, decode (through a
  write-version-gated decode cache), dispatch, one instruction at a
  time.
- ``threaded`` — a basic-block translation cache
  (:mod:`repro.cpu.threaded`): straight-line runs are compiled once
  into lists of pre-bound thunks and re-executed with one dispatch and
  batched cycle accounting.

Both engines are required to produce bit-identical architectural state
(registers, flags, memory, cycle counts, syscall counts, fault
PCs/messages, fail-stop reasons) on every program; the differential
fuzz suite enforces this.

What the computational ops compute (the ALU ops, compares and
conditional branches) is not the interpreter's own: its arms for them
read :mod:`repro.isa.semantics`, the one table the block thunks, the
superblock generator and the installer's constant folding read too.
Fetch, memory, stack, control transfer and traps are the interpreter's
own code, the reference the engine machinery is diffed against.  So
the differential tests check that machinery, and the computation is
checked against hand-written known answers
(``tests/isa/test_semantics.py``).
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.binfmt.image import STACK_SIZE, STACK_TOP
from repro.cpu.memory import Memory, MemoryFault, PROT_READ, PROT_WRITE, Region
from repro.isa import INSTRUCTION_SIZE, Instruction, decode_instruction
from repro.isa.encoding import EncodingError
from repro.isa.opcodes import Op
from repro.isa.registers import NUM_REGS, SP
from repro.isa.semantics import ALU, ALU_BASE, COMPARES, DIVIDES, SHIFTS, TAKEN, compare
from repro.obs import NULL_RECORDER, Recorder

_MASK = 0xFFFFFFFF

ENGINES = ("interp", "threaded")


class ExecutionFault(Exception):
    """CPU-level faults: bad opcode, divide by zero, NX violation..."""

    def __init__(self, pc: int, message: str):
        super().__init__(f"execution fault at {pc:#010x}: {message}")
        self.pc = pc


class ProcessExit(Exception):
    """Raised by the trap handler to terminate the guest.

    ``killed`` distinguishes a voluntary ``exit`` from a security
    termination (the fail-stop of a rejected system call)."""

    def __init__(self, status: int, killed: bool = False, reason: str = ""):
        super().__init__(reason or f"exit({status})")
        self.status = status
        self.killed = killed
        self.reason = reason


class TrapHandler(Protocol):
    """The kernel interface seen by the CPU."""

    def handle_trap(self, vm: "VM", authenticated: bool) -> int:
        """Service the trap; returns kernel cycles consumed.

        The handler reads arguments from ``vm.regs`` and writes the
        syscall result into ``vm.regs[0]``.  It may raise
        :class:`ProcessExit` to terminate the guest."""
        ...


class VM:
    """One guest CPU context."""

    def __init__(
        self,
        memory: Memory,
        entry: int,
        trap_handler: Optional[TrapHandler] = None,
        stack_size: int = STACK_SIZE,
        nx: bool = False,
        engine: str = "interp",
        recorder: Recorder = NULL_RECORDER,
        map_stack: bool = True,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown execution engine {engine!r}")
        self.engine = engine
        #: Observability hook shared with the kernel; the default
        #: NullRecorder singleton keeps guest execution span-free.
        self.recorder = recorder
        self.memory = memory
        self.regs = [0] * NUM_REGS
        self.pc = entry
        self.flag_zero = False
        self.flag_neg = False
        self.cycles = 0
        self.instructions_executed = 0
        self.syscall_count = 0
        self.trap_handler = trap_handler
        self.nx = nx
        self.exit_status: Optional[int] = None
        self.killed = False
        self.kill_reason = ""

        if map_stack:
            # A forked VM adopts a memory image whose stack (copied
            # from the parent) is already mapped; it passes
            # map_stack=False and inherits SP with the register file.
            memory.map_region(
                STACK_TOP - stack_size,
                stack_size,
                PROT_READ | PROT_WRITE,
                name="[stack]",
            )
            self.regs[SP] = STACK_TOP

        #: Decode cache: pc -> (region, region.version at decode time,
        #: decoded instruction).  Entries self-invalidate when the
        #: containing region's write-version counter advances, so a
        #: store never pays more than the write itself — the old
        #: per-store invalidation loop iterated every byte written.
        self._decode_cache: dict[int, tuple[Region, int, Instruction]] = {}
        #: Decode-cache entries dropped by a write-version guard miss;
        #: folded into the kernel's metrics registry after the run.
        self.decode_invalidations = 0
        #: Lazily built basic-block translation cache (threaded engine).
        self._block_cache = None

    # -- memory helpers --------------------------------------------------

    def store(self, address: int, data: bytes) -> None:
        """Guest-visible store.  Decode/translation caches are gated on
        ``Region.version`` (bumped by ``Memory.write``), so no explicit
        invalidation pass is needed."""
        self.memory.write(address, data)

    # -- fetch/decode ----------------------------------------------------

    def _fetch(self, pc: int) -> Instruction:
        cached = self._decode_cache.get(pc)
        if cached is not None:
            region, version, instruction = cached
            if region.version == version:
                return instruction
            self.decode_invalidations += 1
        if self.nx and not self.memory.executable(pc):
            raise ExecutionFault(pc, "NX violation: page not executable")
        try:
            raw = self.memory.read(pc, INSTRUCTION_SIZE)
        except MemoryFault as fault:
            raise ExecutionFault(pc, f"instruction fetch: {fault}") from fault
        try:
            instruction = decode_instruction(raw)
        except EncodingError as err:
            raise ExecutionFault(pc, f"illegal instruction: {err}") from err
        instruction.address = pc
        region = self.memory.region_at(pc)
        self._decode_cache[pc] = (region, region.version, instruction)
        return instruction

    # -- stack helpers ----------------------------------------------------

    def push(self, value: int) -> None:
        self.regs[SP] = (self.regs[SP] - 4) & _MASK
        self.memory.write_u32(self.regs[SP], value)

    def pop(self) -> int:
        value = self.memory.read_u32(self.regs[SP])
        self.regs[SP] = (self.regs[SP] + 4) & _MASK
        return value

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute one instruction; returns False when halted."""
        pc = self.pc
        instr = self._fetch(pc)
        op = instr.op
        regs = self.regs
        info = instr.info
        self.cycles += info.cycles
        self.instructions_executed += 1
        next_pc = pc + INSTRUCTION_SIZE

        if op == Op.NOP:
            pass
        elif op == Op.HALT:
            self.exit_status = regs[1] & _MASK
            return False
        elif op == Op.LI:
            regs[instr.regs[0]] = instr.imm & _MASK
        elif op == Op.MOV:
            regs[instr.regs[0]] = regs[instr.regs[1]]
        elif op in ALU_BASE:  # op rd, ra, rb or op rd, ra, imm
            base = ALU_BASE[op]
            fields = instr.regs
            b = regs[fields[2]] if instr.imm is None else instr.imm & _MASK
            if base in SHIFTS:
                b &= 31
            elif b == 0 and base in DIVIDES:
                raise ExecutionFault(pc, "division by zero")
            regs[fields[0]] = ALU[base](regs[fields[1]], b)
        elif op == Op.LD:
            address = (regs[instr.regs[1]] + instr.imm) & _MASK
            regs[instr.regs[0]] = self._read_u32(address, pc)
        elif op == Op.ST:
            address = (regs[instr.regs[1]] + instr.imm) & _MASK
            self._write_u32(address, regs[instr.regs[0]], pc)
        elif op == Op.LDB:
            address = (regs[instr.regs[1]] + instr.imm) & _MASK
            regs[instr.regs[0]] = self._read_u8(address, pc)
        elif op == Op.STB:
            address = (regs[instr.regs[1]] + instr.imm) & _MASK
            self._write_u8(address, regs[instr.regs[0]], pc)
        elif op == Op.PUSH:
            self._push_checked(regs[instr.regs[0]], pc)
        elif op == Op.POP:
            regs[instr.regs[0]] = self._pop_checked(pc)
        elif op in COMPARES:  # cmp ra, rb or cmpi ra, imm
            fields = instr.regs
            b = regs[fields[1]] if instr.imm is None else instr.imm & _MASK
            self.flag_zero, self.flag_neg = compare(regs[fields[0]], b)
        elif op in TAKEN:
            if TAKEN[op](self.flag_zero, self.flag_neg):
                next_pc = instr.imm & _MASK
        elif op == Op.JMP:
            next_pc = instr.imm & _MASK
        elif op == Op.JR:
            next_pc = regs[instr.regs[0]]
        elif op == Op.CALL:
            self._push_checked(next_pc, pc)
            next_pc = instr.imm & _MASK
        elif op == Op.CALLR:
            self._push_checked(next_pc, pc)
            next_pc = regs[instr.regs[0]]
        elif op == Op.RET:
            next_pc = self._pop_checked(pc)
        elif op in (Op.SYS, Op.ASYS):
            if self.trap_handler is None:
                raise ExecutionFault(pc, "trap with no kernel attached")
            self.syscall_count += 1
            kernel_cycles = self.trap_handler.handle_trap(self, op == Op.ASYS)
            self.cycles += kernel_cycles
        elif op == Op.RDTSC:
            regs[instr.regs[0]] = self.cycles & _MASK
        elif op == Op.RDTSCH:
            regs[instr.regs[0]] = (self.cycles >> 32) & _MASK
        elif op == Op.CPUWORK:
            self.cycles += instr.imm
        else:  # pragma: no cover - opcode table is exhaustive
            raise ExecutionFault(pc, f"unimplemented opcode {op!r}")

        self.pc = next_pc
        return True

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run to completion; returns the exit status.  Exhausting
        ``max_instructions`` first is an :class:`ExecutionFault`."""
        self.run_slice(max_instructions)
        if self.exit_status is None:
            raise ExecutionFault(self.pc, "instruction budget exhausted")
        return self.exit_status

    def run_slice(self, max_instructions: int) -> None:
        """Run for at most ``max_instructions``, returning on budget
        exhaustion (a scheduler's preemption) or process end.  The
        architectural state at a budget stop is exactly what the
        interpreter leaves after the same number of instructions, in
        every engine configuration.

        :class:`ProcessExit` raised by the kernel is absorbed here: a
        voluntary exit sets ``exit_status``; a security kill sets
        ``killed``/``kill_reason`` as well (fail-stop semantics).  The
        multiprogramming control transfers (``ProcessBlocked``,
        ``ImageReplaced``) propagate to the scheduler with the span
        stack rebalanced."""
        rec = self.recorder
        traced = rec.enabled
        if traced:
            # The root engine span: every verification span nests under
            # it, so its inclusive duration is the traced wall clock of
            # the slice and the per-stage self times partition it.
            span_depth = rec.open_spans
            rec.begin("execute", "engine")
        try:
            if self.engine == "threaded":
                from repro.cpu.threaded import BlockCache

                cache = self._block_cache
                if cache is None:
                    cache = self._block_cache = BlockCache(self)
                cache.run(max_instructions)
            else:
                budget = max_instructions
                while budget > 0:
                    if not self.step():
                        return
                    budget -= 1
        except ProcessExit as exit_info:
            self.exit_status = exit_info.status
            self.killed = exit_info.killed
            self.kill_reason = exit_info.reason
        finally:
            if traced:
                rec.close_to(span_depth)

    # -- internals -------------------------------------------------------

    def _read_u32(self, address: int, pc: int) -> int:
        try:
            return self.memory.read_u32(address)
        except MemoryFault as fault:
            raise ExecutionFault(pc, str(fault)) from fault

    def _write_u32(self, address: int, value: int, pc: int) -> None:
        try:
            self.memory.write_u32(address, value)
        except MemoryFault as fault:
            raise ExecutionFault(pc, str(fault)) from fault

    def _read_u8(self, address: int, pc: int) -> int:
        try:
            return self.memory.read_u8(address)
        except MemoryFault as fault:
            raise ExecutionFault(pc, str(fault)) from fault

    def _write_u8(self, address: int, value: int, pc: int) -> None:
        try:
            self.memory.write_u8(address, value)
        except MemoryFault as fault:
            raise ExecutionFault(pc, str(fault)) from fault

    def _push_checked(self, value: int, pc: int) -> None:
        try:
            self.push(value)
        except MemoryFault as fault:
            raise ExecutionFault(pc, f"stack overflow: {fault}") from fault

    def _pop_checked(self, pc: int) -> int:
        try:
            return self.pop()
        except MemoryFault as fault:
            raise ExecutionFault(pc, f"stack underflow: {fault}") from fault
