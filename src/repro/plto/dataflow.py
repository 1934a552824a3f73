"""Register constant propagation and syscall-argument classification.

This is the analysis §4.1 describes: "each system call site is
analyzed to determine the arguments of the call ... applying a
standard reaching definitions analysis from PLTO", classifying each
argument as **String** (address of a known string), **Immediate** (some
other known constant), or **Unknown**.

Two refinements feed Table 3's extension columns:

- *multi-value* (``mv``): an argument whose reaching constants form a
  small finite set (>1 element) rather than a single value;
- *fd provenance* (``fds``): an argument that is the preserved return
  value of an earlier fd-producing call (open/socket/dup/dup2/accept),
  the §5.3 capability-tracking candidates.

The lattice per register: ``BOTTOM`` (no path reaches here yet), a set
of up to :data:`MAX_VALUE_SET` known values (ints or symbol
references), ``FdFrom`` (return value of named syscall blocks), and
``TOP`` (unknown).  Calls clobber everything (callee-save conventions
are a compiler fiction our runtime does not promise); the kernel writes
only ``r0``, so a trap clobbers just the result register.

Constants fold by the machine's own semantics: an ALU op on known ints
calls the function :mod:`repro.isa.semantics` compiles from the same
text the engines run, so a folded argument is the value the kernel will
see in the register (§3.4 accepts the call only if they are equal).  A
zero divisor folds to unknown, because the machine faults there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional, Union

from repro.isa import SymbolRef
from repro.isa.opcodes import TRAPS, WRITES_FIRST_REG, Op
from repro.isa.semantics import ALU, ALU_BASE, DIVIDES, SHIFTS
from repro.kernel.syscalls import SYSCALLS, FdEffect
from repro.plto.callgraph import CallGraph

MAX_VALUE_SET = 4

#: Syscall numbers whose r0 is a new file descriptor (the table's
#: ``FdEffect.NEW_FD`` calls).
FD_PRODUCER_NUMBERS = frozenset(
    spec.number for spec in SYSCALLS.values() if spec.fd_effect is FdEffect.NEW_FD
)


@unique
class ArgClass(Enum):
    STRING = "string"
    IMMEDIATE = "immediate"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ArgValue:
    """Lattice value for one register at one program point."""

    kind: str  # "bottom" | "values" | "fd" | "top"
    values: frozenset = frozenset()  # ints and/or SymbolRefs
    fd_sites: frozenset = frozenset()  # producing block ids

    @classmethod
    def bottom(cls) -> "ArgValue":
        return _BOTTOM

    @classmethod
    def top(cls) -> "ArgValue":
        return _TOP

    @classmethod
    def const(cls, value: Union[int, SymbolRef]) -> "ArgValue":
        return cls(kind="values", values=frozenset({value}))

    @classmethod
    def fd_from(cls, block_id: int) -> "ArgValue":
        return cls(kind="fd", fd_sites=frozenset({block_id}))

    @property
    def is_single(self) -> bool:
        return self.kind == "values" and len(self.values) == 1

    @property
    def single(self) -> Union[int, SymbolRef]:
        (value,) = self.values
        return value

    @property
    def is_multi(self) -> bool:
        return self.kind == "values" and len(self.values) > 1

    @property
    def is_fd(self) -> bool:
        return self.kind == "fd"

    def join(self, other: "ArgValue") -> "ArgValue":
        if self.kind == "bottom":
            return other
        if other.kind == "bottom":
            return self
        if self.kind == "top" or other.kind == "top":
            return _TOP
        if self.kind == "fd" and other.kind == "fd":
            return ArgValue(kind="fd", fd_sites=self.fd_sites | other.fd_sites)
        if self.kind == "values" and other.kind == "values":
            merged = self.values | other.values
            if len(merged) <= MAX_VALUE_SET:
                return ArgValue(kind="values", values=merged)
            return _TOP
        return _TOP


_BOTTOM = ArgValue(kind="bottom")
_TOP = ArgValue(kind="top")

_State = tuple  # tuple of 16 ArgValues


def _initial_state(top: bool) -> _State:
    fill = _TOP if top else _BOTTOM
    return tuple([fill] * 16)


def _join_states(a: _State, b: _State) -> _State:
    return tuple(x.join(y) for x, y in zip(a, b))


def _eval_binop(op: Op, a: ArgValue, b: ArgValue) -> ArgValue:
    """Constant-fold register ALU op ``op`` when both sides are single
    known values, by the machine's own semantics (the table the
    interpreter and the engines run); a symbol plus or minus a known
    int stays symbolic."""
    if not (a.is_single and b.is_single):
        return _TOP
    left, right = a.single, b.single
    if isinstance(left, SymbolRef) and isinstance(right, int):
        if op == Op.ADD:
            return ArgValue.const(SymbolRef(left.symbol, left.addend + right))
        if op == Op.SUB:
            return ArgValue.const(SymbolRef(left.symbol, left.addend - right))
        return _TOP
    if isinstance(left, int) and isinstance(right, SymbolRef) and op == Op.ADD:
        return ArgValue.const(SymbolRef(right.symbol, right.addend + left))
    if not (isinstance(left, int) and isinstance(right, int)):
        return _TOP
    if op in SHIFTS:
        right &= 31
    elif right == 0 and op in DIVIDES:
        return _TOP  # the machine faults here; no value reaches a later use
    return ArgValue.const(ALU[op](left, right))


@dataclass
class SyscallSite:
    """Analysis result for one trap site (keyed by CFG block index)."""

    block_index: int
    insn_index: int
    number: Optional[int]  # syscall number when statically known
    args: tuple[ArgValue, ...]  # r1..r6 at the trap


def _immediate(imm) -> ArgValue:
    return ArgValue.const(imm if isinstance(imm, SymbolRef) else imm & 0xFFFFFFFF)


def _transfer(state: _State, instruction, block_id: int) -> _State:
    regs = list(state)
    op = instruction.op
    if op == Op.LI:
        regs[instruction.regs[0]] = _immediate(instruction.imm)
    elif op == Op.MOV:
        regs[instruction.regs[0]] = regs[instruction.regs[1]]
    elif op in ALU_BASE:
        d, a = instruction.regs[:2]
        imm = instruction.imm
        rhs = regs[instruction.regs[2]] if imm is None else _immediate(imm)
        regs[d] = _eval_binop(ALU_BASE[op], regs[a], rhs)
    elif op in WRITES_FIRST_REG:  # loads, POP, RDTSC(H): unknown values
        regs[instruction.regs[0]] = _TOP
    elif op in (Op.CALL, Op.CALLR):
        # Callee may clobber any register.
        return _initial_state(top=True)
    elif op in TRAPS:
        number = regs[0]
        if number.is_single and isinstance(number.single, int) and (
            number.single in FD_PRODUCER_NUMBERS
        ):
            regs[0] = ArgValue.fd_from(block_id)
        else:
            regs[0] = _TOP
    # Stores, pushes, compares, and branches do not change registers.
    return tuple(regs)


def classify_syscall_args(graph: CallGraph) -> dict[int, SyscallSite]:
    """Run the analysis; returns {CFG block index -> SyscallSite}."""
    cfg = graph.cfg
    unit = cfg.unit

    in_states: dict[int, _State] = {
        block.index: _initial_state(top=False) for block in cfg.blocks
    }
    # Program entry and every function entry start fully unknown.
    in_states[cfg.entry_block] = _initial_state(top=True)
    worklist = [cfg.entry_block]
    for info in graph.functions.values():
        in_states[info.entry_block] = _initial_state(top=True)
        worklist.append(info.entry_block)

    sites: dict[int, SyscallSite] = {}
    iterations = 0
    limit = 50 * max(1, len(cfg.blocks))
    while worklist:
        iterations += 1
        if iterations > limit:
            raise RuntimeError("constant propagation failed to converge")
        current = worklist.pop()
        state = in_states[current]
        block = cfg.blocks[current]
        block_id = current + 1
        for position in range(block.start, block.end):
            instruction = unit.insns[position].instruction
            if instruction.op in TRAPS:
                number = state[0]
                sites[current] = SyscallSite(
                    block_index=current,
                    insn_index=position,
                    number=(
                        number.single
                        if number.is_single and isinstance(number.single, int)
                        else None
                    ),
                    args=tuple(state[1:7]),
                )
            state = _transfer(state, instruction, block_id)
        for successor in block.successors:
            joined = _join_states(in_states[successor], state)
            if joined != in_states[successor]:
                in_states[successor] = joined
                worklist.append(successor)
    return sites
