"""Basic blocks and the control flow graph.

Leaders are: the first instruction, every labeled instruction (any
label may be a branch target), and every instruction following a
terminator.  Terminators are control transfers (branches, jumps,
calls, returns, halt) and — by design — the trap instructions: ending
a block at each ``SYS`` gives every system call its own basic block,
which is the identity the paper's policies use ("we approximate system
call locations by the basic block that contains the system call").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import Instruction, SymbolRef
from repro.isa.opcodes import CONDITIONAL_BRANCHES, ENDS_BLOCK, TRAPS, Op
from repro.plto.ir import IrUnit


class CfgError(ValueError):
    """Raised when control flow cannot be resolved statically."""


@dataclass
class BasicBlock:
    """Half-open instruction range [start, end) plus CFG edges."""

    index: int
    start: int
    end: int
    #: Intra-procedural successor block indices (fallthrough/branches).
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def terminator(self, unit: IrUnit) -> Instruction:
        return unit.insns[self.end - 1].instruction

    def __contains__(self, insn_index: int) -> bool:
        return self.start <= insn_index < self.end


@dataclass
class ControlFlowGraph:
    unit: IrUnit
    blocks: list[BasicBlock]
    #: insn index -> block index
    block_of: list[int]
    entry_block: int

    def syscall_blocks(self) -> list[int]:
        """Blocks whose terminator is a trap instruction."""
        found = []
        for block in self.blocks:
            if block.terminator(self.unit).op in TRAPS:
                found.append(block.index)
        return found

    def block_of_label(self, label: str) -> int:
        return self.block_of[self.unit.find_label(label)]


def _branch_target(unit: IrUnit, instruction: Instruction, labels: dict) -> int:
    ref = instruction.imm
    if not isinstance(ref, SymbolRef):
        raise CfgError(
            f"branch with non-symbolic target: {instruction} "
            "(rewriting requires label-based control flow)"
        )
    if ref.addend:
        raise CfgError(f"branch target with addend: {instruction}")
    if ref.symbol not in labels:
        raise CfgError(f"branch to non-code symbol {ref.symbol!r}")
    return labels[ref.symbol]


def build_cfg(unit: IrUnit) -> ControlFlowGraph:
    """Partition the IR into basic blocks and wire intra-proc edges."""
    if not unit.insns:
        raise CfgError("empty program")
    labels = unit.label_index()

    leaders = {0}
    for position, insn in enumerate(unit.insns):
        if insn.labels:
            leaders.add(position)
        op = insn.instruction.op
        if op in ENDS_BLOCK and position + 1 < len(unit.insns):
            leaders.add(position + 1)
        if op in CONDITIONAL_BRANCHES or op == Op.JMP:
            leaders.add(_branch_target(unit, insn.instruction, labels))
        elif op == Op.CALL:
            leaders.add(_branch_target(unit, insn.instruction, labels))

    ordered = sorted(leaders)
    blocks: list[BasicBlock] = []
    block_of = [0] * len(unit.insns)
    for index, start in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) else len(unit.insns)
        blocks.append(BasicBlock(index=index, start=start, end=end))
        for position in range(start, end):
            block_of[position] = index

    # Intra-procedural edges.
    for block in blocks:
        terminator = block.terminator(unit)
        op = terminator.op
        fallthrough = block.index + 1 if block.end < len(unit.insns) else None
        if op in CONDITIONAL_BRANCHES:
            target = block_of[_branch_target(unit, terminator, labels)]
            block.successors.append(target)
            if fallthrough is not None:
                block.successors.append(fallthrough)
        elif op == Op.JMP:
            block.successors.append(block_of[_branch_target(unit, terminator, labels)])
        elif op in (Op.RET, Op.HALT, Op.JR):
            pass  # no intra-proc successors (JR is treated as a return)
        elif op in (Op.CALL, Op.CALLR, Op.SYS, Op.ASYS):
            if fallthrough is not None:
                block.successors.append(fallthrough)
        else:  # plain fallthrough into the next leader
            if fallthrough is not None:
                block.successors.append(fallthrough)
        # Deduplicate while preserving order.
        seen: set[int] = set()
        block.successors = [
            s for s in block.successors if not (s in seen or seen.add(s))
        ]

    for block in blocks:
        for successor in block.successors:
            blocks[successor].predecessors.append(block.index)

    entry_symbol = unit.binary.entry
    if entry_symbol not in labels:
        raise CfgError(f"entry symbol {entry_symbol!r} is not in .text")
    entry_block = block_of[labels[entry_symbol]]

    return ControlFlowGraph(
        unit=unit, blocks=blocks, block_of=block_of, entry_block=entry_block
    )
