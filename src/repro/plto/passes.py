"""Baseline optimization passes.

§4.3 uses "unauthenticated binaries generated by PLTO rather than
simply gcc as the baseline, since PLTO itself applies certain
optimizations such as dead code elimination, basic block layout, and
instruction scheduling.  As a result, applying these optimizations in
both cases gives the most accurate representation of the actual cost
of an authenticated call."  Our equivalents are deliberately mild —
they only need to make the baseline and the installed binary
transformations symmetric:

- NOP removal (alignment padding and macro residue);
- dead-``LI`` elimination (an LI immediately overwritten by another LI
  of the same register with no intervening use or control flow).
"""

from __future__ import annotations

from repro.isa.opcodes import ENDS_BLOCK, OPCODE_INFO, TRAPS, WRITES_FIRST_REG, Op, OperandKind
from repro.plto.ir import IrUnit


def remove_nops(unit: IrUnit) -> int:
    """Delete NOPs, migrating their labels forward; returns count."""
    removed = 0
    position = 0
    while position < len(unit.insns):
        insn = unit.insns[position]
        if insn.instruction.op == Op.NOP and position + 1 < len(unit.insns):
            unit.insns[position + 1].labels = (
                insn.labels + unit.insns[position + 1].labels
            )
            del unit.insns[position]
            removed += 1
        else:
            position += 1
    return removed


def _reads(instruction) -> set[int]:
    """Registers read by an instruction (approximate, conservative)."""
    info = OPCODE_INFO[instruction.op]
    regs = list(instruction.regs)
    read: set[int] = set()
    reg_cursor = 0
    for slot, kind in enumerate(info.operands):
        if kind is OperandKind.REG:
            # First REG operand is the destination for value-producing
            # ops; everything else is a source.
            is_dest = slot == 0 and instruction.op in WRITES_FIRST_REG
            if not is_dest:
                read.add(regs[reg_cursor])
            reg_cursor += 1
        elif kind is OperandKind.MEM:
            read.add(regs[reg_cursor])
            reg_cursor += 1
    if instruction.op in TRAPS:
        read.update(range(9))  # r0..r8 are trap inputs
    return read


def remove_dead_li(unit: IrUnit) -> int:
    """Remove an LI whose target is rewritten by a later LI before any
    read, label, or control transfer.  Returns removals."""
    removed = 0
    position = 0
    while position < len(unit.insns):
        insn = unit.insns[position]
        if insn.instruction.op != Op.LI:
            position += 1
            continue
        target = insn.instruction.regs[0]
        cursor = position + 1
        dead = False
        while cursor < len(unit.insns):
            follower = unit.insns[cursor]
            if follower.labels:
                break
            op = follower.instruction.op
            if target in _reads(follower.instruction):
                break
            if op in ENDS_BLOCK:
                break
            if op == Op.LI and follower.instruction.regs[0] == target:
                dead = True
                break
            cursor += 1
        if dead:
            if position + 1 < len(unit.insns):
                unit.insns[position + 1].labels = (
                    insn.labels + unit.insns[position + 1].labels
                )
            del unit.insns[position]
            removed += 1
        else:
            position += 1
    return removed


def run_baseline_passes(unit: IrUnit) -> dict:
    """The standard pass pipeline both binary flavours go through."""
    return {
        "nops_removed": remove_nops(unit),
        "dead_li_removed": remove_dead_li(unit),
    }
