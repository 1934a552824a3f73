"""Instruction objects: the unit shared by assembler, VM, and rewriter.

An :class:`Instruction` stores its register fields and a single
immediate operand.  The immediate may be a concrete 32-bit value or a
:class:`SymbolRef` (symbol plus addend).  Keeping immediates symbolic
until final layout is what makes PLTO-style rewriting possible: the
installer can insert instructions into a basic block and the layout
engine re-resolves every address afterwards, exactly as PLTO relies on
relocatable binaries to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.isa.opcodes import OPCODE_INFO, Op, OperandKind
from repro.isa.registers import register_name


@dataclass(frozen=True)
class SymbolRef:
    """A symbolic immediate: the address of ``symbol`` plus ``addend``."""

    symbol: str
    addend: int = 0

    def __str__(self) -> str:
        if self.addend:
            sign = "+" if self.addend > 0 else "-"
            return f"{self.symbol}{sign}{abs(self.addend)}"
        return self.symbol


Immediate = Union[int, SymbolRef]

#: Opcode -> ``(register field count, has immediate)``, derived once
#: from the operand signatures: a ``MEM`` operand is a base register
#: plus the immediate displacement.
OPERAND_SHAPE: dict[Op, tuple[int, bool]] = {
    op: (
        sum(1 for kind in info.operands if kind in (OperandKind.REG, OperandKind.MEM)),
        any(kind in (OperandKind.IMM, OperandKind.MEM) for kind in info.operands),
    )
    for op, info in OPCODE_INFO.items()
}


@dataclass
class Instruction:
    """One SVM32 instruction.

    ``regs`` holds the register fields in operand order (for a ``MEM``
    operand, the base register occupies one entry and the displacement
    shares the ``imm`` field).  ``imm`` is ``None`` when the opcode has
    no immediate operand.
    """

    op: Op
    regs: tuple[int, ...] = ()
    imm: Optional[Immediate] = None
    # Populated by the disassembler / layout engine; not part of equality.
    address: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        expected_regs, has_imm = OPERAND_SHAPE[self.op]
        if len(self.regs) != expected_regs:
            problem = f"expects {expected_regs} register fields, got {len(self.regs)}"
        elif has_imm and self.imm is None:
            problem = "requires an immediate operand"
        elif not has_imm and self.imm is not None:
            problem = "takes no immediate operand"
        else:
            return
        raise ValueError(f"{OPCODE_INFO[self.op].mnemonic} {problem}")

    def __copy__(self) -> "Instruction":
        # What copy.copy does by default, without its reduce protocol
        # (stub inlining copies every inlined instruction).
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    @property
    def info(self):
        return OPCODE_INFO[self.op]

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.imm, SymbolRef)

    def resolved(self, value: int) -> "Instruction":
        """Return a copy with the symbolic immediate replaced by ``value``."""
        return Instruction(self.op, self.regs, value & 0xFFFFFFFF, address=self.address)

    def __str__(self) -> str:
        info = self.info
        parts = []
        reg_index = 0
        for kind in info.operands:
            if kind is OperandKind.REG:
                parts.append(register_name(self.regs[reg_index]))
                reg_index += 1
            elif kind is OperandKind.IMM:
                parts.append(str(self.imm))
            else:  # MEM
                base = register_name(self.regs[reg_index])
                reg_index += 1
                parts.append(f"[{base}+{self.imm}]")
        operand_text = ", ".join(parts)
        return f"{info.mnemonic} {operand_text}".strip()
