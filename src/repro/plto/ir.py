"""The intermediate representation shared by all PLTO passes.

An :class:`IrUnit` is a mutable, symbolic view of one binary's code:
instruction immediates that carried relocations are restored to
:class:`repro.isa.SymbolRef` form, and label names are attached to the
instructions they address.  Because nothing in the IR is an absolute
offset, passes may insert or delete instructions freely; the layout
step (:func:`repro.plto.disasm.reassemble`) re-derives offsets,
symbols, and relocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.binfmt import SefBinary
from repro.isa import Instruction


class DisassemblyError(ValueError):
    """The binary cannot be lifted (PLTO's 'cannot disassemble' case).

    PLTO "always reports when it cannot completely disassemble a
    binary, so that the administrator would always be aware of such a
    problem" (§4.2) — hence an exception, never a silent skip."""


@dataclass
class IrInsn:
    """One instruction plus the labels that point at it."""

    instruction: Instruction
    labels: list[str] = field(default_factory=list)
    #: Offset in the *original* binary; None for inserted instructions.
    original_offset: Optional[int] = None

    def __str__(self) -> str:
        prefix = "".join(f"{label}: " for label in self.labels)
        return f"{prefix}{self.instruction}"


@dataclass
class IrUnit:
    """A whole program lifted to IR.

    ``binary`` retains the original SEF object for access to data
    sections, non-code symbols, and metadata; the ``.text`` contents of
    ``binary`` are considered stale while the IR exists."""

    insns: list[IrInsn]
    binary: SefBinary

    def label_index(self) -> dict[str, int]:
        """Label name -> instruction index, rebuilt from ``insns`` on
        every call.  The unit keeps no index, because passes edit
        ``insns`` directly and a kept one would go stale; a pass that
        looks up many labels builds this once and reads it."""
        index: dict[str, int] = {}
        for position, insn in enumerate(self.insns):
            for label in insn.labels:
                index[label] = position
        return index

    def find_label(self, name: str) -> int:
        """One label's index (builds the whole index: not for loops)."""
        try:
            return self.label_index()[name]
        except KeyError:
            raise KeyError(f"no label {name!r} in IR") from None

    def insert(self, position: int, insns: list[IrInsn]) -> None:
        """Insert instructions *before* ``position``, moving any labels
        of the displaced instruction onto the first inserted one so
        branches to that point still reach the inserted sequence."""
        if not insns:
            return
        if position < len(self.insns):
            displaced = self.insns[position]
            insns[0].labels = displaced.labels + insns[0].labels
            displaced.labels = []
        self.insns[position:position] = insns

    def replace(self, position: int, insns: list[IrInsn]) -> None:
        """Replace the instruction at ``position`` with a sequence,
        keeping its labels on the first replacement instruction."""
        if not insns:
            raise ValueError("cannot replace an instruction with nothing")
        insns[0].labels = self.insns[position].labels + insns[0].labels
        self.insns[position : position + 1] = insns

    def __len__(self) -> int:
        return len(self.insns)
