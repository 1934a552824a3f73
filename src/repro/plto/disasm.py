"""Lifting binaries to IR and writing IR back to binaries.

``disassemble`` inverts the assembler: fixed-width decoding plus the
relocation table reconstruct a fully symbolic instruction list.  The
binary must be relocatable — a stripped binary (no relocations) raises
:class:`DisassemblyError`, inheriting PLTO's documented requirement.

``reassemble`` is the layout engine: it assigns fresh offsets, rebuilds
``.text`` bytes, re-derives every code symbol and relocation, and
copies the data sections and metadata into a new SEF binary.
"""

from __future__ import annotations

from repro.binfmt import Relocation, SefBinary, Section
from repro.binfmt.symbols import Symbol
from repro.isa import (
    INSTRUCTION_SIZE,
    SymbolRef,
    decode_instruction,
    encode_instruction,
)
from repro.isa.encoding import EncodingError, IMM_OFFSET
from repro.plto.ir import DisassemblyError, IrInsn, IrUnit


def disassemble(binary: SefBinary) -> IrUnit:
    """Lift ``binary``'s ``.text`` into an :class:`IrUnit`."""
    binary.validate()
    text = binary.section(".text")
    if text.size % INSTRUCTION_SIZE:
        raise DisassemblyError(
            f".text size {text.size} is not a whole number of instructions"
        )
    if binary.metadata.get("undisassemblable"):
        # The OpenBSD personality plants this marker on functions PLTO
        # cannot decode (the paper's `close` case, §4.2).
        raise DisassemblyError(
            "binary contains constructs the disassembler cannot decode: "
            + binary.metadata["undisassemblable"]
        )

    relocations = binary.relocations_for(".text")
    labels_by_offset: dict[int, list[str]] = {}
    for name, symbol in binary.symbols.items():
        if symbol.section == ".text":
            labels_by_offset.setdefault(symbol.offset, []).append(name)

    insns: list[IrInsn] = []
    data = bytes(text.data)
    for offset in range(0, text.size, INSTRUCTION_SIZE):
        try:
            instruction = decode_instruction(data, offset)
        except EncodingError as err:
            raise DisassemblyError(str(err)) from err
        reloc = relocations.get(offset + IMM_OFFSET)
        if reloc is not None:
            if instruction.imm is None:
                # Assigned after construction, so no shape check would
                # catch it before layout.
                raise DisassemblyError(
                    f"relocation at .text offset {offset + IMM_OFFSET:#x} "
                    f"targets {instruction.info.mnemonic}, which takes no "
                    "immediate operand"
                )
            instruction.imm = SymbolRef(reloc.symbol, reloc.addend)
        labels = sorted(labels_by_offset.get(offset, []))
        insns.append(
            IrInsn(instruction=instruction, labels=labels, original_offset=offset)
        )
    # Symbols at unaligned .text offsets would be lost; refuse them.
    for offset in labels_by_offset:
        if offset % INSTRUCTION_SIZE and offset != text.size:
            raise DisassemblyError(
                f"symbol at unaligned .text offset {offset:#x}"
            )
    return IrUnit(insns=insns, binary=binary)


def reassemble(unit: IrUnit) -> SefBinary:
    """Lay the IR back out into a fresh SEF binary."""
    source = unit.binary
    out = SefBinary(entry=source.entry)
    out.metadata = dict(source.metadata)

    text = out.add_section(Section.named(".text"))
    label_offsets: dict[str, int] = {}
    encoded = bytearray()
    new_relocations: list[Relocation] = []

    for index, insn in enumerate(unit.insns):
        offset = index * INSTRUCTION_SIZE
        for label in insn.labels:
            if label in label_offsets:
                raise DisassemblyError(f"duplicate label {label!r} in IR")
            label_offsets[label] = offset
        instruction = insn.instruction
        if instruction.is_symbolic:
            ref = instruction.imm
            assert isinstance(ref, SymbolRef)
            new_relocations.append(
                Relocation(".text", offset + IMM_OFFSET, ref.symbol, ref.addend)
            )
            encoded += encode_instruction(instruction.resolved(0))
        else:
            encoded += encode_instruction(instruction)
    text.data = encoded

    # Copy non-text sections verbatim (same object identity is avoided
    # so further edits to the source binary do not alias).
    for name, section in source.sections.items():
        if name == ".text":
            continue
        out.add_section(
            Section(
                name=name,
                flags=section.flags,
                data=bytearray(section.data),
                nobits=section.nobits,
                reserve=section.reserve,
                align=section.align,
            )
        )

    # Symbols: .text symbols get their new offsets; others copy through.
    for name, symbol in source.symbols.items():
        if symbol.section == ".text":
            if name not in label_offsets:
                raise DisassemblyError(
                    f"symbol {name!r} lost during rewriting (no label)"
                )
            out.symbols[name] = Symbol(
                name, ".text", label_offsets[name], symbol.binding
            )
        else:
            out.symbols[name] = symbol
    # Labels created during rewriting that were not original symbols.
    for label, offset in label_offsets.items():
        if label not in out.symbols:
            out.symbols[label] = Symbol(label, ".text", offset)

    for reloc in new_relocations:
        out.add_relocation(reloc)
    for reloc in source.relocations:
        if reloc.section != ".text":
            out.add_relocation(reloc)

    out.validate()
    return out
