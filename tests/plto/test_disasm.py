"""Disassembly and reassembly: the lift/lower round trip."""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.isa import Instruction, SymbolRef
from repro.isa.opcodes import Op
from repro.plto import DisassemblyError, disassemble, reassemble
from repro.plto.ir import IrInsn

SOURCE = """
.section .text
.global _start
_start:
    li r1, msg
    li r2, 10
    call helper
    halt
helper:
    add r1, r1, r2
    ret
.section .rodata
msg:
    .asciz "0123456789"
.section .data
ptr:
    .word helper
"""


class TestDisassemble:
    def test_instruction_count(self):
        unit = disassemble(assemble(SOURCE))
        assert len(unit) == 6

    def test_symbols_restored(self):
        unit = disassemble(assemble(SOURCE))
        first = unit.insns[0].instruction
        assert first.imm == SymbolRef("msg")
        call = unit.insns[2].instruction
        assert call.imm == SymbolRef("helper")

    def test_labels_attached(self):
        unit = disassemble(assemble(SOURCE))
        assert unit.insns[0].labels == ["_start"]
        assert unit.insns[4].labels == ["helper"]

    def test_non_symbolic_imm_kept(self):
        unit = disassemble(assemble(SOURCE))
        assert unit.insns[1].instruction.imm == 10

    def test_ragged_text_rejected(self):
        binary = assemble(SOURCE)
        binary.sections[".text"].data.extend(b"\x00\x00")
        with pytest.raises(DisassemblyError):
            disassemble(binary)

    def test_undisassemblable_marker_respected(self):
        binary = assemble(SOURCE, metadata={"undisassemblable": "weird close"})
        with pytest.raises(DisassemblyError):
            disassemble(binary)

    def test_relocation_on_opcode_without_immediate_rejected(self):
        # `li r1, msg` carries the first .text relocation; turn its
        # opcode into `and`, which has register fields only.
        binary = assemble(SOURCE)
        reloc = binary.relocations_for(".text")[4]
        assert reloc.symbol == "msg"
        binary.sections[".text"].data[0] = Op.AND
        with pytest.raises(
            DisassemblyError,
            match=r"relocation at \.text offset 0x4 targets and, which takes "
            "no immediate operand",
        ):
            disassemble(binary)


class TestReassemble:
    def test_identity_round_trip(self):
        binary = assemble(SOURCE)
        rebuilt = reassemble(disassemble(binary))
        assert rebuilt.sections[".text"].data == binary.sections[".text"].data
        assert rebuilt.symbols.keys() == binary.symbols.keys()
        assert link(rebuilt).entry == link(binary).entry

    def test_data_sections_copied_not_aliased(self):
        binary = assemble(SOURCE)
        rebuilt = reassemble(disassemble(binary))
        rebuilt.sections[".rodata"].data[0] = 0xFF
        assert binary.sections[".rodata"].data[0] != 0xFF

    def test_data_relocations_survive(self):
        binary = assemble(SOURCE)
        rebuilt = reassemble(disassemble(binary))
        image = link(rebuilt)
        helper = image.address_of("helper")
        data = image.segment(".data").data
        assert int.from_bytes(data[:4], "little") == helper

    def test_insertion_relocates_code(self):
        binary = assemble(SOURCE)
        unit = disassemble(binary)
        # Insert two NOPs before the CALL; the call target and the data
        # pointer must still resolve to `helper`'s *new* address.
        unit.insert(2, [IrInsn(Instruction(Op.NOP)), IrInsn(Instruction(Op.NOP))])
        image = link(reassemble(unit))
        helper = image.address_of("helper")
        assert helper == image.entry + 6 * 8  # shifted by 2 instructions
        call_imm = int.from_bytes(
            image.segment(".text").data[2 * 8 + 4 + 16 : 2 * 8 + 8 + 16], "little"
        )
        assert call_imm == helper

    def test_replace_keeps_labels(self):
        unit = disassemble(assemble(SOURCE))
        helper_index = unit.find_label("helper")
        unit.replace(helper_index, [IrInsn(Instruction(Op.NOP)),
                                    IrInsn(Instruction(Op.RET))])
        assert "helper" in unit.insns[helper_index].labels
        reassemble(unit).validate()

    def test_duplicate_label_rejected(self):
        unit = disassemble(assemble(SOURCE))
        unit.insns[3].labels.append("_start")
        with pytest.raises(DisassemblyError):
            reassemble(unit)

    def test_execution_equivalence_after_round_trip(self):
        from repro.kernel import Kernel

        source = """
.section .text
.global _start
_start:
    li r0, 1
    li r1, 42
    sys
"""
        binary = assemble(source)
        rebuilt = reassemble(disassemble(binary))
        assert Kernel().run(rebuilt).exit_status == 42

