"""Instruction model and binary encoding tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import (
    INSTRUCTION_SIZE,
    Instruction,
    Op,
    OPCODE_INFO,
    SymbolRef,
    decode_instruction,
    encode_instruction,
)
from repro.isa.encoding import EncodingError
from repro.isa.opcodes import OperandKind
from repro.isa.registers import SP, register_name, register_number


class TestRegisters:
    def test_aliases(self):
        assert register_name(15) == "sp"
        assert register_number("sp") == 15
        assert register_number("SP") == 15

    def test_plain_names_round_trip(self):
        for n in range(13):
            assert register_number(register_name(n)) == n

    def test_bad_names(self):
        for bad in ("r16", "x1", "r-1", "", "r"):
            with pytest.raises(ValueError):
                register_number(bad)

    def test_bad_number(self):
        with pytest.raises(ValueError):
            register_name(16)


def _shape(info) -> tuple[int, bool]:
    """Register fields and immediate presence, read off the operand
    signature (a MEM operand is a base register plus a displacement)."""
    kinds = info.operands
    n_regs = sum(kind in (OperandKind.REG, OperandKind.MEM) for kind in kinds)
    has_imm = any(kind in (OperandKind.IMM, OperandKind.MEM) for kind in kinds)
    return n_regs, has_imm


def _shape_error(op, regs, imm) -> str:
    with pytest.raises(ValueError) as caught:
        Instruction(op, regs=regs, imm=imm)
    return str(caught.value)


class TestInstructionModel:
    def test_operand_arity_enforced(self):
        with pytest.raises(ValueError):
            Instruction(Op.ADD, regs=(1, 2))  # needs 3 registers
        for op, info in OPCODE_INFO.items():
            n_regs, has_imm = _shape(info)
            imm = 0 if has_imm else None
            Instruction(op, regs=(1,) * n_regs, imm=imm)  # well-formed
            for wrong in {n_regs - 1, n_regs + 1} - {-1}:
                assert _shape_error(op, (1,) * wrong, imm) == (
                    f"{info.mnemonic} expects {n_regs} register fields, got {wrong}"
                )

    def test_imm_required(self):
        with pytest.raises(ValueError):
            Instruction(Op.LI, regs=(1,))
        for op, info in OPCODE_INFO.items():
            n_regs, has_imm = _shape(info)
            if has_imm:
                assert _shape_error(op, (1,) * n_regs, None) == (
                    f"{info.mnemonic} requires an immediate operand"
                )

    def test_imm_rejected_when_absent(self):
        with pytest.raises(ValueError):
            Instruction(Op.RET, imm=5)
        for op, info in OPCODE_INFO.items():
            n_regs, has_imm = _shape(info)
            if not has_imm:
                assert _shape_error(op, (1,) * n_regs, 5) == (
                    f"{info.mnemonic} takes no immediate operand"
                )
                assert _shape_error(op, (1,) * n_regs, SymbolRef("f")) == (
                    f"{info.mnemonic} takes no immediate operand"
                )

    def test_symbolic_flag(self):
        instr = Instruction(Op.LI, regs=(1,), imm=SymbolRef("msg", 4))
        assert instr.is_symbolic
        assert not Instruction(Op.LI, regs=(1,), imm=7).is_symbolic

    def test_resolved_replaces_symbol(self):
        instr = Instruction(Op.CALL, imm=SymbolRef("f"))
        assert instr.resolved(0x8048010).imm == 0x8048010

    def test_str_rendering(self):
        assert str(Instruction(Op.LD, regs=(1, SP), imm=4)) == "ld r1, [sp+4]"
        assert str(Instruction(Op.SYS)) == "sys"
        assert str(Instruction(Op.LI, regs=(2,), imm=SymbolRef("msg"))) == "li r2, msg"


class TestEncoding:
    def test_round_trip_simple(self):
        instr = Instruction(Op.ADDI, regs=(1, 2), imm=300)
        assert decode_instruction(encode_instruction(instr)) == instr

    def test_size(self):
        assert len(encode_instruction(Instruction(Op.NOP))) == INSTRUCTION_SIZE

    def test_negative_imm_wraps(self):
        instr = Instruction(Op.ADDI, regs=(15, 15), imm=-8)
        decoded = decode_instruction(encode_instruction(instr))
        assert decoded.imm == 0xFFFFFFF8

    def test_symbolic_imm_rejected(self):
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Op.LI, regs=(0,), imm=SymbolRef("x")))

    def test_unknown_opcode_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(b"\xff" + bytes(7))

    def test_truncated_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(bytes(4))

    def test_decode_at_offset(self):
        blob = encode_instruction(Instruction(Op.NOP)) + encode_instruction(
            Instruction(Op.HALT)
        )
        assert decode_instruction(blob, 8).op == Op.HALT


def _instruction_strategy():
    def build(op, regs, imm):
        info = OPCODE_INFO[op]
        n_regs = sum(
            1 for k in info.operands if k in (OperandKind.REG, OperandKind.MEM)
        )
        has_imm = any(
            k in (OperandKind.IMM, OperandKind.MEM) for k in info.operands
        )
        return Instruction(op, tuple(regs[:n_regs]), imm if has_imm else None)

    return st.builds(
        build,
        op=st.sampled_from(list(Op)),
        regs=st.lists(
            st.integers(min_value=0, max_value=15), min_size=3, max_size=3
        ),
        imm=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )


class TestEncodingProperties:
    @given(instr=_instruction_strategy())
    def test_encode_decode_round_trip(self, instr):
        assert decode_instruction(encode_instruction(instr)) == instr

    @given(instr=_instruction_strategy())
    def test_fixed_width(self, instr):
        assert len(encode_instruction(instr)) == INSTRUCTION_SIZE
