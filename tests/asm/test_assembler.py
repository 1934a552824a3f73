"""Assembler tests: parsing, symbol/relocation emission, directives."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import AsmError, AsmSyntaxError, assemble, parse
from repro.asm.parser import (
    RegOperand,
    _parse_operand,
    _split_operands,
    _strip_comment,
    parse_value,
)
from repro.binfmt import link
from repro.isa import INSTRUCTION_SIZE, Op, decode_instruction
from repro.isa.registers import register_number

HELLO = """
.equ SYS_write, 4
.section .text
.global _start
_start:
    li r0, SYS_write
    li r1, 1
    li r2, msg
    li r3, 6
    sys
    halt
.section .rodata
msg:
    .asciz "hello\\n"
"""


class TestParse:
    def test_label_and_instruction_same_line(self):
        stmts = parse("loop: addi r1, r1, 1")
        assert stmts[0].name == "loop"
        assert stmts[1].op == Op.ADDI

    def test_comments_stripped(self):
        stmts = parse("nop ; trailing\n# full line\nhalt")
        assert len(stmts) == 2

    def test_semicolon_inside_string_kept(self):
        stmts = parse('.asciz "a;b"')
        assert stmts[0].args[0] == b"a;b"

    def test_char_literal(self):
        stmts = parse("cmpi r1, 'a'")
        assert stmts[0].operands[1].addend == ord("a")

    def test_escape_in_string(self):
        stmts = parse('.asciz "a\\tb\\n"')
        assert stmts[0].args[0] == b"a\tb\n"

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmSyntaxError):
            parse("frobnicate r1")

    def test_unknown_directive(self):
        with pytest.raises(AsmSyntaxError):
            parse(".frob 12")

    def test_memory_operand_forms(self):
        stmts = parse("ld r1, [sp+8]\nld r2, [sp-4]\nld r3, [r4]")
        assert stmts[0].operands[1].addend == 8
        assert stmts[1].operands[1].addend == -4
        assert stmts[2].operands[1].base == 4

    def test_symbolic_displacement(self):
        stmts = parse("ld r1, [r2+table]")
        assert stmts[0].operands[1].symbol == "table"


class TestAssemble:
    def test_hello_structure(self):
        binary = assemble(HELLO)
        text = binary.sections[".text"]
        assert text.size == 6 * INSTRUCTION_SIZE
        assert binary.symbols["msg"].section == ".rodata"
        assert binary.symbols["_start"].binding == "global"
        # exactly one relocation: the li r2, msg
        assert len(binary.relocations) == 1
        assert binary.relocations[0].symbol == "msg"
        assert binary.relocations[0].offset == 2 * INSTRUCTION_SIZE + 4

    def test_equ_resolution(self):
        binary = assemble(HELLO)
        first = decode_instruction(bytes(binary.sections[".text"].data), 0)
        assert first.op == Op.LI
        assert first.imm == 4

    def test_equ_chains(self):
        binary = assemble(
            ".equ A, 5\n.equ B, A+2\n.section .text\n_start: li r0, B\nhalt"
        )
        first = decode_instruction(bytes(binary.sections[".text"].data), 0)
        assert first.imm == 7

    def test_equ_forward_reference_rejected(self):
        with pytest.raises(AsmError):
            assemble(".equ B, A+1\n.equ A, 1\n.section .text\n_start: halt")

    def test_word_with_symbol_emits_relocation(self):
        binary = assemble(
            ".section .text\n_start: halt\n.section .data\nptr: .word _start"
        )
        relocs = binary.relocations_for(".data")
        assert 0 in relocs and relocs[0].symbol == "_start"

    def test_negative_immediate(self):
        binary = assemble(".section .text\n_start: addi sp, sp, -16\nhalt")
        first = decode_instruction(bytes(binary.sections[".text"].data), 0)
        assert first.imm == 0xFFFFFFF0

    def test_bss_space(self):
        binary = assemble(
            ".section .text\n_start: halt\n.section .bss\nbuf: .space 256"
        )
        assert binary.sections[".bss"].reserve == 256
        assert binary.symbols["buf"].offset == 0

    def test_data_in_bss_rejected(self):
        with pytest.raises(AsmError):
            assemble(".section .text\n_start: halt\n.section .bss\n.word 5")

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AsmError):
            assemble(".section .data\n_start: nop")

    def test_align_pads(self):
        binary = assemble(
            ".section .text\n_start: halt\n"
            ".section .data\n.byte 1\n.align 8\nhere: .word 2"
        )
        assert binary.symbols["here"].offset == 8

    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmError):
            assemble(".section .text\n_start: nop\n_start: halt")

    def test_wrong_operand_count(self):
        with pytest.raises(AsmError):
            assemble(".section .text\n_start: add r1, r2")

    def test_wrong_operand_kind(self):
        with pytest.raises(AsmError):
            assemble(".section .text\n_start: li 5, r1")

    def test_undefined_symbol_caught_at_validate(self):
        with pytest.raises(Exception):
            assemble(".section .text\n_start: jmp nowhere")

    def test_branch_relocation_round_trip_through_link(self):
        binary = assemble(
            ".section .text\n_start: jmp target\nnop\ntarget: halt"
        )
        image = link(binary)
        (imm,) = struct.unpack_from("<I", image.segment(".text").data, 4)
        assert imm == image.address_of("target")
        assert image.address_of("target") == image.entry + 2 * INSTRUCTION_SIZE

    def test_metadata_attached(self):
        binary = assemble(HELLO, metadata={"program": "hello"})
        assert binary.metadata["program"] == "hello"


# The character loops the parser ran on every line before its
# quote-free fast paths; the fast paths must agree with them on every
# text, quotes or not.
def _reference_strip_comment(line: str) -> str:
    out = []
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_string = not in_string
        if not in_string and ch in ";#":
            break
        out.append(ch)
        i += 1
    return "".join(out).strip()


def _reference_split_operands(text: str, line_no: int) -> list[str]:
    parts, current, in_string = [], [], False
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if ch == "," and not in_string:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    parts = [p.strip() for p in parts]
    if any(not p for p in parts):
        raise AsmSyntaxError(line_no, "empty operand in list")
    return parts


def _reference_parse_operand(token: str, line_no: int):
    """Operand parsing for a token that is not a memory reference, as
    it was before the register table: try a register, else a value."""
    token = token.strip()
    try:
        return RegOperand(register_number(token))
    except ValueError:
        pass
    return parse_value(token, line_no)


def _outcome(function, *args):
    try:
        return function(*args)
    except AsmSyntaxError as err:
        return ("AsmSyntaxError", str(err))


_LINE_TEXT = st.text(alphabet='"\\;#, \tab1r9', max_size=24)


class TestParserFastPaths:
    @settings(max_examples=500, deadline=None)
    @given(line=_LINE_TEXT)
    def test_strip_comment_matches_character_loop(self, line):
        assert _strip_comment(line) == _reference_strip_comment(line)

    @settings(max_examples=500, deadline=None)
    @given(text=_LINE_TEXT)
    def test_split_operands_matches_character_loop(self, text):
        assert _outcome(_split_operands, text, 7) == _outcome(
            _reference_split_operands, text, 7
        )

    @settings(max_examples=500, deadline=None)
    @given(token=st.text(alphabet="rRsSpPfFlL019_+-x' ", max_size=6))
    def test_operand_matches_register_then_value(self, token):
        if token.strip().startswith("["):
            return
        assert _outcome(_parse_operand, token, 3) == _outcome(
            _reference_parse_operand, token, 3
        )

    @pytest.mark.parametrize("token", ["r0", "R15", "sp", "Fp", " lr ", "r01", "r+1"])
    def test_register_spellings(self, token):
        assert _parse_operand(token, 1) == RegOperand(register_number(token))

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("li r1, 5 ; five # still comment", "li r1, 5"),
            ("cmpi r1, ';'", "cmpi r1, '"),  # quote-free: ';' starts a comment
            ('.asciz "a;b" ; note', '.asciz "a;b"'),
            ('.asciz "a\\"#b"', '.asciz "a\\"#b"'),
        ],
    )
    def test_strip_comment_examples(self, line, expected):
        assert _strip_comment(line) == expected == _reference_strip_comment(line)

    @pytest.mark.parametrize("text", ["", "r1,", "r1, r2,"])
    def test_trailing_comma_ends_the_list(self, text):
        assert _split_operands(text, 1) == _reference_split_operands(text, 1)

    @pytest.mark.parametrize("text", ["r1,,r2", ",", "r1, ", " "])
    def test_empty_operand_rejected(self, text):
        with pytest.raises(AsmSyntaxError, match="empty operand in list"):
            _split_operands(text, 1)
