"""Two-pass assembler: statements -> relocatable SEF binary.

Pass 1 pre-scans ``.equ`` constant definitions; pass 2 walks the
statements, appending encoded instructions and data to the current
section, defining symbols at label sites, and emitting a relocation for
every symbolic immediate.  Nothing is resolved to an absolute address
here — that is the linker's job (:func:`repro.binfmt.link`) — which is
precisely what lets the installer rewrite code later.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.asm.parser import (
    DirectiveStmt,
    ImmOperand,
    InstructionStmt,
    LabelStmt,
    MemOperand,
    RegOperand,
    Statement,
    parse,
)
from repro.binfmt import Relocation, Section, SefBinary
from repro.binfmt.symbols import BIND_GLOBAL, BIND_LOCAL
from repro.isa import Instruction, SymbolRef, encode_instruction
from repro.isa.encoding import IMM_OFFSET
from repro.isa.opcodes import OPCODE_INFO, OperandKind


class AsmError(ValueError):
    """Raised for semantic assembly errors (bad operands, redefinitions)."""


def _collect_equs(statements: list[Statement]) -> dict[str, int]:
    equs: dict[str, int] = {}
    for stmt in statements:
        if isinstance(stmt, DirectiveStmt) and stmt.name == ".equ":
            name, value = stmt.args
            if name in equs:
                raise AsmError(f"line {stmt.line_no}: duplicate .equ {name!r}")
            if value.symbol is not None:
                if value.symbol not in equs:
                    raise AsmError(
                        f"line {stmt.line_no}: .equ {name!r} references "
                        f"undefined constant {value.symbol!r}"
                    )
                equs[name] = equs[value.symbol] + value.addend
            else:
                equs[name] = value.addend
    return equs


class _Assembler:
    def __init__(self, statements: list[Statement], entry: str):
        self._statements = statements
        self._equs = _collect_equs(statements)
        self._binary = SefBinary(entry=entry)
        self._globals: set[str] = set()
        self._pending_symbols: dict[str, tuple[str, int]] = {}
        self._section: Optional[Section] = None

    def run(self) -> SefBinary:
        self._switch_section(".text")
        for stmt in self._statements:
            if isinstance(stmt, LabelStmt):
                self._define_label(stmt)
            elif isinstance(stmt, DirectiveStmt):
                self._directive(stmt)
            else:
                self._instruction(stmt)
        for name, (section, offset) in self._pending_symbols.items():
            binding = BIND_GLOBAL if name in self._globals else BIND_LOCAL
            self._binary.define_symbol(name, section, offset, binding)
        self._binary.validate()
        return self._binary

    # -- helpers -------------------------------------------------------

    def _switch_section(self, name: str) -> None:
        if name == ".bss":
            self._section = self._binary.get_or_create_section(name, nobits=True)
        else:
            self._section = self._binary.get_or_create_section(name)

    def _cursor(self) -> int:
        assert self._section is not None
        return self._section.size

    def _define_label(self, stmt: LabelStmt) -> None:
        if stmt.name in self._pending_symbols or stmt.name in self._equs:
            raise AsmError(f"line {stmt.line_no}: duplicate label {stmt.name!r}")
        assert self._section is not None
        self._pending_symbols[stmt.name] = (self._section.name, self._cursor())

    def _resolve_imm(self, operand, line_no: int):
        """Return (concrete_value, symbol_ref_or_None) for an immediate
        or a memory operand's displacement (both carry symbol+addend)."""
        if operand.symbol is None:
            return operand.addend, None
        if operand.symbol in self._equs:
            return self._equs[operand.symbol] + operand.addend, None
        return 0, SymbolRef(operand.symbol, operand.addend)

    def _directive(self, stmt: DirectiveStmt) -> None:
        assert self._section is not None
        if stmt.name == ".section":
            self._switch_section(stmt.args[0])
        elif stmt.name == ".global":
            self._globals.add(stmt.args[0])
        elif stmt.name == ".equ":
            pass  # handled in pass 1
        elif stmt.name == ".asciz":
            self._append_data(stmt.args[0] + b"\x00", stmt.line_no)
        elif stmt.name == ".ascii":
            self._append_data(stmt.args[0], stmt.line_no)
        elif stmt.name == ".byte":
            for value in stmt.args:
                concrete, ref = self._resolve_imm(value, stmt.line_no)
                if ref is not None:
                    raise AsmError(
                        f"line {stmt.line_no}: .byte cannot hold a symbol address"
                    )
                self._append_data(struct.pack("<B", concrete & 0xFF), stmt.line_no)
        elif stmt.name == ".word":
            for value in stmt.args:
                concrete, ref = self._resolve_imm(value, stmt.line_no)
                offset = self._cursor()
                self._append_data(struct.pack("<I", concrete & 0xFFFFFFFF), stmt.line_no)
                if ref is not None:
                    self._binary.add_relocation(
                        Relocation(self._section.name, offset, ref.symbol, ref.addend)
                    )
        elif stmt.name == ".space":
            count = stmt.args[0]
            if self._section.nobits:
                self._section.reserve_bytes(count)
            else:
                self._append_data(bytes(count), stmt.line_no)
        elif stmt.name == ".align":
            align = stmt.args[0]
            if align <= 0 or align & (align - 1):
                raise AsmError(f"line {stmt.line_no}: alignment must be a power of 2")
            padding = (-self._cursor()) % align
            if padding:
                if self._section.nobits:
                    self._section.reserve_bytes(padding)
                else:
                    self._append_data(bytes(padding), stmt.line_no)
        else:  # pragma: no cover - parser rejects unknown directives
            raise AsmError(f"line {stmt.line_no}: unknown directive {stmt.name}")

    def _append_data(self, blob: bytes, line_no: int) -> None:
        assert self._section is not None
        if self._section.nobits:
            raise AsmError(f"line {line_no}: cannot emit data into .bss")
        self._section.append(blob)

    def _instruction(self, stmt: InstructionStmt) -> None:
        assert self._section is not None
        if not self._section.executable:
            raise AsmError(
                f"line {stmt.line_no}: instruction in non-executable "
                f"section {self._section.name!r}"
            )
        info = OPCODE_INFO[stmt.op]
        if len(stmt.operands) != len(info.operands):
            raise AsmError(
                f"line {stmt.line_no}: {info.mnemonic} expects "
                f"{len(info.operands)} operands, got {len(stmt.operands)}"
            )
        regs: list[int] = []
        imm = None
        symbol_ref: Optional[SymbolRef] = None
        for kind, operand in zip(info.operands, stmt.operands):
            if kind is OperandKind.REG:
                if not isinstance(operand, RegOperand):
                    raise AsmError(
                        f"line {stmt.line_no}: {info.mnemonic} expects a register"
                    )
                regs.append(operand.number)
            elif kind is OperandKind.IMM:
                if not isinstance(operand, ImmOperand):
                    raise AsmError(
                        f"line {stmt.line_no}: {info.mnemonic} expects an immediate"
                    )
                imm, symbol_ref = self._resolve_imm(operand, stmt.line_no)
            else:  # MEM
                if not isinstance(operand, MemOperand):
                    raise AsmError(
                        f"line {stmt.line_no}: {info.mnemonic} expects a "
                        f"memory operand [reg+disp]"
                    )
                regs.append(operand.base)
                imm, symbol_ref = self._resolve_imm(operand, stmt.line_no)
        instruction = Instruction(stmt.op, tuple(regs), imm)
        offset = self._section.append(encode_instruction(instruction))
        if symbol_ref is not None:
            self._binary.add_relocation(
                Relocation(
                    self._section.name,
                    offset + IMM_OFFSET,
                    symbol_ref.symbol,
                    symbol_ref.addend,
                )
            )


def assemble(source: str, entry: str = "_start", metadata: Optional[dict] = None) -> SefBinary:
    """Assemble SVM32 source text into a relocatable SEF binary."""
    statements = parse(source)
    binary = _Assembler(statements, entry).run()
    if metadata:
        binary.metadata.update(metadata)
    return binary
