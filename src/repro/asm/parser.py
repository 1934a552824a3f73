"""Parsing assembly text into statement objects.

The grammar is line-oriented.  A line may hold a label definition
(``name:``), a directive (``.section``, ``.global``, ``.equ``,
``.asciz``, ``.ascii``, ``.byte``, ``.word``, ``.space``, ``.align``),
or an instruction (mnemonic plus comma-separated operands).  ``;`` and
``#`` introduce comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from repro.isa.opcodes import MNEMONIC_TO_OP, Op
from repro.isa.registers import NUM_REGS, register_number


class AsmSyntaxError(ValueError):
    """Raised with a line number when assembly text cannot be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class RegOperand:
    number: int


@dataclass(frozen=True)
class ImmOperand:
    """An immediate: constant and/or symbol+addend (``msg+4``, ``12``)."""

    symbol: Optional[str]
    addend: int = 0


@dataclass(frozen=True)
class MemOperand:
    """A ``[reg+disp]`` memory reference; disp may be symbolic."""

    base: int
    symbol: Optional[str]
    addend: int = 0


Operand = Union[RegOperand, ImmOperand, MemOperand]

#: The operand for each plain register spelling (``r0``..``r15`` and
#: the aliases), keyed lower-case.  Operands are immutable, so one per
#: register serves every line.
_REGISTER_OPERANDS = {
    name: RegOperand(register_number(name))
    for name in [f"r{n}" for n in range(NUM_REGS)] + ["fp", "lr", "sp"]
}


@dataclass(frozen=True)
class LabelStmt:
    name: str
    line_no: int


@dataclass(frozen=True)
class DirectiveStmt:
    name: str
    args: tuple
    line_no: int


@dataclass(frozen=True)
class InstructionStmt:
    op: Op
    operands: tuple[Operand, ...]
    line_no: int


Statement = Union[LabelStmt, DirectiveStmt, InstructionStmt]

_LABEL_RE = re.compile(r"^([.A-Za-z_][.\w$]*):\s*(.*)$")
_SYMBOL_RE = re.compile(r"^[.A-Za-z_][.\w$]*$")
_CHAR_RE = re.compile(r"^'(\\?.)'$")

_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'", '"': '"', "r": "\r"}


def _strip_comment(line: str) -> str:
    if '"' not in line:
        # No string literal to skip: cut at the first ``;`` or ``#``.
        end = len(line)
        for mark in ";#":
            found = line.find(mark, 0, end)
            if found >= 0:
                end = found
        return line[:end].strip()
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


def _parse_int(token: str, line_no: int) -> int:
    token = token.strip()
    match = _CHAR_RE.match(token)
    if match:
        ch = match.group(1)
        if ch.startswith("\\"):
            try:
                return ord(_ESCAPES[ch[1]])
            except KeyError:
                raise AsmSyntaxError(line_no, f"bad character escape {token!r}") from None
        return ord(ch)
    try:
        return int(token, 0)
    except ValueError:
        raise AsmSyntaxError(line_no, f"bad integer {token!r}") from None


def parse_value(token: str, line_no: int) -> ImmOperand:
    """Parse ``123``, ``0x10``, ``'a'``, ``sym``, ``sym+4``, ``sym-4``."""
    token = token.strip()
    if not token:
        raise AsmSyntaxError(line_no, "empty operand")
    # symbol with addend?
    for sign in ("+", "-"):
        idx = token.rfind(sign)
        if idx > 0:
            head, tail = token[:idx].strip(), token[idx + 1 :].strip()
            if _SYMBOL_RE.fullmatch(head) and tail and not _SYMBOL_RE.fullmatch(tail):
                addend = _parse_int(tail, line_no)
                return ImmOperand(head, addend if sign == "+" else -addend)
    if _SYMBOL_RE.fullmatch(token) and not token.lstrip("-").isdigit():
        return ImmOperand(token, 0)
    return ImmOperand(None, _parse_int(token, line_no))


def _parse_operand(token: str, line_no: int) -> Operand:
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise AsmSyntaxError(line_no, f"unterminated memory operand {token!r}")
        inner = token[1:-1].strip()
        # [reg], [reg+disp], [reg-disp]
        for sign in ("+", "-"):
            idx = inner.find(sign)
            if idx > 0:
                base = register_number(inner[:idx].strip())
                disp = parse_value(inner[idx + 1 :].strip(), line_no)
                if sign == "-":
                    if disp.symbol is not None:
                        raise AsmSyntaxError(line_no, "cannot negate a symbol")
                    disp = ImmOperand(None, -disp.addend)
                return MemOperand(base, disp.symbol, disp.addend)
        return MemOperand(register_number(inner), None, 0)
    lowered = token.lower()
    operand = _REGISTER_OPERANDS.get(lowered)
    if operand is not None:
        return operand
    # Only a token starting with "r" can still name a register (say
    # "r01"); anything else is an immediate without the exception.
    if lowered.startswith("r"):
        try:
            return RegOperand(register_number(token))
        except ValueError:
            pass
    return _parse_operand_imm(token, line_no)


def _parse_operand_imm(token: str, line_no: int) -> ImmOperand:
    return parse_value(token, line_no)


def _split_operands(text: str, line_no: int) -> list[str]:
    """Split on commas that are not inside quotes."""
    if '"' not in text:
        parts = text.split(",")
        if not parts[-1]:
            parts.pop()  # a trailing comma ends the list, as below
    else:
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


def _parse_string_literal(token: str, line_no: int) -> bytes:
    token = token.strip()
    if len(token) < 2 or token[0] != '"' or token[-1] != '"':
        raise AsmSyntaxError(line_no, f"expected string literal, got {token!r}")
    body = token[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise AsmSyntaxError(line_no, "dangling escape in string")
            try:
                out.append(ord(_ESCAPES[body[i]]))
            except KeyError:
                raise AsmSyntaxError(line_no, f"bad escape \\{body[i]}") from None
        else:
            out.append(ord(ch))
        i += 1
    return bytes(out)


def _parse_directive(name: str, rest: str, line_no: int) -> DirectiveStmt:
    name = name.lower()
    if name in (".section", ".global"):
        token = rest.strip()
        if not token:
            raise AsmSyntaxError(line_no, f"{name} requires an argument")
        return DirectiveStmt(name, (token,), line_no)
    if name == ".equ":
        parts = _split_operands(rest, line_no)
        if len(parts) != 2:
            raise AsmSyntaxError(line_no, ".equ requires name, value")
        return DirectiveStmt(name, (parts[0], parse_value(parts[1], line_no)), line_no)
    if name in (".asciz", ".ascii"):
        return DirectiveStmt(name, (_parse_string_literal(rest, line_no),), line_no)
    if name in (".byte", ".word"):
        values = tuple(
            parse_value(p, line_no) for p in _split_operands(rest, line_no)
        )
        return DirectiveStmt(name, values, line_no)
    if name in (".space", ".align"):
        return DirectiveStmt(name, (_parse_int(rest, line_no),), line_no)
    raise AsmSyntaxError(line_no, f"unknown directive {name}")


def parse(text: str) -> list[Statement]:
    """Parse assembly text into a list of statements."""
    statements: list[Statement] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        while line:
            match = _LABEL_RE.match(line)
            if not match:
                break
            statements.append(LabelStmt(match.group(1), line_no))
            line = match.group(2).strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split(None, 1)
            statements.append(
                _parse_directive(parts[0], parts[1] if len(parts) > 1 else "", line_no)
            )
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        op = MNEMONIC_TO_OP.get(mnemonic)
        if op is None:
            raise AsmSyntaxError(line_no, f"unknown mnemonic {mnemonic!r}")
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = tuple(
            _parse_operand(tok, line_no)
            for tok in (_split_operands(operand_text, line_no) if operand_text else [])
        )
        statements.append(InstructionStmt(op, operands, line_no))
    return statements


