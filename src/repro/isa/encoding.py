"""Binary encoding of SVM32 instructions.

Every instruction is exactly 8 bytes::

    byte 0      opcode
    byte 1..3   register fields (ra, rb, rc; unused fields are zero)
    byte 4..7   32-bit little-endian immediate (zero when unused)

The immediate lives at a fixed offset (+4), which is where relocation
entries point.  A fixed-width encoding keeps disassembly total (PLTO's
"cannot disassemble" case is modelled separately by the OpenBSD
personality, see :mod:`repro.workloads.personalities`).
"""

from __future__ import annotations

import struct

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_INFO, OperandKind

INSTRUCTION_SIZE = 8
IMM_OFFSET = 4  # byte offset of the immediate field within an instruction

#: Opcode byte -> ``(op, register field count, has immediate)``, or
#: ``None`` for an unassigned byte.  Precomputed once so decoding maps
#: the byte with one tuple index: the enum call ``Op(byte)`` alone
#: costs about half of a decode.
_SHAPES = {
    int(op): (
        op,
        sum(1 for kind in info.operands if kind in (OperandKind.REG, OperandKind.MEM)),
        any(kind in (OperandKind.IMM, OperandKind.MEM) for kind in info.operands),
    )
    for op, info in OPCODE_INFO.items()
}
_DECODE = tuple(_SHAPES.get(code) for code in range(256))
_FIELDS = struct.Struct("<BBBBI").unpack_from


class EncodingError(ValueError):
    """Raised for malformed instruction bytes or unencodable operands."""


def encode_instruction(instruction: Instruction) -> bytes:
    """Encode one instruction; the immediate must be concrete by now."""
    if instruction.is_symbolic:
        raise EncodingError(
            f"cannot encode unresolved symbolic immediate: {instruction}"
        )
    regs = list(instruction.regs) + [0] * (3 - len(instruction.regs))
    for reg in regs:
        if not 0 <= reg <= 0xFF:
            raise EncodingError(f"register field out of range: {reg}")
    imm = instruction.imm or 0
    imm &= 0xFFFFFFFF
    return struct.pack("<BBBBI", int(instruction.op), *regs, imm)


def decode_fields(data: bytes, offset: int = 0):
    """Decode 8 bytes at ``offset`` into raw ``(op, regs, imm)`` fields.

    This is the validation core shared by :func:`decode_instruction` and
    the threaded execution engine's block compiler, which pre-extracts
    register indices and immediates without allocating
    :class:`Instruction` objects.  ``imm`` is ``None`` when the opcode
    takes no immediate operand.
    """
    if len(data) - offset < INSTRUCTION_SIZE:
        raise EncodingError(
            f"truncated instruction at offset {offset}: "
            f"{len(data) - offset} bytes remain"
        )
    opcode, ra, rb, rc, imm = _FIELDS(data, offset)
    shape = _DECODE[opcode]
    if shape is None:
        raise EncodingError(f"unknown opcode 0x{opcode:02x} at offset {offset}")
    op, n_regs, has_imm = shape
    regs = (ra, rb, rc)[:n_regs]
    # Register fields above the architectural register count are
    # illegal encodings (a fuzzed or corrupted instruction stream must
    # fault, not index past the register file).
    for reg in regs:
        if reg >= 16:
            raise EncodingError(
                f"register field {reg} out of range at offset {offset}"
            )
    return op, regs, imm if has_imm else None


def decode_instruction(data: bytes, offset: int = 0) -> Instruction:
    """Decode 8 bytes at ``offset`` into an :class:`Instruction`."""
    op, regs, imm = decode_fields(data, offset)
    return Instruction(op, regs, imm)
