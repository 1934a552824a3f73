"""Opcode table for SVM32.

Each opcode declares its operand signature (used by the assembler,
disassembler, and encoder) and its base cycle cost (used by the VM's
deterministic cycle accounting).  Two rows of Table 4 pin the
measurement-infrastructure costs: the ``rdtsc`` instruction costs 84
cycles and the benchmark loop body (ADDI + CMPI + BNE) costs 4 cycles,
both matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum, unique


@unique
class OperandKind(Enum):
    REG = "reg"  # a register operand
    IMM = "imm"  # a 32-bit immediate; may be a symbolic address
    MEM = "mem"  # a register-plus-offset memory operand


@unique
class Op(IntEnum):
    NOP = 0x00
    HALT = 0x01
    LI = 0x02
    MOV = 0x03
    ADD = 0x10
    SUB = 0x11
    MUL = 0x12
    DIV = 0x13
    MOD = 0x14
    AND = 0x15
    OR = 0x16
    XOR = 0x17
    SHL = 0x18
    SHR = 0x19
    ADDI = 0x20
    SUBI = 0x21
    MULI = 0x22
    DIVI = 0x23
    ANDI = 0x25
    ORI = 0x26
    XORI = 0x27
    SHLI = 0x28
    SHRI = 0x29
    LD = 0x30
    ST = 0x31
    LDB = 0x32
    STB = 0x33
    PUSH = 0x34
    POP = 0x35
    CMP = 0x40
    CMPI = 0x41
    BEQ = 0x50
    BNE = 0x51
    BLT = 0x52
    BGE = 0x53
    BLE = 0x54
    BGT = 0x55
    JMP = 0x56
    JR = 0x57
    CALL = 0x58
    CALLR = 0x59
    RET = 0x5A
    SYS = 0x60
    ASYS = 0x61
    RDTSC = 0x70
    RDTSCH = 0x71
    CPUWORK = 0x72


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode."""

    mnemonic: str
    operands: tuple[OperandKind, ...]
    cycles: int
    is_branch: bool = False  # any control transfer (cond, jmp, call, ret)
    is_call: bool = False
    is_conditional: bool = False
    is_trap: bool = False


_R = OperandKind.REG
_I = OperandKind.IMM
_M = OperandKind.MEM

OPCODE_INFO: dict[Op, OpcodeInfo] = {
    Op.NOP: OpcodeInfo("nop", (), 1),
    Op.HALT: OpcodeInfo("halt", (), 1),
    Op.LI: OpcodeInfo("li", (_R, _I), 1),
    Op.MOV: OpcodeInfo("mov", (_R, _R), 1),
    Op.ADD: OpcodeInfo("add", (_R, _R, _R), 1),
    Op.SUB: OpcodeInfo("sub", (_R, _R, _R), 1),
    Op.MUL: OpcodeInfo("mul", (_R, _R, _R), 4),
    Op.DIV: OpcodeInfo("div", (_R, _R, _R), 20),
    Op.MOD: OpcodeInfo("mod", (_R, _R, _R), 20),
    Op.AND: OpcodeInfo("and", (_R, _R, _R), 1),
    Op.OR: OpcodeInfo("or", (_R, _R, _R), 1),
    Op.XOR: OpcodeInfo("xor", (_R, _R, _R), 1),
    Op.SHL: OpcodeInfo("shl", (_R, _R, _R), 1),
    Op.SHR: OpcodeInfo("shr", (_R, _R, _R), 1),
    Op.ADDI: OpcodeInfo("addi", (_R, _R, _I), 1),
    Op.SUBI: OpcodeInfo("subi", (_R, _R, _I), 1),
    Op.MULI: OpcodeInfo("muli", (_R, _R, _I), 4),
    Op.DIVI: OpcodeInfo("divi", (_R, _R, _I), 20),
    Op.ANDI: OpcodeInfo("andi", (_R, _R, _I), 1),
    Op.ORI: OpcodeInfo("ori", (_R, _R, _I), 1),
    Op.XORI: OpcodeInfo("xori", (_R, _R, _I), 1),
    Op.SHLI: OpcodeInfo("shli", (_R, _R, _I), 1),
    Op.SHRI: OpcodeInfo("shri", (_R, _R, _I), 1),
    Op.LD: OpcodeInfo("ld", (_R, _M), 3),
    Op.ST: OpcodeInfo("st", (_R, _M), 3),
    Op.LDB: OpcodeInfo("ldb", (_R, _M), 3),
    Op.STB: OpcodeInfo("stb", (_R, _M), 3),
    Op.PUSH: OpcodeInfo("push", (_R,), 3),
    Op.POP: OpcodeInfo("pop", (_R,), 3),
    Op.CMP: OpcodeInfo("cmp", (_R, _R), 1),
    Op.CMPI: OpcodeInfo("cmpi", (_R, _I), 1),
    Op.BEQ: OpcodeInfo("beq", (_I,), 2, is_branch=True, is_conditional=True),
    Op.BNE: OpcodeInfo("bne", (_I,), 2, is_branch=True, is_conditional=True),
    Op.BLT: OpcodeInfo("blt", (_I,), 2, is_branch=True, is_conditional=True),
    Op.BGE: OpcodeInfo("bge", (_I,), 2, is_branch=True, is_conditional=True),
    Op.BLE: OpcodeInfo("ble", (_I,), 2, is_branch=True, is_conditional=True),
    Op.BGT: OpcodeInfo("bgt", (_I,), 2, is_branch=True, is_conditional=True),
    Op.JMP: OpcodeInfo("jmp", (_I,), 2, is_branch=True),
    Op.JR: OpcodeInfo("jr", (_R,), 2, is_branch=True),
    Op.CALL: OpcodeInfo("call", (_I,), 5, is_branch=True, is_call=True),
    Op.CALLR: OpcodeInfo("callr", (_R,), 5, is_branch=True, is_call=True),
    Op.RET: OpcodeInfo("ret", (), 5, is_branch=True),
    Op.SYS: OpcodeInfo("sys", (), 0, is_trap=True),
    Op.ASYS: OpcodeInfo("asys", (), 0, is_trap=True),
    Op.RDTSC: OpcodeInfo("rdtsc", (_R,), 84),
    Op.RDTSCH: OpcodeInfo("rdtsch", (_R,), 84),
    Op.CPUWORK: OpcodeInfo("cpuwork", (_I,), 0),
}

MNEMONIC_TO_OP = {info.mnemonic: op for op, info in OPCODE_INFO.items()}

# Opcode classes, derived once from the table.
CONDITIONAL_BRANCHES = frozenset(
    op for op, info in OPCODE_INFO.items() if info.is_conditional
)
TRAPS = frozenset(op for op, info in OPCODE_INFO.items() if info.is_trap)
#: Ops that end a basic block, in the installer's CFG and in the
#: engine's translation alike: every control transfer, every trap (so
#: each system call gets a block of its own) and ``HALT``.
ENDS_BLOCK = frozenset(
    op for op, info in OPCODE_INFO.items()
    if info.is_branch or info.is_trap or op is Op.HALT
)
#: Ops that write their first register operand: every op whose operands
#: start with a register, except the register branches and the ops that
#: only read it (the stores and the compares).
WRITES_FIRST_REG = frozenset(
    op for op, info in OPCODE_INFO.items()
    if info.operands[:1] == (_R,) and not info.is_branch
) - {Op.ST, Op.STB, Op.PUSH, Op.CMP, Op.CMPI}
