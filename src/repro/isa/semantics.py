"""What each computational SVM32 op computes, written once.

The installer folds each call site's constant arguments by reaching
definitions (§4.1) and the kernel accepts a call only if the live
arguments equal them (§3.4), so the installer and the machine must
agree on every instruction's result.  This table is that agreement:
the interpreter (:mod:`repro.cpu.vm`), the block thunks
(:mod:`repro.cpu.threaded`), the superblock generator
(:mod:`repro.cpu.codegen`) and the installer's constant propagation
(:mod:`repro.plto.dataflow`) all read it.

Each computation is one piece of source text over named operands: the
ALU ops, a compare's flags and each branch's test.  The code generators
emit the text; the same text, compiled once here, is the function the
interpreter and the constant folders call.  Memory, stack, control
transfer, traps, ``LI``, ``MOV`` and ``RDTSC`` are not here: what
differs between the engines there is the mechanism (the checked
``Memory`` path or a data TLB, batched-cycle corrections, rollback),
not the computation.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.isa.opcodes import MNEMONIC_TO_OP, OPCODE_INFO, Op


def signed(value: int) -> int:
    """A u32 value read as two's-complement signed (the kernel's
    ``lseek`` offset and ``wait4`` pid)."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _function(params: str, text: str) -> Callable:
    """Compile one of this table's texts into a function (no builtins:
    the texts are plain integer arithmetic)."""
    return eval(f"lambda {params}: {text}", {"__builtins__": {}})


#: Two-operand ALU op -> its result as source text over the u32
#: operands ``{a}``/``{b}``.  For the shifts ``{b}`` is the count already
#: masked to 5 bits; for the divides it is nonzero, because a zero
#: divisor faults before the op runs.
ALU_TEXT: dict[Op, str] = {
    Op.ADD: "({a} + {b}) & 0xFFFFFFFF",
    Op.SUB: "({a} - {b}) & 0xFFFFFFFF",
    Op.MUL: "({a} * {b}) & 0xFFFFFFFF",
    Op.DIV: "({a} // {b}) & 0xFFFFFFFF",
    Op.MOD: "({a} % {b}) & 0xFFFFFFFF",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.SHL: "({a} << {b}) & 0xFFFFFFFF",
    Op.SHR: "{a} >> {b}",
}
SHIFTS = frozenset((Op.SHL, Op.SHR))
DIVIDES = frozenset((Op.DIV, Op.MOD))

#: The same text compiled once: ALU op -> ``f(a, b)``.
ALU: dict[Op, Callable[[int, int], int]] = {
    op: _function("a, b", text.format(a="a", b="b")) for op, text in ALU_TEXT.items()
}

#: Immediate form -> the register op it applies to ``(ra, imm)``.
IMMEDIATE: dict[Op, Op] = {
    op: MNEMONIC_TO_OP[info.mnemonic[:-1]]
    for op, info in OPCODE_INFO.items()
    if MNEMONIC_TO_OP.get(info.mnemonic[:-1]) in ALU_TEXT
}

#: Every ALU op, register or immediate form -> the register op it runs.
ALU_BASE: dict[Op, Op] = {**{op: op for op in ALU_TEXT}, **IMMEDIATE}

#: The key whose plain order is the signed order of the u32 ``{v}``:
#: XOR with the sign bit (no call and no branch).
SIGNED_ORDER = "({v} ^ 0x80000000)"
signed_order: Callable[[int], int] = _function("v", SIGNED_ORDER.format(v="v"))

#: The flags a compare of ``{x}`` with ``{y}`` sets: ``z`` (equal) and
#: ``n`` (signed less).
COMPARE = (
    "{x} == {y}",
    SIGNED_ORDER.format(v="{x}") + " < " + SIGNED_ORDER.format(v="{y}"),
)
COMPARES = frozenset((Op.CMP, Op.CMPI))

#: The same text compiled once: ``compare(x, y) -> (z, n)``.
compare: Callable[[int, int], tuple] = _function(
    "x, y", "({}, {})".format(*(text.format(x="x", y="y") for text in COMPARE))
)


class Branch(NamedTuple):
    """One conditional branch: when it is taken."""

    relation: str  # between the compared signed operands
    flags: str  # the same test over the flags ``{z}`` and ``{n}``


BRANCHES: dict[Op, Branch] = {
    Op.BEQ: Branch("==", "{z}"),
    Op.BNE: Branch("!=", "not {z}"),
    Op.BLT: Branch("<", "{n}"),
    Op.BGE: Branch(">=", "not {n}"),
    Op.BLE: Branch("<=", "{n} or {z}"),
    Op.BGT: Branch(">", "not ({n} or {z})"),
}

#: The flag test compiled once: conditional branch -> ``taken(z, n)``.
TAKEN: dict[Op, Callable[[bool, bool], bool]] = {
    op: _function("z, n", branch.flags.format(z="z", n="n"))
    for op, branch in BRANCHES.items()
}
