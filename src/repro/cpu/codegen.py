"""Python source for compiled superblock passes.

:func:`pass_source` turns the flat, unrolled member list that
:meth:`repro.cpu.threaded.BlockCache._fuse` builds into the source of
one straight-line function, ``superblock(vm)``, that runs exactly one
pass over the fused cycle.  The engine compiles that source once per
superblock against a fresh namespace holding only the names the source
reads: ``regs`` (the register file), ``tlb`` (the data-TLB unpacker),
``load``/``store`` (the shared memory slow paths), ``leave``,
``smc_abort`` and ``div_zero`` (exits and faults) and ``U32``.  The
``threaded`` module docstring describes what a pass does inline and
what it leaves to those helpers.

The source is assembled from fixed templates.  The only values
formatted into them are integers the generator computed itself —
register indices from ``decode_fields``, masked immediates, PCs and
accounting corrections — and :func:`fill` rejects anything else, so no
guest byte or string can become source text.
"""

from __future__ import annotations

from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.opcodes import OPCODE_INFO, Op

_MASK = 0xFFFFFFFF
_CPUWORK = Op.CPUWORK
_DIVI = Op.DIVI

#: Register-only templates.  Fields: ``d`` destination, ``a``/``b``
#: sources, ``v`` the masked immediate, ``c`` the cycle correction
#: (``RDTSC`` subtracts it from the batched total).
_ARITH = {
    Op.LI: "R[{d}] = {v}",
    Op.MOV: "R[{d}] = R[{a}]",
    Op.ADD: "R[{d}] = (R[{a}] + R[{b}]) & 0xFFFFFFFF",
    Op.SUB: "R[{d}] = (R[{a}] - R[{b}]) & 0xFFFFFFFF",
    Op.MUL: "R[{d}] = (R[{a}] * R[{b}]) & 0xFFFFFFFF",
    Op.AND: "R[{d}] = R[{a}] & R[{b}]",
    Op.OR: "R[{d}] = R[{a}] | R[{b}]",
    Op.XOR: "R[{d}] = R[{a}] ^ R[{b}]",
    Op.SHL: "R[{d}] = (R[{a}] << (R[{b}] & 31)) & 0xFFFFFFFF",
    Op.SHR: "R[{d}] = R[{a}] >> (R[{b}] & 31)",
    Op.ADDI: "R[{d}] = (R[{a}] + {v}) & 0xFFFFFFFF",
    Op.SUBI: "R[{d}] = (R[{a}] - {v}) & 0xFFFFFFFF",
    Op.MULI: "R[{d}] = (R[{a}] * {v}) & 0xFFFFFFFF",
    Op.DIVI: "R[{d}] = (R[{a}] // {v}) & 0xFFFFFFFF",
    Op.ANDI: "R[{d}] = R[{a}] & {v}",
    Op.ORI: "R[{d}] = R[{a}] | {v}",
    Op.XORI: "R[{d}] = R[{a}] ^ {v}",
    Op.SHLI: "R[{d}] = (R[{a}] << {v}) & 0xFFFFFFFF",
    Op.SHRI: "R[{d}] = R[{a}] >> {v}",
    Op.RDTSC: "R[{d}] = (vm.cycles - {c}) & 0xFFFFFFFF",
    Op.RDTSCH: "R[{d}] = ((vm.cycles - {c}) >> 32) & 0xFFFFFFFF",
}
#: Immediates narrower than 32 bits: shift counts.
_IMM_MASK = {Op.SHLI: 31, Op.SHRI: 31}
#: Division by a register -> Python operator (the divisor is checked).
_DIVIDE = {Op.DIV: "//", Op.MOD: "%"}
#: Memory access -> (size, stack); ``stack`` selects the PUSH/POP
#: fault-message prefix in the shared helpers.
_LOADS = {Op.LD: (4, 0), Op.LDB: (1, 0), Op.POP: (4, 1)}
_STORES = {Op.ST: (4, 0), Op.STB: (1, 0), Op.PUSH: (4, 1)}
_COMPARES = frozenset((Op.CMP, Op.CMPI))
#: Accounting-only opcodes: their cycles are in the batched total.
_NO_CODE = frozenset((Op.NOP, Op.CPUWORK))
#: Control transfer -> (taken, not taken) predicates over the flag
#: locals; ``None`` for ``JMP``.
_BRANCHES = {
    Op.BEQ: ("z", "not z"),
    Op.BNE: ("not z", "z"),
    Op.BLT: ("n", "not n"),
    Op.BGE: ("not n", "n"),
    Op.BLE: ("n or z", "not (n or z)"),
    Op.BGT: ("not (n or z)", "n or z"),
    Op.JMP: None,
}

_SIGNED_X = "(x - 0x100000000 if x & 0x80000000 else x)"
_SIGNED_Y = "(y - 0x100000000 if y & 0x80000000 else y)"
_FLAGS_FROM_VM = ("z = vm.flag_zero", "n = vm.flag_neg")


def prefix_cycles(code) -> list:
    """Cycle prefix sums over ``(pc, op, regs, imm, ...)`` entries:
    entry ``i`` covers instructions ``0..i`` inclusive (the interpreter
    charges an instruction before executing it)."""
    prefix = []
    total = 0
    for entry in code:
        op = entry[1]
        total += OPCODE_INFO[op].cycles
        if op is _CPUWORK:
            total += entry[3]
        prefix.append(total)
    return prefix


def fill(template: str, **fields) -> str:
    """Format a template with generator-computed integers only; any
    other type (a string, bytes, a bool) is a generator bug."""
    for value in fields.values():
        if type(value) is not int:
            raise TypeError(f"superblock source takes ints, got {type(value).__name__}")
    return template.format(**fields)


def pass_source(flat: list, span_lo: int, span_hi: int):
    """Emit one superblock pass as Python source.

    ``flat`` is the unrolled member list ``(pc, op, regs, imm, off_pc,
    on_taken)``: ``off_pc`` is the off-cycle successor of a member's
    conditional terminator (-1 when control stays on the cycle either
    way) and ``on_taken`` whether the cycle continues on the taken
    edge.  The last entry closes the pass.  ``[span_lo, span_hi)`` is
    the fused code span a store must not touch.

    The function body uses the locals ``R`` (register file), ``z``/``n``
    (flags, also written to ``vm`` at every compare), ``tb``/``td``/
    ``tr``/``tr4`` (the data-TLB entry at pass entry: start, bytes,
    readable length, readable length - 4) and scratch ``a``/``o``/
    ``v``/``x``/``y``."""
    prefix = prefix_cycles(flat)
    total = prefix[-1]
    last = len(flat) - 1
    body = ["R = regs"]
    if any(entry[1] in _LOADS for entry in flat):
        # The data-TLB entry as of pass entry.  A load that misses it
        # calls the shared helper, which checks the live entry (and
        # refills it) before the canonical path; either way the value
        # is the memory's, so these locals never need refreshing.
        body.append("tb, td, tr, tr4 = tlb()")
    flags = False  # are the z/n locals bound yet?
    for j, (pc, op, regs, imm, off_pc, on_taken) in enumerate(flat):
        if op in _NO_CODE:
            continue
        # The rollback triple every out-of-line call carries (cycle
        # correction, instruction correction, PC) and the count of
        # instructions completed through this one.
        corr = dict(c=total - prefix[j], i=last - j, p=pc, k=j + 1)
        d, a, b = (regs + (0, 0, 0))[:3]

        if op in _BRANCHES:
            predicate = _BRANCHES[op]
            if predicate is not None and not flags and (j == last or off_pc >= 0):
                body += _FLAGS_FROM_VM
                flags = True
            if j == last:
                # Pass-closing terminator: set vm.pc either way; the
                # pass loop compares it with the superblock entry.
                target = fill("{t}", t=imm & _MASK)
                if predicate is None:
                    body.append(f"vm.pc = {target}")
                else:
                    nxt = fill("{x}", x=pc + INSTRUCTION_SIZE)
                    body.append(f"vm.pc = {target} if {predicate[0]} else {nxt}")
            elif off_pc >= 0:
                leaves = predicate[1 if on_taken else 0]
                body.append(f"if {leaves}: " + fill(
                    "leave(vm, {c}, {i}, {t}, {k})", t=off_pc, **corr))
            continue

        template = _ARITH.get(op)
        if template is not None:
            v = (imm or 0) & _IMM_MASK.get(op, _MASK)
            if op is _DIVI and v == 0:
                body.append(fill("div_zero(vm, {c}, {i}, {p})", **corr))
            else:
                body.append(fill(template, d=d, a=a, b=b, v=v, c=corr["c"]))
        elif op in _DIVIDE:
            body += [
                fill("y = R[{b}]", b=b),
                "if y == 0: " + fill("div_zero(vm, {c}, {i}, {p})", **corr),
                fill("R[{d}] = (R[{a}] " + _DIVIDE[op] + " y) & 0xFFFFFFFF", d=d, a=a),
            ]
        elif op in _COMPARES:
            if imm is None:  # CMP ra, rb
                body += [fill("x = R[{d}]", d=d), fill("y = R[{a}]", a=a),
                         "z = x == y", f"n = {_SIGNED_X} < {_SIGNED_Y}"]
            else:  # CMPI ra, imm
                value = imm & _MASK
                signed = value - 0x1_0000_0000 if value & 0x8000_0000 else value
                body += [fill("x = R[{d}]", d=d), fill("z = x == {v}", v=value),
                         f"n = {_SIGNED_X} < " + fill("{s}", s=signed)]
            body += ["vm.flag_zero = z", "vm.flag_neg = n"]
            flags = True
        elif op in _LOADS:
            size, stack = _LOADS[op]
            if stack:  # POP rd: load at SP, then bump SP
                body.append("a = R[15]")
                dest = "v"
            else:  # LD/LDB rd, [ra + disp]
                body.append(fill("a = (R[{a}] + {v}) & 0xFFFFFFFF", a=a, v=imm))
                dest = fill("R[{d}]", d=d)
            body += [
                "o = a - tb",
                f"if 0 <= o <= tr4: {dest} = U32(td, o)[0]" if size == 4
                else f"if 0 <= o < tr: {dest} = td[o]",
                f"else: {dest} = " + fill("load(vm, a, {s}, {st}, {c}, {i}, {p})",
                                          s=size, st=stack, **corr),
            ]
            if stack:
                body += ["R[15] = (R[15] + 4) & 0xFFFFFFFF", fill("R[{d}] = v", d=d)]
        elif op in _STORES:
            size, stack = _STORES[op]
            if stack:  # PUSH rs: decrement SP, store there
                body += [fill("v = R[{d}]", d=d), "a = (R[15] - 4) & 0xFFFFFFFF", "R[15] = a"]
                value = "v"
            else:  # ST/STB rs, [ra + disp]
                body.append(fill("a = (R[{a}] + {v}) & 0xFFFFFFFF", a=a, v=imm))
                value = fill("R[{d}]", d=d)
            body.append(f"store(vm, a, {value}, " + fill(
                "{s}, {st}, {c}, {i}, {p})", s=size, st=stack, **corr))
            # Conservative span check: a store anywhere in the fused
            # span ends the pass right after the write.
            body.append(fill("if {lo} < a < {hi}: smc_abort(vm, {c}, {i}, {x}, {k})",
                             lo=span_lo - size, hi=span_hi, x=pc + INSTRUCTION_SIZE, **corr))
        else:  # pragma: no cover - fusable blocks hold no other opcode
            raise AssertionError(f"no superblock template for {op!r}")
    return "def superblock(vm):\n" + "".join(f"    {line}\n" for line in body)
