"""Python source for compiled superblock loops.

:func:`pass_source` turns the flat, unrolled member list that
:meth:`repro.cpu.threaded.BlockCache._fuse` builds into the source of
one function, ``superblock(vm, b)``, that runs whole passes over the
fused cycle for as long as the instruction budget ``b`` covers another
one and returns how many instructions it ran.  The caller accounts the
first pass before the call; the function accounts each later pass as it
starts it.  A one-argument call runs exactly one pass.

Inside the function the guest registers it touches are Python locals
(``r0``..``r15``), loaded from the register file once per call:

- **Constants propagate.**  A register set by ``LI`` (or computed from
  known values only) is substituted into later code as a literal and
  folded; its local is assigned only before something that can observe
  it (any helper call or exit, and the end of the pass), so an ``LI``
  the next instruction overwrites costs nothing.  An address with no
  displacement is the base register itself.
- **Flags are lazy.**  A compare only records its operands in ``fx``/
  ``fy``; the branches after it test those with the compare's literal
  folded in, and ``vm.flag_zero``/``vm.flag_neg`` are computed from
  them once, at write-back.  A branch that runs before the pass's first
  compare reads ``z``/``n``: the VM's flags on the first pass, the last
  compare's on later ones.
- **One write-back.**  The pass loop sits in one ``try``/``finally``
  that stores the written registers and the flags back to ``vm``, so
  every way out (the loop's end, an off-cycle ``leave``, an SMC abort,
  a fault raised by ``div_zero`` or by the ``load``/``store`` helpers)
  leaves the state the interpreter leaves.  No helper reads the
  registers or flags, so writing them after the helper has run is
  exact.

The engine compiles that source once per superblock against a fresh
namespace holding only the names the source reads: ``regs`` (the
register file), ``tlb`` (the data-TLB unpacker), ``load``/``store``
(the shared memory slow paths), ``leave``, ``smc_abort`` and
``div_zero`` (exits and faults) and ``U32``.  The ``threaded`` module
docstring describes what a pass does inline and what it leaves to
those helpers.

The source is assembled from fixed templates.  The only values
formatted into them are integers the generator computed itself —
register indices from ``decode_fields``, masked immediates and folded
constants, PCs and accounting corrections — and :func:`fill` rejects
anything else, so no guest byte or string can become source text.
Operand texts (a register local or a literal) are themselves
:func:`fill` output.

What an ALU op, a compare or a branch computes is not written here: the
templates are the text of :mod:`repro.isa.semantics`, the constant
folding calls the function the table compiles from that text, and a
branch's test is the table's relation over the compared operands (their
signed-order keys for an ordering) or, ahead of the pass's first
compare, its flag test.  :func:`thunk_factories` turns the same text
into the block engine's ALU, compare and branch thunk factories, once
per process.
"""

from __future__ import annotations

from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.opcodes import OPCODE_INFO, Op
from repro.isa.semantics import (
    ALU,
    ALU_BASE,
    ALU_TEXT,
    BRANCHES,
    COMPARE,
    COMPARES,
    DIVIDES,
    SHIFTS,
    SIGNED_ORDER,
    signed_order,
)

_MASK = 0xFFFFFFFF
_CPUWORK = Op.CPUWORK

#: Cycle-counter reads: ``c`` is the correction from the batched total.
_RDTSC = {
    Op.RDTSC: "(vm.cycles - {c}) & 0xFFFFFFFF",
    Op.RDTSCH: "((vm.cycles - {c}) >> 32) & 0xFFFFFFFF",
}
#: Memory access -> (size, stack); ``stack`` selects the PUSH/POP
#: fault-message prefix in the shared helpers.
_LOADS = {Op.LD: (4, 0), Op.LDB: (1, 0), Op.POP: (4, 1)}
_STORES = {Op.ST: (4, 0), Op.STB: (1, 0), Op.PUSH: (4, 1)}
#: Accounting-only opcodes: their cycles are in the batched total.
_NO_CODE = frozenset((Op.NOP, Op.CPUWORK))
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}
#: Each branch relation's test over the flag locals ``z``/``n``, for a
#: branch that runs before the pass's first compare.
_FLAG_TEST = {
    branch.relation: branch.flags.format(z="z", n="n") for branch in BRANCHES.values()
}


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


class _Code(str):
    """Source text that :func:`fill` built from ints: an operand (a
    register local or a literal) that may go into another template."""


def fill(template: str, **fields) -> _Code:
    """Format a template with generator-computed integers (or text
    :func:`fill` built from them) only; any other type (a string,
    bytes, a bool) is a generator bug."""
    for value in fields.values():
        if type(value) is not int and type(value) is not _Code:
            raise TypeError(f"superblock source takes ints, got {type(value).__name__}")
    return _Code(template.format(**fields))


#: The local each guest register lives in.
_REG = tuple(fill("r{r}", r=reg) for reg in range(16))


def _condition(relation: str, compared) -> _Code:
    """The test of ``relation`` between the operands of the compare
    before it in the pass: ``fx`` and the literal ``compared``, or
    ``fy`` when that is ``None``.  An ordering compares the operands'
    signed-order keys."""
    left, right = "fx", "fy"
    if relation not in ("==", "!="):
        left, right = SIGNED_ORDER.format(v=left), SIGNED_ORDER.format(v=right)
        if compared is not None:
            compared = signed_order(compared)
    if compared is None:
        return fill(left + " " + relation + " " + right)
    return fill(left + " " + relation + " {v}", v=compared)


def pass_source(flat: list, span_lo: int, span_hi: int):
    """Emit a superblock's pass loop as Python source.

    ``flat`` is the unrolled member list ``(pc, op, regs, imm, off_pc,
    on_taken)``: ``off_pc`` is the off-cycle successor of a member's
    conditional terminator (-1 when control stays on the cycle either
    way) and ``on_taken`` whether the cycle continues on the taken
    edge.  The first entry is the head, the last closes the pass.
    ``[span_lo, span_hi)`` is the fused code span a store must not
    touch.

    Besides the register locals the function uses ``b`` (the budget),
    ``d`` (instructions the call's finished passes ran), ``fx``/``fy``
    (the last compare's operands; ``fx`` is None before the call's
    first), ``z``/``n`` (the flags a branch ahead of the pass's first
    compare reads), ``tb``/``td``/``tr``/``tr4`` (the data-TLB entry:
    start, bytes, readable length, readable length - 4; re-read after
    every load miss) and scratch ``a``/``o``/``v``."""
    prefix = prefix_cycles(flat)
    total = prefix[-1]
    count = len(flat)
    last = count - 1
    body = []
    known = {}  # register -> the constant it holds here
    pending = set()  # known registers whose local is not assigned yet
    written = set()

    def operand(reg: int) -> _Code:
        value = known.get(reg)
        return _REG[reg] if value is None else fill("{v}", v=value)

    def overwritten(reg: int) -> None:
        known.pop(reg, None)
        pending.discard(reg)
        written.add(reg)

    def assign(reg: int, template: str, **fields) -> None:
        overwritten(reg)
        body.append(fill("r{r} = " + template, r=reg, **fields))

    def constant(reg: int, value: int) -> None:
        known[reg] = value
        pending.add(reg)
        written.add(reg)

    def flush() -> None:
        # Before anything that can leave the function, and at the end
        # of the pass: every local holds its register's value.
        for reg in sorted(pending):
            body.append(fill("r{r} = {v}", r=reg, v=known[reg]))
        pending.clear()

    def address(reg: int, disp: int) -> _Code:
        base = known.get(reg)
        if base is not None:
            return fill("{v}", v=(base + disp) & _MASK)
        if disp & _MASK == 0:
            return _REG[reg]
        body.append(fill("a = (r{r} + {v}) & 0xFFFFFFFF", r=reg, v=disp & _MASK))
        return fill("a")

    compared = None  # the last compare's right operand, when a literal
    seen_compare = False
    reads_flags = False  # does a branch run before the pass's first compare?
    closing = None
    for j, (pc, op, regs, imm, off_pc, on_taken) in enumerate(flat):
        if op in _NO_CODE:
            continue
        # The rollback triple every out-of-line call carries (cycle
        # correction, instruction correction, PC) and the count of
        # instructions this pass has completed through this one (the
        # call's earlier passes, ``d``, are added at run time).
        corr = dict(c=total - prefix[j], i=last - j, p=pc, k=j + 1)
        d, a, b = (regs + (0, 0, 0))[:3]

        if op in BRANCHES:
            if off_pc < 0:
                continue  # both ways stay on the cycle
            # The relation under which the branch leaves the cycle.
            relation = BRANCHES[op].relation
            if on_taken:
                relation = _NEGATED[relation]
            if seen_compare:
                test = _condition(relation, compared)
            else:
                test = fill(_FLAG_TEST[relation])
                reads_flags = True
            flush()
            if j == last:
                closing = fill("if {t}: vm.pc = {o}; break", t=test, o=off_pc)
            else:
                body.append(fill("if {t}: leave(vm, {c}, {i}, {o}, {k} + d)",
                                 t=test, o=off_pc, **corr))
        elif op is Op.JMP:
            continue  # its target is the next member
        elif op in COMPARES:
            if imm is None:  # CMP ra, rb
                compared = known.get(a)
                right = operand(a)
            else:  # CMPI ra, imm
                compared = imm & _MASK
                right = fill("{v}", v=compared)
            body.append(fill("fx = {x}; fy = {y}", x=operand(d), y=right))
            seen_compare = True
        elif op is Op.LI:
            constant(d, imm & _MASK)
        elif op is Op.MOV:
            if a in known:
                constant(d, known[a])
            elif d != a:
                assign(d, "{a}", a=_REG[a])
        elif op in _RDTSC:
            assign(d, _RDTSC[op], c=corr["c"])
        elif op in ALU_BASE:
            base = ALU_BASE[op]
            template = ALU_TEXT[base]
            left = known.get(a)
            right = known.get(b) if imm is None else imm & _MASK
            if base in SHIFTS and right is not None:
                right &= 31
            if base in DIVIDES and right == 0:  # a zero divisor the generator knows
                flush()
                body.append(fill("div_zero(vm, {c}, {i}, {p})", **corr))
                continue
            if base in DIVIDES and right is None:
                flush()
                body.append(fill("if r{r} == 0: div_zero(vm, {c}, {i}, {p})", r=b, **corr))
            if left is not None and right is not None:
                constant(d, ALU[base](left, right))
            elif right is not None:
                assign(d, template, a=operand(a), b=right)
            elif base in SHIFTS:
                assign(d, template, a=operand(a), b=fill("(r{r} & 31)", r=b))
            else:
                assign(d, template, a=operand(a), b=operand(b))
        elif op in _LOADS:
            size, stack = _LOADS[op]
            flush()
            where = operand(15) if stack else address(a, imm)
            into = fill("v") if stack else _REG[d]
            fields = dict(w=where, v=into, s=size, st=stack, **corr)
            body += [
                fill("o = {w} - tb", w=where),
                fill("if 0 <= o <= tr4: {v} = U32(td, o)[0]" if size == 4
                     else "if 0 <= o < tr: {v} = td[o]", v=into),
                fill("else: {v} = load(vm, {w}, {s}, {st}, {c}, {i}, {p}); "
                     "tb, td, tr, tr4 = tlb()", **fields),
            ]
            if stack:  # POP rd: bump SP, then set rd (which may be SP)
                assign(15, "({s} + 4) & 0xFFFFFFFF", s=operand(15))
                assign(d, "v")
            else:
                overwritten(d)
        elif op in _STORES:
            size, stack = _STORES[op]
            flush()
            value = operand(d)
            if stack:  # PUSH rs: decrement SP, then store the old rs there
                if value == "r15":
                    body.append("v = r15")
                    value = fill("v")
                assign(15, "({s} - 4) & 0xFFFFFFFF", s=operand(15))
                where = fill("r15")
            else:  # ST/STB rs, [ra + disp]
                where = address(a, imm)
            body.append(fill("store(vm, {w}, {v}, {s}, {st}, {c}, {i}, {p})",
                             w=where, v=value, s=size, st=stack, **corr))
            # Conservative span check: a store anywhere in the fused
            # span ends the pass right after the write.
            body.append(fill("if {lo} < {w} < {hi}: smc_abort(vm, {c}, {i}, {x}, {k} + d)",
                             lo=span_lo - size, w=where, hi=span_hi,
                             x=pc + INSTRUCTION_SIZE, **corr))
        else:  # pragma: no cover - fusable blocks hold no other opcode
            raise AssertionError(f"no superblock template for {op!r}")

    # The pass's end: every local current; leave the cycle, stop where
    # the budget cannot cover another pass, or account the next one.
    flush()
    # The flags of the compare recorded in ``fx``/``fy``.
    zero, neg = (text.format(x="fx", y="fy") for text in COMPARE)
    body.append(fill("d += {n}", n=count))
    if closing is not None:
        body.append(closing)
    body.append(fill("if d + {n} > b: vm.pc = {h}; break", n=count, h=flat[0][0]))
    if reads_flags and seen_compare:
        body += ["z = " + zero, "n = " + neg]
    body += [fill("vm.cycles += {t}", t=total),
             fill("vm.instructions_executed += {n}", n=count)]

    touched = set()
    for _, op, regs, *_ in flat:
        touched.update(regs)
        if op is Op.PUSH or op is Op.POP:
            touched.add(15)
    head = ["R = regs"] + [fill("r{r} = R[{r}]", r=reg) for reg in sorted(touched)]
    if reads_flags:
        head += ["z = vm.flag_zero", "n = vm.flag_neg"]
    if seen_compare:
        head.append("fx = None")
    if any(entry[1] in _LOADS for entry in flat):
        head.append("tb, td, tr, tr4 = tlb()")
    head += ["d = 0", "try:", "    while True:"]
    writeback = [fill("R[{r}] = r{r}", r=reg) for reg in sorted(written)]
    if seen_compare:
        writeback += ["if fx is not None:",
                      "    vm.flag_zero = " + zero,
                      "    vm.flag_neg = " + neg]
    return "".join([
        fill("def superblock(vm, b={n}):\n", n=count),
        *[f"    {line}\n" for line in head],
        *[f"            {line}\n" for line in body],
        "    finally:\n",
        *[f"        {line}\n" for line in writeback or ["pass"]],
        "    return d\n",
    ])


def thunk_factories(namespace: dict) -> dict:
    """Compile the block-thunk factories of the ALU, compare and
    conditional-branch ops from the semantics table's text, once.

    Each is ``factory(cache, regs, pc, fields, imm, cyc_corr,
    icnt_corr, consumed, end)`` like the engine's hand-written ones
    (:mod:`repro.cpu.threaded`), and its thunk evaluates the table's
    expression inline, with no call per executed instruction.  Only the
    table's fixed text and local names enter the source.  ``namespace``
    is the factories' globals: the one helper they call, ``div_zero``
    (a zero divisor), and no builtins."""
    sources = {}
    for op, base in ALU_BASE.items():
        if op is base:  # op rd, ra, rb
            lines = ["d, a, b = fields", "def thunk(vm):"]
            right = "(regs[b] & 31)" if base in SHIFTS else "regs[b]"
            if base in DIVIDES:
                lines += ["    divisor = regs[b]",
                          "    if divisor == 0:",
                          "        div_zero(vm, cyc_corr, icnt_corr, pc)"]
                right = "divisor"
        else:  # op rd, ra, imm
            lines = ["d, a = fields",
                     "b = imm & 31" if base in SHIFTS else "b = imm & 0xFFFFFFFF"]
            if base in DIVIDES:
                lines += ["if b == 0:",
                          "    def thunk(vm):",
                          "        div_zero(vm, cyc_corr, icnt_corr, pc)",
                          "    return thunk"]
            lines.append("def thunk(vm):")
            right = "b"
        lines.append("    regs[d] = " + ALU_TEXT[base].format(a="regs[a]", b=right))
        sources[op] = lines
    zero, neg = (text.format(x="x", y="y") for text in COMPARE)
    flags = ["    vm.flag_zero = " + zero, "    vm.flag_neg = " + neg]
    sources[Op.CMP] = ["a, b = fields", "def thunk(vm):", "    x = regs[a]",
                       "    y = regs[b]", *flags]
    sources[Op.CMPI] = ["a = fields[0]", "y = imm & 0xFFFFFFFF", "def thunk(vm):",
                        "    x = regs[a]", *flags]
    for op, branch in BRANCHES.items():
        test = branch.flags.format(z="vm.flag_zero", n="vm.flag_neg")
        sources[op] = ["target = imm & 0xFFFFFFFF", f"nxt = pc + {INSTRUCTION_SIZE}",
                       "def thunk(vm):", f"    vm.pc = target if ({test}) else nxt"]

    names = {op: "make_" + OPCODE_INFO[op].mnemonic for op in sources}
    source = "".join(
        f"def {names[op]}(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):\n"
        + "".join(f"    {line}\n" for line in lines)
        + "    return thunk\n"
        for op, lines in sources.items()
    )
    exec(compile(source, "<block-thunk factories>", "exec"), namespace)
    return {op: namespace[name] for op, name in names.items()}
