"""Known answers for every computational SVM32 op, on every tier.

The interpreter, the block thunks, the compiled superblocks and the
installer's constant propagation all read one semantics table
(:mod:`repro.isa.semantics`), so diffing the engines against each other
no longer checks what an op computes.  These expected values are
written by hand, not read from the table, and each case runs:

- under the interpreter;
- in the threaded engine as blocks run once, below the fusion threshold;
- inside a fused superblock, as a loop run past the threshold, with
  operands the generator cannot see (loaded from memory) and with
  operands it folds (``li`` constants);
- for the ALU ops, through ``classify_syscall_args``: the result used as
  a syscall argument must be that immediate, and a zero divisor unknown.

A zero immediate divisor (``divi r, r, 0``) cannot sit in a superblock:
every member runs on every pass, so it would fault long before the loop
got hot.  It runs under the interpreter and in a block instead.
"""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM, threaded
from repro.isa.opcodes import (
    CONDITIONAL_BRANCHES,
    ENDS_BLOCK,
    MNEMONIC_TO_OP,
    TRAPS,
    WRITES_FIRST_REG,
    Op,
)
from repro.isa.semantics import ALU_BASE, BRANCHES, IMMEDIATE
from repro.plto import build_call_graph, build_cfg, classify_syscall_args, disassemble
from repro.plto.dataflow import ArgValue

#: (a, b, a op b) for each register ALU op, worked out by hand.  Operands
#: are u32; the shifts use the count mod 32; the divides are unsigned.
ALU_CASES = {
    "add": [
        (0, 0, 0),
        (1, 0xFFFFFFFF, 0),
        (0x7FFFFFFF, 1, 0x80000000),
        (0x7FFFFFFF, 0x80000000, 0xFFFFFFFF),
        (0x80000000, 0x80000000, 0),
        (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFE),
    ],
    "sub": [
        (0, 1, 0xFFFFFFFF),
        (1, 1, 0),
        (0x80000000, 1, 0x7FFFFFFF),
        (0x7FFFFFFF, 0xFFFFFFFF, 0x80000000),
        (0, 0x80000000, 0x80000000),
        (0xFFFFFFFF, 0, 0xFFFFFFFF),
    ],
    "mul": [
        (0, 0xFFFFFFFF, 0),
        (0x7FFFFFFF, 1, 0x7FFFFFFF),
        (0x7FFFFFFF, 0x7FFFFFFF, 1),
        (0x80000000, 0x80000000, 0),
        (0x80000000, 0xFFFFFFFF, 0x80000000),
        (0xFFFFFFFF, 0xFFFFFFFF, 1),
    ],
    "div": [
        (0, 0xFFFFFFFF, 0),
        (0xFFFFFFFF, 1, 0xFFFFFFFF),
        (0xFFFFFFFF, 0x7FFFFFFF, 2),
        (0xFFFFFFFF, 0x80000000, 1),
        (0x80000000, 0x80000000, 1),
        (0x80000000, 0xFFFFFFFF, 0),
        (0x7FFFFFFF, 0x80000000, 0),
    ],
    "mod": [
        (0, 0x7FFFFFFF, 0),
        (1, 0x80000000, 1),
        (0x7FFFFFFF, 1, 0),
        (0xFFFFFFFF, 0x7FFFFFFF, 1),
        (0xFFFFFFFF, 0x80000000, 0x7FFFFFFF),
        (0x80000000, 0xFFFFFFFF, 0x80000000),
    ],
    "and": [
        (0, 0xFFFFFFFF, 0),
        (1, 0xFFFFFFFF, 1),
        (0x80000000, 0x7FFFFFFF, 0),
        (0xFFFFFFFF, 0x7FFFFFFF, 0x7FFFFFFF),
        (0xFFFFFFFF, 0x80000000, 0x80000000),
    ],
    "or": [
        (0, 0, 0),
        (0, 1, 1),
        (0x80000000, 1, 0x80000001),
        (0x80000000, 0x7FFFFFFF, 0xFFFFFFFF),
        (0x7FFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
    ],
    "xor": [
        (0, 0xFFFFFFFF, 0xFFFFFFFF),
        (0x80000000, 1, 0x80000001),
        (0x7FFFFFFF, 0x80000000, 0xFFFFFFFF),
        (0xFFFFFFFF, 0x7FFFFFFF, 0x80000000),
        (0xFFFFFFFF, 0xFFFFFFFF, 0),
    ],
    "shl": [
        (1, 0, 1),
        (1, 31, 0x80000000),
        (1, 32, 1),
        (1, 33, 2),
        (0x7FFFFFFF, 1, 0xFFFFFFFE),
        (0x80000000, 1, 0),
        (0x80000000, 32, 0x80000000),
        (0xFFFFFFFF, 31, 0x80000000),
        (0xFFFFFFFF, 33, 0xFFFFFFFE),
    ],
    "shr": [
        (1, 1, 0),
        (0x7FFFFFFF, 32, 0x7FFFFFFF),
        (0x80000000, 31, 1),
        (0x80000000, 32, 0x80000000),
        (0x80000000, 33, 0x40000000),
        (0xFFFFFFFF, 0, 0xFFFFFFFF),
        (0xFFFFFFFF, 31, 1),
        (0xFFFFFFFF, 33, 0x7FFFFFFF),
    ],
}

#: Every ALU instruction form: ``(mnemonic, register op, immediate form)``.
FORMS = [pytest.param(name, name, False, id=name) for name in ALU_CASES] + [
    pytest.param(name + "i", name, True, id=name + "i")
    for name in ALU_CASES if name + "i" in MNEMONIC_TO_OP
]

#: (x, y) compare operand pairs and, per branch, whether it is taken.
#: ``less`` is signed-less but unsigned-greater, ``greater`` the mirror.
PAIRS = {
    "equal": (0x80000000, 0x80000000),
    "less": (0xFFFFFFFF, 1),
    "greater": (1, 0xFFFFFFFF),
}
TAKEN = {
    "beq": {"equal": True, "less": False, "greater": False},
    "bne": {"equal": False, "less": True, "greater": True},
    "blt": {"equal": False, "less": True, "greater": False},
    "bge": {"equal": True, "less": False, "greater": True},
    "ble": {"equal": True, "less": True, "greater": False},
    "bgt": {"equal": False, "less": False, "greater": True},
}
BRANCH_CASES = [
    pytest.param(branch, pair, immediate, id=f"{branch}-{pair}-{'cmpi' if immediate else 'cmp'}")
    for branch in TAKEN
    for pair in PAIRS
    for immediate in (False, True)
]

#: Loop trips: past the 256-execution fusion threshold, so the last
#: 40-odd trips run in the fused superblock.
TRIPS = 300


def _vm(source: str, engine: str) -> VM:
    image = link(assemble(source))
    memory = Memory()
    for segment in image.segments:
        prot = PROT_READ
        if segment.flags & 0x2:
            prot |= PROT_WRITE
        if segment.flags & 0x4:
            prot |= PROT_EXEC
        memory.map_region(
            segment.vaddr, max(segment.size, 16), prot,
            name=segment.name, data=segment.data,
        )
    return VM(memory=memory, entry=image.entry, engine=engine)


def _entered_superblock(vm: VM) -> bool:
    """Did a superblock get compiled, i.e. entered, during the run?"""
    return any(
        block.sb is not None and block.sb.run is not None
        for block in vm._block_cache._blocks.values()
    )


def _results(vm: VM, count: int) -> list:
    base = vm.regs[12]  # every program keeps its result array in r12
    return [vm.memory.read_u32(base + 4 * i) for i in range(count)]


def _alu_line(mnemonic: str, immediate: bool, b: int) -> str:
    if immediate:
        return f"    {mnemonic} r3, r1, {b:#x}"
    return f"    {mnemonic} r3, r1, r2"


def _straight_line(mnemonic: str, immediate: bool, cases) -> str:
    lines = ["    li r12, res"]
    for i, (a, b, _) in enumerate(cases):
        lines += [f"    li r1, {a:#x}", f"    li r2, {b:#x}",
                  _alu_line(mnemonic, immediate, b), f"    st r3, [r12+{4 * i}]"]
    return _program(lines + ["    halt"], len(cases))


def _hot_loop(mnemonic: str, immediate: bool, cases, folded: bool) -> str:
    """One loop trip computes every case; ``folded`` loads the operands
    with ``li`` (the generator folds them), else from memory."""
    body = []
    for i, (a, b, _) in enumerate(cases):
        if folded:
            body += [f"    li r1, {a:#x}", f"    li r2, {b:#x}"]
        else:
            body += [f"    ld r1, [r13+{8 * i}]", f"    ld r2, [r13+{8 * i + 4}]"]
        body += [_alu_line(mnemonic, immediate, b), f"    st r3, [r12+{4 * i}]"]
    lines = ["    li r12, res", "    li r13, operands", "    li r10, 0", "loop:", *body,
             "    addi r10, r10, 1", f"    cmpi r10, {TRIPS}", "    blt loop", "    halt"]
    operands = [f"    .word {a:#x}\n    .word {b:#x}" for a, b, _ in cases]
    return _program(lines, len(cases), "operands:\n" + "\n".join(operands))


def _program(lines, results: int, data: str = "") -> str:
    return "\n".join([
        ".section .text", "_start:", *lines,
        ".section .data", "res:", f"    .space {4 * results}", data, "",
    ])


class TestAluKnownAnswers:
    @pytest.mark.parametrize("mnemonic,op,immediate", FORMS)
    @pytest.mark.parametrize("engine", ["interp", "threaded"])
    def test_straight_line(self, mnemonic, op, immediate, engine):
        cases = ALU_CASES[op]
        vm = _vm(_straight_line(mnemonic, immediate, cases), engine)
        vm.run()
        assert _results(vm, len(cases)) == [r for _, _, r in cases]
        if engine == "threaded":
            assert vm._block_cache.superblocks_fused == 0  # blocks, each run once

    @pytest.mark.parametrize("mnemonic,op,immediate", FORMS)
    @pytest.mark.parametrize("folded", [False, True], ids=["loaded", "folded"])
    def test_fused_superblock(self, mnemonic, op, immediate, folded):
        cases = ALU_CASES[op]
        vm = _vm(_hot_loop(mnemonic, immediate, cases, folded), "threaded")
        vm.run()
        assert _entered_superblock(vm)
        assert vm.regs[10] == TRIPS
        assert _results(vm, len(cases)) == [r for _, _, r in cases]

    @pytest.mark.parametrize("mnemonic,op,immediate", FORMS)
    def test_folded_syscall_argument(self, mnemonic, op, immediate):
        cases = ALU_CASES[op]
        lines = []
        for a, b, _ in cases:
            line = f"    {mnemonic} r1, r8, {b:#x}" if immediate else f"    {mnemonic} r1, r8, r9"
            lines += ["    li r0, 20", f"    li r8, {a:#x}", f"    li r9, {b:#x}", line, "    sys"]
        sites = _sites(lines)
        assert [site.args[0] for site in sites] == [ArgValue.const(r) for _, _, r in cases]


def _sites(lines) -> list:
    source = "\n".join([".section .text", "_start:", *lines, "    halt", ""])
    graph = build_call_graph(build_cfg(disassemble(assemble(source))))
    return sorted(classify_syscall_args(graph).values(), key=lambda site: site.insn_index)


class TestDivisionByZero:
    @pytest.mark.parametrize("line", ["div r3, r1, r2", "mod r3, r1, r2", "divi r3, r1, 0"])
    @pytest.mark.parametrize("engine", ["interp", "threaded"])
    def test_straight_line(self, line, engine):
        # li (1 cycle) + li (1) + the divide (20), charged before it runs.
        vm = _vm(f".section .text\n_start:\n    li r1, 7\n    li r2, 0\n    {line}\n"
                 "    li r4, 1\n    halt\n", engine)
        entry = vm.pc
        with pytest.raises(ExecutionFault, match="division by zero") as fault:
            vm.run()
        assert fault.value.pc == entry + 16
        assert (vm.pc, vm.cycles, vm.instructions_executed) == (entry + 16, 22, 3)
        assert vm.regs[3] == 0 and vm.regs[4] == 0

    @pytest.mark.parametrize("mnemonic", ["div", "mod"])
    def test_fused_superblock(self, mnemonic):
        # The divisor 290 - r10 reaches zero on trip 291, in the superblock.
        source = f"""
.section .text
_start:
    li r1, 7
    li r5, 290
    li r10, 0
loop:
    sub r2, r5, r10
    {mnemonic} r3, r1, r2
    addi r10, r10, 1
    cmpi r10, {TRIPS}
    blt loop
    halt
"""
        runs = {}
        for engine in ("interp", "threaded"):
            vm = _vm(source, engine)
            with pytest.raises(ExecutionFault, match="division by zero") as fault:
                vm.run()
            runs[engine] = (fault.value.pc, vm.pc, vm.cycles, vm.instructions_executed,
                            tuple(vm.regs))
        entry = _vm(source, "interp").pc
        # 3 li, then 290 whole trips of 5 instructions (1 + 20 + 1 + 1 + 2
        # cycles), then the sub and the divide of trip 291.
        assert runs["interp"][:4] == (entry + 32, entry + 32, 3 + 290 * 25 + 21, 3 + 290 * 5 + 2)
        assert runs["threaded"] == runs["interp"]
        assert _entered_superblock(vm)

    @pytest.mark.parametrize("line", ["div r1, r8, r9", "mod r1, r8, r9", "divi r1, r8, 0"])
    def test_folded_syscall_argument_is_unknown(self, line):
        (site,) = _sites(["    li r0, 20", "    li r8, 7", "    li r9, 0", f"    {line}",
                          "    sys"])
        assert site.args[0] == ArgValue.top()


def _compare_line(pair: str, immediate: bool) -> str:
    return f"    cmpi r1, {PAIRS[pair][1]:#x}" if immediate else "    cmp r1, r2"


class TestBranchKnownAnswers:
    @pytest.mark.parametrize("branch,pair,immediate", BRANCH_CASES)
    @pytest.mark.parametrize("engine", ["interp", "threaded"])
    def test_straight_line(self, branch, pair, immediate, engine):
        x, y = PAIRS[pair]
        vm = _vm(f"""
.section .text
_start:
    li r1, {x:#x}
    li r2, {y:#x}
{_compare_line(pair, immediate)}
    {branch} taken
    li r11, 1
    halt
taken:
    li r11, 2
    halt
""", engine)
        vm.run()
        assert vm.regs[11] == (2 if TAKEN[branch][pair] else 1)

    @pytest.mark.parametrize("branch,pair,immediate", BRANCH_CASES)
    def test_fused_superblock(self, branch, pair, immediate):
        """The branch's expected way stays on the loop's cycle and the
        other way leaves it for ``wrong``.  The branch heads each trip
        and the compare ends it, so in a pass of the unrolled loop the
        first copy of the branch reads the flags and the later copies
        the compare's operands."""
        target, other = ("body", "wrong") if TAKEN[branch][pair] else ("wrong", "body")
        compare = _compare_line(pair, immediate)
        vm = _vm(f"""
.section .text
_start:
    li r10, 0
    li r11, 0
    li r13, operands
    ld r1, [r13+0]
    ld r2, [r13+4]
{compare}
loop:
    {branch} {target}
    jmp {other}
body:
    addi r10, r10, 1
    cmpi r10, {TRIPS}
    bge done
{compare}
    jmp loop
wrong:
    li r11, 1
    halt
done:
    li r11, 2
    halt
.section .data
operands:
    .word {PAIRS[pair][0]:#x}
    .word {PAIRS[pair][1]:#x}
""", "threaded")
        vm.run()
        assert _entered_superblock(vm)
        assert (vm.regs[11], vm.regs[10]) == (2, TRIPS)


class TestOpcodeClasses:
    """The classes derived from the opcode table, against hand lists."""

    def test_block_ends_and_branches(self):
        conditional = {Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT}
        assert CONDITIONAL_BRANCHES == conditional
        assert set(BRANCHES) == conditional
        assert TRAPS == {Op.SYS, Op.ASYS}
        assert ENDS_BLOCK == conditional | {
            Op.JMP, Op.JR, Op.CALL, Op.CALLR, Op.RET, Op.HALT, Op.SYS, Op.ASYS,
        }

    def test_writes_first_register(self):
        alu = {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR, Op.SHL,
               Op.SHR, Op.ADDI, Op.SUBI, Op.MULI, Op.DIVI, Op.ANDI, Op.ORI, Op.XORI,
               Op.SHLI, Op.SHRI}
        assert set(ALU_BASE) == alu
        assert WRITES_FIRST_REG == alu | {
            Op.LI, Op.MOV, Op.LD, Op.LDB, Op.POP, Op.RDTSC, Op.RDTSCH,
        }

    def test_immediate_forms(self):
        assert IMMEDIATE == {
            Op.ADDI: Op.ADD, Op.SUBI: Op.SUB, Op.MULI: Op.MUL, Op.DIVI: Op.DIV,
            Op.ANDI: Op.AND, Op.ORI: Op.OR, Op.XORI: Op.XOR, Op.SHLI: Op.SHL,
            Op.SHRI: Op.SHR,
        }

    def test_every_op_has_a_block_thunk_factory(self):
        assert set(threaded._FACTORIES) == set(Op)
