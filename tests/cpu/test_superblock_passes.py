"""Compiled superblock loops: one call, many passes, one write-back.

A generated superblock function keeps the guest registers it touches
in Python locals, records a compare's operands instead of setting the
flags, and runs whole passes until the budget or an exit stops it;
registers and flags reach the VM only in its ``finally``.  Each test
here makes one way out of the function happen in the second or a later
pass of a single call, at the head of that pass, so the registers and
flags the VM must end up with were last set in an earlier pass — then
checks the run against the interpreter, whole and sliced.  A spy around
every compiled function records where each call stopped, so the tests
also prove the exit really was that late.
"""

import pytest

from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM
from repro.cpu import codegen, threaded
from repro.isa import Instruction
from repro.isa.opcodes import Op
from tests.cpu.test_superblocks import _differential, _encode, _loop, _run, _source_vm, _state


@pytest.fixture
def calls(monkeypatch):
    """Where every call of a compiled superblock function stopped:
    ``(kind, pass count, instructions)``, ``kind`` one of ``return``,
    ``abort`` (a ``BlockAbort``; instructions is its ``consumed``) or
    ``fault`` (instructions the call counted, the faulting one too)."""
    log = []
    compile_pass = threaded.BlockCache._compile_pass

    def spying(self, sb):
        run = compile_pass(self, sb)
        count = sb.count

        def spy(vm, b=count):
            start = vm.instructions_executed - count  # the caller accounted pass 1
            try:
                ran = run(vm, b)
            except threaded.BlockAbort as abort:
                log.append(("abort", count, abort.consumed))
                raise
            except ExecutionFault:
                log.append(("fault", count, vm.instructions_executed - start))
                raise
            log.append(("return", count, ran))
            return ran

        sb.run = spy
        return spy

    monkeypatch.setattr(threaded.BlockCache, "_compile_pass", spying)
    return log


def _late_head_exits(log, kind: str) -> list:
    """The pass index (0-based) of each ``kind`` exit taken at the head
    of the second or a later pass of its call."""
    found = []
    for what, count, instructions in log:
        if what != kind:
            continue
        before = instructions - 1  # both counts include the exiting instruction
        if before >= count and before % count == 0:
            found.append(before // count)
    return found


def _sliced(make_vm, slice_len: int) -> None:
    """Run ``make_vm(engine)`` in ``slice_len`` slices under both
    engines; every slice must stop in the same state."""
    snapshots = []
    for engine in ("interp", "threaded"):
        vm = make_vm(engine)
        states = []
        while vm.exit_status is None and len(states) < 10_000:
            try:
                vm.run_slice(slice_len)
            except ExecutionFault as fault:
                states.append(_state(vm, fault))
                break
            states.append(_state(vm, None))
        snapshots.append(states)
    assert snapshots[1] == snapshots[0]


#: A 16-trip pass whose head is a lone BEQ on the flags the previous
#: trip's compare left.  Inner run ``k`` leaves after ``40 + k`` trips,
#: so for k = 8 and k = 24 the exit is the head of a later pass (trips
#: 48 and 64): r7 and the flags were last set in the pass before.  The
#: code after the loop folds r7 in and checks the flags.
LEAVE_AT_A_PASS_HEAD = """
.section .text
_start:
    li r10, 0
    li r13, 0
outer:
    li r1, 0
    addi r6, r10, 40
    cmpi r1, 1
    jmp loop
loop:
    beq out
    addi r14, r14, 5
    addi r1, r1, 1
    mul r7, r1, r1
    cmp r1, r6
    jmp loop
out:
    add r13, r13, r7
    bne bad
    addi r10, r10, 1
    cmpi r10, 30
    blt outer
    halt
bad:
    li r13, 0xBAD
    halt
"""


def _walk(access: str) -> str:
    """A loop whose head ``access``es [r13], 64 bytes further each trip,
    until it runs off .data at trip 304 — the head of the fourth pass
    of the call that starts when the loop fuses (trip 256).  r1, r7 and
    r13 were last written, and the flags (which flip at trip 290) last
    set, in the pass before."""
    return f"""
.section .text
_start:
    li r1, 0
    li r13, buf
    jmp loop
loop:
    {access}
    addi r13, r13, 64
    mul r7, r1, r1
    addi r1, r1, 1
    cmpi r1, 290
    blt next
next:
    jmp loop
.section .data
buf:
    .space 19400
"""


class TestExitsInALaterPass:
    def test_leave(self, calls):
        expected, _ = _differential(LEAVE_AT_A_PASS_HEAD)
        assert expected["regs"][13] != 0xBAD
        assert _late_head_exits(calls, "abort") == [3, 4]

    @pytest.mark.parametrize("slice_len", [250, 500, 1000, 1999])
    def test_leave_sliced(self, slice_len):
        _sliced(lambda engine: _source_vm(LEAVE_AT_A_PASS_HEAD, engine), slice_len)

    @pytest.mark.parametrize("access", ["ld r5, [r13+0]", "ldb r5, [r13+0]"])
    def test_load_miss_fault(self, calls, access):
        expected, _ = _differential(_walk(access))
        assert "unmapped" in expected["fault"][1]
        assert expected["flags"] == (False, False)
        assert _late_head_exits(calls, "fault") == [3]

    @pytest.mark.parametrize("access", ["st r1, [r13+0]", "stb r1, [r13+0]"])
    def test_store_fault(self, calls, access):
        expected, _ = _differential(_walk(access))
        assert "unmapped" in expected["fault"][1]
        assert _late_head_exits(calls, "fault") == [3]

    def test_division_by_zero(self, calls):
        # r6 = 304 - r1 after each trip, so the head's DIV faults on
        # trip 304.
        source = """
.section .text
_start:
    li r1, 0
    li r2, 1000003
    li r6, 1
    jmp loop
loop:
    div r5, r2, r6
    addi r1, r1, 1
    li r6, 304
    sub r6, r6, r1
    mul r7, r1, r1
    cmpi r1, 290
    blt next
next:
    jmp loop
"""
        expected, _ = _differential(source)
        assert expected["fault"][1].endswith("division by zero")
        assert _late_head_exits(calls, "fault") == [3]

    @staticmethod
    def _smc_vm(engine: str) -> VM:
        # The head stores r8 (HALT's first word) through a pointer the
        # previous trip loaded from a table: scratch memory until trip
        # 292 (the head of the fourth pass), then the NOP right after
        # the store.  The pass aborts after the store and the machine
        # halts there, so the final state is the state at the abort.
        code = _encode([
            Instruction(Op.LI, regs=(1,), imm=0),               # 0x1000
            Instruction(Op.LI, regs=(4,), imm=0x5000),
            Instruction(Op.LI, regs=(3,), imm=0x6000),
            Instruction(Op.LI, regs=(8,), imm=1),
            Instruction(Op.JMP, imm=0x1028),
            Instruction(Op.ST, regs=(8, 3), imm=0),             # 0x1028 loop
            Instruction(Op.NOP),                                # 0x1030
            Instruction(Op.LD, regs=(3, 4), imm=0),
            Instruction(Op.ADDI, regs=(4, 4), imm=4),
            Instruction(Op.MUL, regs=(7, 1, 1)),
            Instruction(Op.ADDI, regs=(1, 1), imm=1),
            Instruction(Op.CMPI, regs=(1,), imm=400),
            Instruction(Op.BGE, imm=0x1080),
            Instruction(Op.CMPI, regs=(1,), imm=290),           # 0x1068
            Instruction(Op.JMP, imm=0x1028),
            Instruction(Op.HALT),                               # 0x1078
            Instruction(Op.HALT),                               # 0x1080
        ])
        targets = [0x6000 + 8 * (i + 1) for i in range(400)]
        targets[291] = 0x1030
        table = b"".join(t.to_bytes(4, "little") for t in targets)
        memory = Memory()
        memory.map_region(0x1000, 0x1000, PROT_READ | PROT_WRITE | PROT_EXEC,
                          data=code, name="text")
        memory.map_region(0x5000, 0x1000, PROT_READ, data=table, name="table")
        memory.map_region(0x6000, 0x1000, PROT_READ | PROT_WRITE, name="scratch")
        return VM(memory=memory, entry=0x1000, engine=engine)

    def test_smc_abort(self, calls):
        states = {engine: _run(self._smc_vm(engine)) for engine in ("interp", "threaded")}
        assert states["threaded"] == states["interp"]
        assert states["interp"]["pc"] == 0x1030
        assert states["interp"]["regs"][1] == 292
        assert _late_head_exits(calls, "abort") == [3]

    @pytest.mark.parametrize("slice_len", [500, 1000])
    def test_smc_abort_sliced(self, slice_len):
        _sliced(self._smc_vm, slice_len)


class TestLazyFlagsAndConstants:
    def test_compared_register_changes_before_the_exit(self):
        # The exit's flags are the compare's (r1 == 601), not r1's
        # value when the branch leaves (602).
        source = """
.section .text
_start:
    li r1, 0
loop:
    addi r1, r1, 1
    cmpi r1, 601
    addi r1, r1, 1
    bge out
    jmp loop
out:
    halt
"""
        expected, _ = _differential(source)
        assert expected["flags"] == (True, False)
        assert expected["regs"][1] == 602

    def test_li_constant_is_in_its_register_at_an_exit(self):
        # r8 is 11 at the exit and 22 at the end of every trip (and of
        # every pass: the head is the block at ``loop``); the generator
        # folds both LIs, so the exit must assign r8 first.
        source = """
.section .text
_start:
    li r1, 0
    jmp loop
loop:
    li r8, 11
    addi r1, r1, 1
    cmpi r1, 333
    bge out
    li r8, 22
    jmp loop
out:
    halt
"""
        expected, _ = _differential(source)
        assert expected["regs"][8] == 11

    def test_first_pass_branch_reads_the_vm_flags(self):
        # The head is a BEQ ahead of any compare.  On odd outer trips the
        # flags the call starts with make it leave at once; on even ones
        # the loop runs 60 trips, and later passes read the flags the
        # previous pass's last compare left.
        source = """
.section .text
_start:
    li r10, 0
outer:
    li r1, 0
    andi r5, r10, 1
    cmpi r5, 1
    jmp loop
loop:
    beq out
    addi r14, r14, 3
    addi r1, r1, 1
    cmpi r1, 60
    jmp loop
out:
    add r13, r13, r1
    addi r10, r10, 1
    cmpi r10, 40
    blt outer
    halt
"""
        expected, _ = _differential(source)
        assert expected["regs"][13] == 20 * 60

    def test_load_misses_refill_the_tlb_once_per_call(self, monkeypatch):
        # Between inner runs a load from .data moves the data TLB off
        # the loop's .bss buffer, so each call starts with a miss.  The
        # function re-reads the TLB after it, so the call's other loads
        # hit inline instead of taking the helper every time.
        source = """
.section .text
_start:
    li r10, 0
    li r12, buf
    li r13, other
outer:
    ld r5, [r12+0]
    li r1, 0
    jmp loop
loop:
    ld r5, [r13+0]
    add r14, r14, r5
    addi r1, r1, 1
    cmpi r1, 300
    blt loop
    addi r10, r10, 1
    cmpi r10, 8
    blt outer
    halt
.section .data
buf:
    .word 7
.section .bss
other:
    .space 64
"""
        misses = []
        load = threaded.BlockCache._load

        def counting(self, vm, *args):
            misses.append(args[0])
            return load(self, vm, *args)

        monkeypatch.setattr(threaded.BlockCache, "_load", counting)
        _differential(source)
        # Block thunks miss on every TLB switch too; each superblock
        # call adds one miss, where a stale TLB would cost one per load
        # (over 2,000).
        assert len(misses) < 40


#: One ALU op per opcode whose operands r5/r6 hold LI constants, so the
#: generator folds it at generation time with its own copy of the
#: interpreter's semantics.
FOLDED = {
    "add": "add r7, r5, r6", "sub": "sub r7, r6, r5", "mul": "mul r7, r5, r5",
    "div": "div r7, r5, r6", "mod": "mod r7, r5, r6", "and": "and r7, r5, r6",
    "or": "or r7, r5, r6", "xor": "xor r7, r5, r6", "shl": "shl r7, r5, r6",
    "shr": "shr r7, r5, r6", "addi": "addi r7, r5, 0x7FFFFFFF",
    "subi": "subi r7, r6, 0xFFFFFFF0", "muli": "muli r7, r5, 0xFFFFFFFF",
    "divi": "divi r7, r5, 7", "andi": "andi r7, r5, 0xF0F0",
    "ori": "ori r7, r6, 0x80000000", "xori": "xori r7, r5, 0xFFFFFFFF",
    "shli": "shli r7, r5, 35", "shri": "shri r7, r5, 29", "mov": "mov r7, r5",
}


class TestConstantFolding:
    @pytest.mark.parametrize("name", sorted(FOLDED))
    def test_known_operands_fold_like_the_interpreter(self, name):
        body = f"""
    li r5, 0x9E3779B9
    li r6, 45
    {FOLDED[name]}
    add r14, r14, r7"""
        _differential(_loop(body))

    def test_known_base_address_wraps(self):
        # 0xFFFFFFFC + after is after - 4 (mod 2**32): buf.
        body = """
    li r5, 0xFFFFFFFC
    ld r7, [r5+after]
    add r14, r14, r7"""
        expected, _ = _differential(_loop(body, data="after:\n    .word 5"))
        assert expected["fault"] is None


class TestEntry:
    def test_stale_guards_refuse_the_entry(self):
        # Guards are checked once per entry: a guard region whose
        # version moved (a write no page index saw) kills the
        # superblock instead of running it.
        _, vm = _differential(_loop("    add r14, r14, r1"))
        cache = vm._block_cache
        (sb,) = [b.sb for b in cache._blocks.values() if b.sb is not None and b.sb.run]
        region, version = sb.guards[0]
        region.version = version + 1
        assert cache._run_superblock(sb, 10_000) == (False, 10_000)
        assert sb.dead

    def test_smc_aborts_kill_the_superblock_at_the_limit(self, calls):
        # The loop's store lands in its fused span (region B sits
        # between the two code regions) on every pass, so every call
        # aborts after one store; the limit-th abort kills it.
        part_a = _encode([
            Instruction(Op.LI, regs=(1,), imm=0),          # 0x1000
            Instruction(Op.LI, regs=(13,), imm=0x2000),
            Instruction(Op.JMP, imm=0x1018),
            Instruction(Op.ADDI, regs=(5, 5), imm=1),      # 0x1018 loop
            Instruction(Op.ST, regs=(5, 13), imm=0),
            Instruction(Op.JMP, imm=0x3000),
        ])
        part_c = _encode([
            Instruction(Op.ADDI, regs=(1, 1), imm=1),      # 0x3000
            Instruction(Op.CMPI, regs=(1,), imm=700),
            Instruction(Op.BLT, imm=0x1018),
            Instruction(Op.HALT),
        ])
        memory = Memory()
        rwx = PROT_READ | PROT_WRITE | PROT_EXEC
        memory.map_region(0x1000, 0x1000, rwx, data=part_a, name="A")
        memory.map_region(0x2000, 0x1000, PROT_READ | PROT_WRITE, name="B")
        memory.map_region(0x3000, 0x1000, rwx, data=part_c, name="C")
        vm = VM(memory=memory, entry=0x1000, engine="threaded")
        _run(vm)
        cache = vm._block_cache
        assert cache.superblocks_killed == cache.superblocks_fused >= 1
        assert [kind for kind, *_ in calls] == (
            ["abort"] * threaded._SB_SMC_LIMIT * cache.superblocks_fused)


class TestPassBudget:
    FLAT = [
        (0x1000, Op.ADDI, (1, 1), 1, -1, False),
        (0x1008, Op.ADD, (2, 2, 1), None, -1, False),
        (0x1010, Op.JMP, (), 0x1000, -1, False),
    ]

    def _function(self, vm):
        namespace = {"__builtins__": {}, "regs": vm.regs}
        exec(compile(codegen.pass_source(self.FLAT, 0x1000, 0x1018), "<test>", "exec"),
             namespace)
        return namespace["superblock"]

    @pytest.mark.parametrize("budget, passes", [(None, 1), (3, 1), (5, 1), (6, 2), (11, 3)])
    def test_a_pass_starts_only_when_the_budget_covers_it(self, budget, passes):
        vm = VM(memory=Memory(), entry=0x1000, map_stack=False)
        superblock = self._function(vm)
        total = codegen.prefix_cycles(self.FLAT)[-1]
        vm.cycles += total  # the caller accounts the first pass
        vm.instructions_executed += 3
        ran = superblock(vm) if budget is None else superblock(vm, budget)
        assert ran == 3 * passes
        assert (vm.pc, vm.cycles, vm.instructions_executed) == (0x1000, total * passes, ran)
        assert vm.regs[1] == passes
        assert vm.regs[2] == passes * (passes + 1) // 2
