"""Compiled superblocks against the interpreter.

Every opcode a superblock member can hold has a source template in
:mod:`repro.cpu.codegen` (the ALU, compare and branch ones are the text
of :mod:`repro.isa.semantics`); these tests run a hot loop (well past
the 256-execution fusion threshold) holding each one under ``interp``
and the chained engine and require bit-identical registers, flags,
memory, cycles, instruction count and pc — then push the generated code
off its fast path: off-cycle exits for every condition, data-TLB
misses, faults, self-modifying stores, the re-fusion bound, preemption
between passes, and extreme immediates.  Both engines read the same
semantics table, so what each op computes is checked against known
answers in ``tests/isa/test_semantics.py``.
"""

import hashlib

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM
from repro.cpu import codegen, threaded
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import OPCODE_INFO, Op


def _memory_digest(vm: VM) -> str:
    digest = hashlib.sha256()
    for region in vm.memory.regions():
        digest.update(region.name.encode())
        digest.update(bytes(region.data))
    return digest.hexdigest()


def _state(vm: VM, fault) -> dict:
    return {
        "regs": tuple(vm.regs),
        "pc": vm.pc,
        "flags": (vm.flag_zero, vm.flag_neg),
        "cycles": vm.cycles,
        "instructions": vm.instructions_executed,
        "memory": _memory_digest(vm),
        "fault": None if fault is None else (fault.pc, str(fault)),
    }


def _source_vm(source: str, engine: str, writable_text: bool = False,
               stack_size: int = 0x40000) -> VM:
    image = link(assemble(source))
    memory = Memory()
    for segment in image.segments:
        prot = PROT_READ
        if segment.flags & 0x2 or writable_text:
            prot |= PROT_WRITE
        if segment.flags & 0x4:
            prot |= PROT_EXEC
        memory.map_region(
            segment.vaddr, max(segment.size, 16), prot,
            name=segment.name, data=segment.data,
        )
    return VM(memory=memory, entry=image.entry, engine=engine,
              stack_size=stack_size)


def _run(vm: VM) -> dict:
    fault = None
    try:
        vm.run()
    except ExecutionFault as err:
        fault = err
    return _state(vm, fault)


def _fused_ops(cache) -> set:
    """Opcodes held by the cache's live superblocks."""
    ops = set()
    for block in cache._blocks.values():
        if block.sb is not None:
            for member in block.sb.blocks:
                ops.update(op for _, op, _, _ in member.code)
    return ops


def _differential(source: str, **vm_kwargs):
    """Run ``source`` under interp and chained; assert bit-identity and
    return ``(interp state, chained VM)``."""
    expected = _run(_source_vm(source, "interp", **vm_kwargs))
    vm = _source_vm(source, "threaded", **vm_kwargs)
    actual = _run(vm)
    assert actual == expected
    assert vm._block_cache.superblocks_fused >= 1
    return expected, vm


def _loop(body: str, trips: int = 301, data: str = "") -> str:
    return f"""
.section .text
_start:
    li r1, 0
    li r2, 0x9E3779B9
    li r3, 13
    li r4, 0x80000001
    li r13, buf
    li r14, 0
loop:
{body}
    addi r1, r1, 1
    cmpi r1, {trips}
    blt loop
    halt
.section .data
buf:
    .word 0x11223344
    .word 0xCAFEBABE
    .word 0
    .word 0
{data}
"""


#: One hot loop body per straight-line template (the loop itself adds
#: ADDI, CMPI and BLT).  Each folds its result into r14 so a wrong
#: value anywhere shows up in the final registers.
TEMPLATE_BODIES = {
    "nop": "    nop\n    add r14, r14, r1",
    "cpuwork": "    cpuwork 7\n    add r14, r14, r1",
    "li": "    li r5, 0xDEADBEEF\n    add r14, r14, r5",
    "mov": "    mov r5, r1\n    add r14, r14, r5",
    "add": "    add r14, r14, r2",
    "sub": "    sub r14, r14, r2",
    "mul": "    mul r5, r1, r2\n    xor r14, r14, r5",
    "div": "    addi r6, r1, 1\n    div r5, r2, r6\n    add r14, r14, r5",
    "mod": "    addi r6, r1, 1\n    mod r5, r2, r6\n    add r14, r14, r5",
    "and": "    and r5, r2, r1\n    add r14, r14, r5",
    "or": "    or r5, r4, r1\n    add r14, r14, r5",
    "xor": "    xor r5, r2, r1\n    add r14, r14, r5",
    "shl": "    shl r5, r2, r1\n    add r14, r14, r5",
    "shr": "    shr r5, r2, r1\n    add r14, r14, r5",
    "addi": "    addi r14, r14, 0x7FFFFFFF",
    "subi": "    subi r14, r14, 12345",
    "muli": "    muli r14, r14, 3\n    addi r14, r14, 1",
    "divi": "    add r2, r2, r1\n    divi r5, r2, 7\n    add r14, r14, r5",
    "andi": "    andi r5, r2, 0xF0F0\n    add r2, r2, r1\n    add r14, r14, r5",
    "ori": "    ori r5, r1, 0x100\n    add r14, r14, r5",
    "xori": "    xori r5, r1, 0xA5A5\n    add r14, r14, r5",
    "shli": "    shli r5, r1, 27\n    add r14, r14, r5",
    "shri": "    add r2, r2, r1\n    shri r5, r2, 3\n    xor r14, r14, r5",
    "ld": "    ld r5, [r13+4]\n    add r14, r14, r5",
    "st": "    add r14, r14, r1\n    st r14, [r13+8]",
    "ldb": "    ldb r5, [r13+1]\n    add r14, r14, r5",
    "stb": "    stb r1, [r13+13]\n    ld r5, [r13+12]\n    add r14, r14, r5",
    "push": "    push r1",
    "pop": "    push r1\n    pop r5\n    add r14, r14, r5\n    push r15\n    pop r15",
    "cmp": "    li r6, 150\n    cmp r1, r6\n    blt low\n    addi r14, r14, 1\nlow:\n"
           "    add r14, r14, r1",
    "cmpi": "    cmpi r1, 0x80000000\n    add r14, r14, r1",
    "rdtsc": "    rdtsc r5\n    add r14, r14, r5",
    "rdtsch": "    cpuwork 100000000\n    rdtsch r5\n    add r14, r14, r5",
}


class TestTemplates:
    @pytest.mark.parametrize("name", sorted(TEMPLATE_BODIES))
    def test_straight_line_template(self, name):
        _, vm = _differential(_loop(TEMPLATE_BODIES[name]))
        assert getattr(Op, name.upper()) in _fused_ops(vm._block_cache)

    def test_every_member_opcode_has_a_template(self):
        straight = {
            op for op, info in OPCODE_INFO.items()
            if not (info.is_branch or info.is_trap or op is Op.HALT)
        }
        assert {getattr(Op, name.upper()) for name in TEMPLATE_BODIES} == straight

    @pytest.mark.parametrize("cond", ["beq", "bne", "blt", "bge", "ble", "bgt"])
    def test_conditional_exits_both_ways(self, cond):
        # The branch direction cycles with r1 & 3, so whichever way
        # the superblock fused, the other way is an off-cycle exit in
        # the middle of a pass, taken every few iterations.
        body = f"""
    andi r5, r1, 3
    cmpi r5, 1
    {cond} skip
    addi r14, r14, 7
skip:
    add r14, r14, r5"""
        _, vm = _differential(_loop(body, trips=333))
        cache = vm._block_cache
        assert getattr(Op, cond.upper()) in _fused_ops(cache)

    @pytest.mark.parametrize("cond, setup, step, limit", [
        ("blt", "li r1, 0", "addi r1, r1, 1", 305),
        ("ble", "li r1, 0", "addi r1, r1, 1", 303),
        ("bne", "li r1, 0", "addi r1, r1, 1", 307),
        ("bge", "li r1, 305", "subi r1, r1, 1", 0),
        ("bgt", "li r1, 309", "subi r1, r1, 1", 0),
    ])
    def test_loop_closing_condition_exits_mid_pass(self, cond, setup, step, limit):
        # The loop's own back edge: the final iteration leaves through
        # a mid-pass copy of the branch (trip counts are not multiples
        # of the unroll factor).
        source = f"""
.section .text
_start:
    {setup}
    li r14, 0
loop:
    add r14, r14, r1
    {step}
    cmpi r1, {limit}
    {cond} loop
    halt
"""
        _differential(source)

    def test_beq_exit_with_jmp_closing_the_pass(self):
        source = """
.section .text
_start:
    li r1, 0
loop:
    addi r14, r14, 3
    addi r1, r1, 1
    cmpi r1, 309
    beq done
    jmp loop
done:
    halt
"""
        _, vm = _differential(source)
        assert {Op.BEQ, Op.JMP} <= _fused_ops(vm._block_cache)

    def test_branch_before_any_compare_in_the_pass(self):
        # The head block is a lone branch on flags the previous
        # iteration's compare left behind, so the generated pass reads
        # them from the VM before its own first compare.  The branch
        # leaves every 17th trip and a pass is 16 trips, so some
        # passes start on flags that make their first branch exit.
        source = """
.section .text
_start:
    li r1, 0
    li r6, 17
    cmpi r1, 1
    jmp loop
loop:
    beq skip
    addi r14, r14, 5
skip:
    addi r1, r1, 1
    cmpi r1, 401
    bge done
    mod r5, r1, r6
    cmpi r5, 0
    jmp loop
done:
    halt
"""
        _, vm = _differential(source)
        heads = [b for b in vm._block_cache._blocks.values() if b.sb is not None]
        assert heads and heads[0].code[0][1] is Op.BEQ


class TestSlowPaths:
    def test_tlb_misses_between_two_regions(self):
        # Every access alternates between .data and .bss, so each one
        # misses the one-entry data TLB and refills it out of line.
        source = _loop("""
    ld r5, [r13+0]
    ld r6, [r12+0]
    add r5, r5, r6
    st r5, [r12+0]
    ldb r7, [r13+1]
    stb r7, [r12+5]
    add r14, r14, r5""").replace("    li r14, 0\n", "    li r14, 0\n    li r12, other\n")
        source += ".section .bss\nother:\n    .space 64\n"
        _differential(source)

    @pytest.mark.parametrize("access", [
        "ld r6, [r5+0]", "ldb r6, [r5+0]", "st r1, [r5+0]", "stb r1, [r5+0]",
    ])
    def test_unmapped_access_faults_like_the_interpreter(self, access):
        # The address walks 64 bytes per trip off the end of .data.
        body = f"""
    muli r5, r1, 64
    add r5, r5, r13
    {access}"""
        expected, _ = _differential(_loop(body, trips=1000, data="    .space 20000"))
        assert expected["fault"] is not None and "unmapped" in expected["fault"][1]

    @pytest.mark.parametrize("access", ["ld r6, [r5+0]", "ldb r6, [r5+0]"])
    def test_load_walking_off_the_region_end(self, access):
        # One byte per trip toward the end of .data: the last in-bounds
        # offsets hit inline, the first one past the end (a word that
        # straddles it, for LD) must take the canonical fault.
        body = f"""
    addi r5, r13, 102
    add r5, r5, r1
    {access}
    add r14, r14, r6"""
        expected, _ = _differential(_loop(body, trips=1000, data="    .space 400"))
        assert expected["fault"] is not None and "unmapped" in expected["fault"][1]

    @pytest.mark.parametrize("op", ["div", "mod"])
    def test_division_by_zero_faults_like_the_interpreter(self, op):
        body = f"""
    li r7, 320
    sub r7, r7, r1
    {op} r8, r2, r7
    add r14, r14, r8"""
        expected, _ = _differential(_loop(body, trips=1000))
        assert expected["fault"][1].endswith("division by zero")

    def test_divi_by_zero_after_the_loop_went_hot(self):
        # DIVI by an immediate zero faults on its first execution, so
        # it can never sit in a fused block; it faults identically
        # right after a superblock exit.
        source = _loop("    add r14, r14, r1").replace(
            "    halt\n", "    divi r5, r14, 0\n    halt\n"
        )
        expected, _ = _differential(source)
        assert expected["fault"][1].endswith("division by zero")

    def test_divi_by_zero_template_rolls_back_exactly(self):
        # White-box: the generated pass for a DIVI-by-zero member
        # calls the shared fault helper with the member's rollback.
        flat = [
            (0x1000, Op.ADDI, (1, 1), 1, -1, False),
            (0x1008, Op.DIVI, (2, 1), 0, -1, False),
            (0x1010, Op.JMP, (), 0x1000, -1, False),
        ]
        source = codegen.pass_source(flat, 0x1000, 0x1018)
        total = codegen.prefix_cycles(flat)[-1]
        assert total == 1 + 20 + 2
        vm = VM(memory=Memory(), entry=0x1000, map_stack=False)
        cache = threaded.BlockCache(vm)
        namespace = {"__builtins__": {}, "regs": vm.regs, "tlb": cache._tlb,
                     "div_zero": threaded._div_zero}
        exec(compile(source, "<test>", "exec"), namespace)
        vm.cycles += total
        vm.instructions_executed += len(flat)
        with pytest.raises(ExecutionFault) as info:
            namespace["superblock"](vm)
        assert (info.value.pc, vm.pc) == (0x1008, 0x1008)
        assert (vm.cycles, vm.instructions_executed, vm.regs[1]) == (21, 2, 1)
        assert str(info.value).endswith("division by zero")

    def test_push_overflow_faults_like_the_interpreter(self):
        expected, _ = _differential(_loop("    push r1", trips=5000),
                                    stack_size=0x1000)
        assert "stack overflow" in expected["fault"][1]

    def test_pop_underflow_faults_like_the_interpreter(self):
        source = _loop("    pop r5\n    add r14, r14, r5", trips=5000).replace(
            "    li r14, 0\n", "    li r14, 0\n    li r15, 0x0BFFF9C0\n"
        )
        expected, _ = _differential(source)
        assert "stack underflow" in expected["fault"][1]


def _encode(instructions) -> bytes:
    return b"".join(encode_instruction(i) for i in instructions)


class TestSelfModification:
    def test_span_store_aborts_then_kills_after_the_limit(self):
        # The cycle's two blocks sit in regions A and C; the data word
        # it bumps lives in region B between them — inside the fused
        # span, but no member's code.  Every pass therefore aborts
        # after its store without staling a guard, until the abort
        # limit tears the superblock down and unfuses its head.
        part_a = _encode([
            Instruction(Op.LI, regs=(1,), imm=0),          # 0x1000
            Instruction(Op.LI, regs=(13,), imm=0x2000),    # 0x1008
            Instruction(Op.LD, regs=(5, 13), imm=0),       # 0x1010 loop
            Instruction(Op.ADDI, regs=(5, 5), imm=1),
            Instruction(Op.ST, regs=(5, 13), imm=0),
            Instruction(Op.JMP, imm=0x3000),
        ])
        part_c = _encode([
            Instruction(Op.ADDI, regs=(1, 1), imm=1),      # 0x3000
            Instruction(Op.CMPI, regs=(1,), imm=700),
            Instruction(Op.BLT, imm=0x1010),
            Instruction(Op.HALT),
        ])
        states = {}
        for engine in ("interp", "threaded"):
            memory = Memory()
            rwx = PROT_READ | PROT_WRITE | PROT_EXEC
            memory.map_region(0x1000, 0x1000, rwx, data=part_a, name="A")
            memory.map_region(0x2000, 0x1000, PROT_READ | PROT_WRITE, name="B")
            memory.map_region(0x3000, 0x1000, rwx, data=part_c, name="C")
            vm = VM(memory=memory, entry=0x1000, engine=engine)
            states[engine] = _run(vm)
        assert states["threaded"] == states["interp"]
        cache = vm._block_cache
        # The cycle fuses once per head that turns hot (0x3000, then
        # 0x1010); each superblock is torn down by its own abort limit.
        assert cache.superblocks_fused == cache.superblocks_killed == 2
        assert cache._sb_kills == {0x3000: 1, 0x1010: 1}
        assert not cache._blocks[0x3000].fusable
        assert not cache._blocks[0x1010].fusable
        assert vm.regs[5] == 700

    def test_store_straddling_the_span_start_aborts_the_pass(self):
        # A pointer table aims the loop's store into a scratch region
        # for 300 trips, then 3 bytes below the fused span: that word's
        # top byte is the loop head's opcode, which the XOR turns from
        # ADDI into SUBI.  Only a pass abort right after the store lets
        # the next trip run the new instruction, as the interpreter
        # does.
        code = _encode([
            Instruction(Op.LI, regs=(4,), imm=0x2000),          # 0x1000
            Instruction(Op.LI, regs=(1,), imm=0),               # 0x1008
            Instruction(Op.ADDI, regs=(1, 1), imm=1),           # 0x1010 loop
            Instruction(Op.LD, regs=(3, 4), imm=0),
            Instruction(Op.ADDI, regs=(4, 4), imm=4),
            Instruction(Op.LD, regs=(2, 3), imm=0),
            Instruction(Op.XORI, regs=(2, 2), imm=0x01000000),
            Instruction(Op.ST, regs=(2, 3), imm=0),
            Instruction(Op.CMPI, regs=(1,), imm=330),
            Instruction(Op.BLT, imm=0x1010),
            Instruction(Op.HALT),
        ])
        targets = [0x3000 + 8 * i for i in range(300)] + [0x1010 - 3]
        table = b"".join(t.to_bytes(4, "little") for t in targets)
        states = {}
        for engine in ("interp", "threaded"):
            memory = Memory()
            memory.map_region(0x1000, 0x1000, PROT_READ | PROT_WRITE | PROT_EXEC,
                              data=code, name="text")
            memory.map_region(0x2000, 0x1000, PROT_READ | PROT_WRITE,
                              data=table, name="table")
            memory.map_region(0x3000, 0x1000, PROT_READ | PROT_WRITE, name="scratch")
            vm = VM(memory=memory, entry=0x1000, engine=engine)
            states[engine] = _run(vm)
        assert states["threaded"] == states["interp"]
        assert vm._block_cache.superblocks_fused >= 1
        assert memory.read(0x1010, 1) == bytes([Op.SUBI])

    def test_tlb_hit_store_severs_a_chained_successor(self):
        # From trip 299 on, block A (region X) patches the immediate of
        # block B (region Y) every trip, through the data TLB (the load
        # before it points the TLB at Y).  X is never written, so from
        # trip 300 A reaches B over the chain link formed at trip 299,
        # which skips B's guards: only the store's own pre-image
        # invalidation keeps B current.
        part_x = _encode([
            Instruction(Op.LI, regs=(1,), imm=0),               # 0x1000
            Instruction(Op.LI, regs=(6,), imm=0),               # 0x1008
            Instruction(Op.ADDI, regs=(1, 1), imm=1),           # 0x1010 a
            Instruction(Op.LI, regs=(3,), imm=0x3000),
            Instruction(Op.LD, regs=(2, 3), imm=4),
            Instruction(Op.CMPI, regs=(1,), imm=299),
            Instruction(Op.BLT, imm=0x1040),
            Instruction(Op.ST, regs=(1, 3), imm=4),             # 0x1038
            Instruction(Op.JMP, imm=0x3000),                    # 0x1040
        ])
        part_y = _encode([
            Instruction(Op.LI, regs=(5,), imm=7),               # 0x3000 b
            Instruction(Op.ADD, regs=(6, 6, 5)),
            Instruction(Op.CMPI, regs=(1,), imm=400),
            Instruction(Op.BLT, imm=0x1010),
            Instruction(Op.HALT),
        ])
        states = {}
        for engine in ("interp", "threaded"):
            memory = Memory()
            rwx = PROT_READ | PROT_WRITE | PROT_EXEC
            memory.map_region(0x1000, 0x1000, rwx, data=part_x, name="X")
            memory.map_region(0x3000, 0x1000, rwx, data=part_y, name="Y")
            vm = VM(memory=memory, entry=0x1000, engine=engine)
            states[engine] = _run(vm)
        assert states["threaded"] == states["interp"]
        assert vm._block_cache.superblocks_fused >= 1
        assert vm.regs[6] == 298 * 7 + sum(range(299, 401))

    @pytest.mark.parametrize("slice_len", range(4, 13))
    def test_tlb_hit_store_is_seen_by_single_stepped_code(self, slice_len):
        # The patched block is longer than any slice here, so it is
        # always single-stepped through the interpreter's decode cache,
        # which trusts Region.version: the engine's TLB-hit store must
        # bump it like Memory.write does.
        source = """
.section .text
_start:
    li r7, 0
    li r8, target
again:
    ld r9, [r8+0]
    mov r9, r7
    st r9, [r8+4]
    jmp target
target:
    li r5, 1
    add r6, r6, r5
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    addi r7, r7, 1
    cmpi r7, 40
    blt again
    halt
"""
        states = []
        for engine in ("interp", "threaded"):
            vm = _source_vm(source, engine, writable_text=True)
            while vm.exit_status is None:
                vm.run_slice(slice_len)
            states.append(_state(vm, None))
        assert states[1] == states[0]
        assert states[0]["regs"][6] == sum(range(40))

    def test_rewritten_hot_loop_stops_fusing_at_the_bound(self):
        # After every inner run an outer loop patches the immediate of
        # the inner hot loop's first instruction.  The load before the
        # patch points the data TLB at .text, so the store takes the
        # TLB-hit path, whose pre-image invalidation must drop the
        # inner blocks (and the chained outer block holding the same
        # bytes) and kill the freshly fused superblock.  The kill count
        # is kept per head PC, so after the limit the recompiled head
        # is no longer fused: no compile() every 256 iterations.
        source = """
.section .text
_start:
    li r7, 0
outer:
    li r1, 0
inner:
    addi r14, r14, 3
    addi r1, r1, 1
    cmpi r1, 300
    blt inner
    li r8, inner
    ld r9, [r8+0]
    addi r9, r7, 5
    st r9, [r8+4]
    addi r7, r7, 1
    cmpi r7, 9
    blt outer
    halt
"""
        _, vm = _differential(source, writable_text=True)
        cache = vm._block_cache
        limit = threaded._SB_SMC_LIMIT
        assert cache.superblocks_fused == limit
        assert cache.superblocks_killed == limit
        assert list(cache._sb_kills.values()) == [limit]


class TestPreemption:
    # Memory, RDTSC, and an off-cycle exit every eighth trip: slices
    # end mid-cycle, between passes, and right after pass exits.
    SOURCE = _loop("""
    ld r5, [r13+0]
    add r5, r5, r1
    st r5, [r13+0]
    andi r6, r1, 7
    cmpi r6, 5
    beq skip
    rdtsc r6
    xor r14, r14, r6
skip:
    add r14, r14, r5""", trips=700)

    def _slices(self, engine: str, slice_len: int) -> list:
        vm = _source_vm(self.SOURCE, engine)
        snapshots = []
        while vm.exit_status is None:
            vm.run_slice(slice_len)
            snapshots.append((vm.pc, vm.cycles, vm.instructions_executed,
                              vm.flag_zero, vm.flag_neg, tuple(vm.regs)))
        return snapshots, vm

    @pytest.mark.parametrize("slice_len", [1, 5, 37, 119, 120, 121, 129, 200, 257, 999])
    def test_slices_ending_mid_cycle_match_the_interpreter(self, slice_len):
        expected, _ = self._slices("interp", slice_len)
        actual, vm = self._slices("threaded", slice_len)
        assert actual == expected
        if slice_len >= 37:  # shorter slices single-step every block
            assert vm._block_cache.superblocks_fused >= 1


class TestImmediates:
    def test_all_ones_and_sign_bit_immediates(self):
        body = """
    addi r5, r5, 0xFFFFFFFF
    subi r6, r6, 0x80000000
    muli r7, r1, 0xFFFFFFFF
    andi r8, r7, 0x80000000
    ori r9, r1, 0x80000000
    xori r10, r7, 0xFFFFFFFF
    li r11, 0x80000000
    shli r12, r1, 0xFFFFFFFF
    ld r3, [r13+0xFFFFFFFC]
    cmpi r10, 0x80000000
    blt never
    cmpi r5, 0xFFFFFFFF
    add r14, r14, r3"""
        source = _loop(body, trips=400).replace(
            "    li r13, buf\n", "    li r13, buf\n    addi r13, r13, 4\n"
        ).replace("    halt\n", "    halt\nnever:\n    li r0, 1\n    halt\n")
        _differential(source)

    def test_counter_crossing_the_sign_bit(self):
        source = """
.section .text
_start:
    li r1, 0x7FFFFE00
loop:
    addi r14, r14, 1
    addi r1, r1, 1
    cmpi r1, 0x80000000
    bne loop
    cmpi r1, 0xFFFFFFFF
    halt
"""
        _differential(source)


class TestGeneratedSource:
    def test_only_ints_are_interpolated(self):
        assert codegen.fill("R[{d}] = {v}", d=3, v=0xFFFFFFFF) == "R[3] = 4294967295"
        for bad in ("0]; import os", b"\x00", True, 1.5):
            with pytest.raises(TypeError):
                codegen.fill("R[{d}] = 0", d=bad)

    def test_pass_function_has_a_fresh_helper_only_namespace(self):
        # Two hot loops in sequence: two compiled superblocks.
        source = """
.section .text
_start:
    li r1, 0
    li r13, buf
first:
    add r14, r14, r1
    st r14, [r13+0]
    addi r1, r1, 1
    cmpi r1, 300
    blt first
    li r1, 0
second:
    ld r5, [r13+0]
    add r14, r14, r5
    addi r1, r1, 1
    cmpi r1, 300
    blt second
    halt
.section .data
buf:
    .word 0
"""
        _, vm = _differential(source)
        sbs = [block.sb for block in vm._block_cache._blocks.values() if block.sb]
        namespaces = [sb.run.__globals__ for sb in sbs]
        assert len(namespaces) == 2
        for namespace in namespaces:
            assert namespace["__builtins__"] == {}
            assert set(namespace) == {
                "__builtins__", "regs", "tlb", "load", "store", "leave",
                "smc_abort", "div_zero", "U32",
            }
            assert namespace["regs"] is vm.regs
        assert len({id(namespace) for namespace in namespaces}) == len(namespaces)

    def test_codegen_waits_for_the_first_entry(self):
        # sum_loop's shape: the loop body turns hot first and is the
        # head every entry goes through; the compare block at the loop
        # label turns hot one pass later and fuses the same cycle, but
        # the dispatch loop never enters that rotation.
        source = """
.section .text
_start:
    li r12, 0
sum_loop:
    cmpi r12, 2000
    bge sum_done
    addi r11, r11, 3
    addi r12, r12, 1
    jmp sum_loop
sum_done:
    halt
"""
        _, vm = _differential(source)
        cache = vm._block_cache
        sbs = [block.sb for block in cache._blocks.values() if block.sb]
        assert cache.superblocks_fused == len(sbs) == 2
        compiled = [sb for sb in sbs if sb.run is not None]
        assert len(compiled) == 1
        assert compiled[0].flat is None
        assert all(sb.flat for sb in sbs if sb.run is None)
