"""Engine equivalence: the threaded translation cache vs the interpreter.

The threaded engine's contract is bit-identical architectural state —
registers, flags, memory, cycle counts, instruction counts, syscall
counts, fault PCs/messages, and fail-stop reasons — on *every* program,
including self-modifying ones.  These tests run the same program on
the interpreter and on the threaded engine (direct block chaining and
superblock fusion, the default) and diff the complete observable
state.
"""

import hashlib

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM
from repro.crypto import Key
from repro.installer import install
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import Op
from repro.kernel import Kernel
from repro.workloads.spec import build_spec_program

KEY = Key.from_passphrase("engines")

#: label -> engine; ``chained`` is the default configuration.
CONFIGS = {
    "interp": "interp",
    "chained": "threaded",
}


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
        "syscalls": vm.syscall_count,
        "exit_status": vm.exit_status,
        "killed": vm.killed,
        "kill_reason": vm.kill_reason,
        "memory": _memory_digest(vm),
        "fault": str(fault) if fault is not None else None,
    }


def _vm_for_source(source: str, engine: str, nx: bool = False) -> VM:
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
    return VM(memory=memory, entry=image.entry, nx=nx, engine=engine)


def _run_source(source: str, engine: str, nx: bool = False,
                max_instructions: int = 100_000) -> dict:
    vm = _vm_for_source(source, engine, nx=nx)
    fault = None
    try:
        vm.run(max_instructions=max_instructions)
    except ExecutionFault as err:
        fault = err
    return _state(vm, fault)


def _run_raw(code: bytes, engine: str, nx: bool = False,
             max_instructions: int = 100_000) -> dict:
    """Run raw encoded instructions from an RWX region (the shape the
    self-modifying-code cases need)."""
    memory = Memory()
    memory.map_region(
        0x1000, max(len(code) + 64, 4096),
        PROT_READ | PROT_WRITE | PROT_EXEC, data=code, name="rwx",
    )
    memory.map_region(0x8000, 4096, PROT_READ | PROT_WRITE, name="scratch")
    vm = VM(memory=memory, entry=0x1000, nx=nx, engine=engine)
    fault = None
    try:
        vm.run(max_instructions=max_instructions)
    except ExecutionFault as err:
        fault = err
    return _state(vm, fault)


def _encode(instructions) -> bytes:
    return b"".join(encode_instruction(i) for i in instructions)


def _assert_engines_agree(run) -> dict:
    states = {label: run(engine) for label, engine in CONFIGS.items()}
    for label, state in states.items():
        assert state == states["interp"], (label, state, states["interp"])
    return states["interp"]


class TestBitIdentity:
    def test_arithmetic_and_control_flow(self):
        source = """
.section .text
_start:
    li r1, 0
    li r2, 0
loop:
    addi r2, r2, 7
    muli r3, r2, 3
    div r4, r3, r2
    mod r5, r3, r2
    shli r6, r2, 3
    shri r9, r6, 1
    xor r10, r6, r9
    addi r1, r1, 1
    cmpi r1, 50
    blt loop
    rdtsc r11
    rdtsch r12
    halt
"""
        state = _assert_engines_agree(lambda e: _run_source(source, e))
        assert state["exit_status"] is not None

    def test_calls_stack_and_memory(self):
        source = """
.section .text
_start:
    li r1, 0
    li r2, 10
outer:
    push r2
    call fn
    pop r2
    subi r2, r2, 1
    cmpi r2, 0
    bgt outer
    halt
fn:
    push r1
    li r3, buf
    st r1, [r3+0]
    ld r4, [r3+0]
    stb r4, [r3+8]
    ldb r5, [r3+8]
    add r1, r1, r5
    pop r1
    addi r1, r1, 1
    ret
.section .data
buf:
    .space 16
"""
        _assert_engines_agree(lambda e: _run_source(source, e))

    def test_mid_block_division_fault(self):
        # The fault happens in the middle of a straight-line run: the
        # threaded engine must roll its batched accounting back so the
        # fault PC, cycles, and instruction count match exactly.
        source = """
.section .text
_start:
    li r1, 5
    li r2, 0
    addi r3, r1, 1
    div r4, r1, r2
    addi r5, r1, 2
    halt
"""
        state = _assert_engines_agree(lambda e: _run_source(source, e))
        assert "division by zero" in state["fault"]

    def test_mid_block_memory_fault(self):
        source = """
.section .text
_start:
    li r1, 0x40000000
    li r2, 1
    addi r2, r2, 1
    ld r3, [r1+0]
    halt
"""
        state = _assert_engines_agree(lambda e: _run_source(source, e))
        assert "memory fault" in state["fault"]

    def test_load_after_store_to_write_only_region_faults(self):
        # The store leaves a region the guest may write but not read in
        # the data TLB; the load from it must still fault on the read
        # protection, at the interpreter's PC and accounting.
        code = _encode([
            Instruction(Op.LI, regs=(2,), imm=0x9000),
            Instruction(Op.LI, regs=(1,), imm=7),
            Instruction(Op.ST, regs=(1, 2), imm=0),
            Instruction(Op.LD, regs=(3, 2), imm=0),
            Instruction(Op.HALT),
        ])

        def run(engine):
            memory = Memory()
            memory.map_region(0x1000, 4096, PROT_READ | PROT_EXEC, data=code, name="text")
            memory.map_region(0x9000, 4096, PROT_WRITE, name="write-only")
            vm = VM(memory=memory, entry=0x1000, engine=engine)
            fault = None
            try:
                vm.run(max_instructions=1000)
            except ExecutionFault as err:
                fault = err
            return _state(vm, fault)

        state = _assert_engines_agree(run)
        assert state["fault"] is not None and state["pc"] == 0x1018

    def test_stack_overflow_fault(self):
        source = """
.section .text
_start:
    li r1, 8
    mov sp, r1
    push r1
    halt
"""
        state = _assert_engines_agree(lambda e: _run_source(source, e))
        assert "stack overflow" in state["fault"]

    def test_trap_with_no_kernel(self):
        source = """
.section .text
_start:
    li r1, 1
    sys
"""
        state = _assert_engines_agree(lambda e: _run_source(source, e))
        assert "trap with no kernel attached" in state["fault"]

    def test_budget_exhaustion_mid_block(self):
        # A budget that expires inside what the threaded engine compiles
        # as one block: the engine falls back to single-stepping so the
        # exhaustion fault lands at the identical PC and counters.
        source = """
.section .text
_start:
    li r1, 1
    addi r1, r1, 1
    addi r1, r1, 2
    addi r1, r1, 3
    addi r1, r1, 4
    halt
"""
        for budget in range(1, 7):
            state = _assert_engines_agree(
                lambda e: _run_source(source, e, max_instructions=budget)
            )
            if budget < 6:
                assert "instruction budget exhausted" in state["fault"]
            else:
                assert state["fault"] is None

    def test_pc_falls_off_text(self):
        state = _assert_engines_agree(
            lambda e: _run_raw(_encode([Instruction(Op.NOP)] * 3), e,
                               max_instructions=5000)
        )
        assert "instruction fetch" in state["fault"]


class TestSelfModifyingCode:
    def test_patch_already_executed_block(self):
        # A code stub in the RWX region runs once, then the loop patches
        # its LI immediate and runs it again.  Both engines must
        # re-decode (stale block/decode caches would return 13).
        #
        #  0x1000: li r1, 13        <- patched to li r1, 77 on 2nd pass
        #  0x1008: cmpi r9, 0
        #  0x1010: bne done
        #  0x1018: li r9, 1
        #  0x1020: li r2, <encoded 'li r1, 77' low word>
        #  0x1028: li r3, 0x1000
        #  0x1030: st r2, [r3+0]
        #  0x1038: li r2, <encoded 'li r1, 77' high word>
        #  0x1040: st r2, [r3+4]
        #  0x1048: jmp 0x1000
        #  0x1050: halt             (done)
        patched = encode_instruction(Instruction(Op.LI, regs=(1,), imm=77))
        low = int.from_bytes(patched[:4], "little")
        high = int.from_bytes(patched[4:], "little")
        code = _encode([
            Instruction(Op.LI, regs=(1,), imm=13),
            Instruction(Op.CMPI, regs=(9,), imm=0),
            Instruction(Op.BNE, imm=0x1050),
            Instruction(Op.LI, regs=(9,), imm=1),
            Instruction(Op.LI, regs=(2,), imm=low),
            Instruction(Op.LI, regs=(3,), imm=0x1000),
            Instruction(Op.ST, regs=(2, 3), imm=0),
            Instruction(Op.LI, regs=(2,), imm=high),
            Instruction(Op.ST, regs=(2, 3), imm=4),
            Instruction(Op.JMP, imm=0x1000),
            Instruction(Op.HALT),
        ])
        state = _assert_engines_agree(lambda e: _run_raw(code, e))
        assert state["regs"][1] == 77

    def test_patch_within_running_block(self):
        # The store clobbers an instruction *later in the same
        # straight-line run*: the threaded engine must abort the block
        # mid-flight, roll back its batched accounting, and re-decode.
        #
        #  0x1000: li r3, 0x1000
        #  0x1008: li r2, <low>
        #  0x1010: st r2, [r3+40]      ; patch 0x1028 (originally li r1, 13)
        #  0x1018: li r2, <high>
        #  0x1020: st r2, [r3+44]
        #  0x1028: li r1, 13          -> becomes li r1, 77
        #  0x1030: halt
        patched = encode_instruction(Instruction(Op.LI, regs=(1,), imm=77))
        low = int.from_bytes(patched[:4], "little")
        high = int.from_bytes(patched[4:], "little")
        code = _encode([
            Instruction(Op.LI, regs=(3,), imm=0x1000),
            Instruction(Op.LI, regs=(2,), imm=low),
            Instruction(Op.ST, regs=(2, 3), imm=40),
            Instruction(Op.LI, regs=(2,), imm=high),
            Instruction(Op.ST, regs=(2, 3), imm=44),
            Instruction(Op.LI, regs=(1,), imm=13),
            Instruction(Op.HALT),
        ])
        state = _assert_engines_agree(lambda e: _run_raw(code, e))
        assert state["regs"][1] == 77

    def test_smc_blocked_by_nx(self):
        # The §4.1-style ablation: with nx=True, jumping to freshly
        # written bytes in a writable (non-executable) region must fault
        # at the same PC with the same message under both engines.
        code = _encode([
            Instruction(Op.LI, regs=(2,), imm=0x00000001),  # encoded HALT
            Instruction(Op.LI, regs=(3,), imm=0x8000),
            Instruction(Op.ST, regs=(2, 3), imm=0),
            Instruction(Op.JR, regs=(3,)),
        ])
        nx_state = _assert_engines_agree(lambda e: _run_raw(code, e, nx=True))
        assert "NX violation" in nx_state["fault"]
        assert nx_state["pc"] == 0x8000
        # Without NX (the 2005 default) the same program executes its
        # injected HALT — still identically on both engines.
        plain = _assert_engines_agree(lambda e: _run_raw(code, e, nx=False))
        assert plain["fault"] is None
        assert plain["pc"] == 0x8000


class TestKernelWorkloads:
    def _run_macro(self, engine: str) -> dict:
        binary = install(
            build_spec_program("gzip-spec", iterations=5), KEY
        ).binary
        kernel = Kernel(key=KEY, engine=engine)
        result = kernel.run(
            binary, argv=["gzip-spec"], max_instructions=100_000_000
        )
        vm = result.vm
        return {
            "ok": result.ok,
            "exit_status": result.exit_status,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "syscalls": result.syscalls,
            "stdout": bytes(result.process.stdout),
            "memory": _memory_digest(vm),
            "regs": tuple(vm.regs),
            "pc": vm.pc,
        }

    def test_macro_workload_identical_through_kernel(self):
        states = {label: self._run_macro(engine)
                  for label, engine in CONFIGS.items()}
        for label, state in states.items():
            assert state == states["interp"], label
        assert states["interp"]["ok"]

    def test_attack_battery_verdicts_identical(self):
        from repro.attacks import run_all_attacks
        from repro.configs import EngineConfig

        verdicts = {}
        for label, engine in CONFIGS.items():
            results = run_all_attacks(KEY, EngineConfig(label, engine))
            verdicts[label] = [
                (r.name, r.blocked, r.kill_reason) for r in results
            ]
        for label, verdict in verdicts.items():
            assert verdict == verdicts["interp"], label

    def test_chaining_is_always_on(self):
        # No chain knob anywhere: the threaded engine always chains and
        # fuses, and Kernel.chain reports it read-only.
        from repro.cpu.threaded import BlockCache

        memory = Memory()
        memory.map_region(0x1000, 4096, PROT_READ | PROT_EXEC, name="t")
        for make in (lambda: Kernel(chain=False),
                     lambda: VM(memory=memory, entry=0x1000, chain=False),
                     lambda: BlockCache(VM(memory=memory, entry=0x1000), chain=False)):
            with pytest.raises(TypeError):
                make()
        assert Kernel().chain is True

    def test_unknown_engine_rejected(self):
        memory = Memory()
        memory.map_region(0x1000, 4096, PROT_READ | PROT_EXEC, name="t")
        with pytest.raises(ValueError, match="unknown execution engine"):
            VM(memory=memory, entry=0x1000, engine="jit")


class TestTranslationCacheInternals:
    """White-box checks that the threaded engine actually caches."""

    def _loop_vm(self) -> VM:
        source = """
.section .text
_start:
    li r1, 0
loop:
    addi r1, r1, 1
    cmpi r1, 100
    blt loop
    halt
"""
        return _vm_for_source(source, "threaded")

    def test_blocks_are_reused(self):
        vm = self._loop_vm()
        vm.run()
        cache = vm._block_cache
        assert cache is not None
        # ~100 loop iterations but only a handful of distinct blocks.
        assert cache.compiles <= 6
        assert vm.regs[1] == 100

    def test_store_to_code_invalidates_block(self):
        patched = encode_instruction(Instruction(Op.LI, regs=(1,), imm=77))
        low = int.from_bytes(patched[:4], "little")
        high = int.from_bytes(patched[4:], "little")
        code = _encode([
            Instruction(Op.LI, regs=(1,), imm=13),
            Instruction(Op.CMPI, regs=(9,), imm=0),
            Instruction(Op.BNE, imm=0x1050),
            Instruction(Op.LI, regs=(9,), imm=1),
            Instruction(Op.LI, regs=(2,), imm=low),
            Instruction(Op.LI, regs=(3,), imm=0x1000),
            Instruction(Op.ST, regs=(2, 3), imm=0),
            Instruction(Op.LI, regs=(2,), imm=high),
            Instruction(Op.ST, regs=(2, 3), imm=4),
            Instruction(Op.JMP, imm=0x1000),
            Instruction(Op.HALT),
        ])
        memory = Memory()
        memory.map_region(
            0x1000, 4096, PROT_READ | PROT_WRITE | PROT_EXEC,
            data=code, name="rwx",
        )
        vm = VM(memory=memory, entry=0x1000, engine="threaded")
        vm.run()
        assert vm.regs[1] == 77
        assert vm._block_cache.invalidations >= 1
