"""Direct block chaining and superblock fusion: invalidation and
determinism.

Chained dispatch skips the per-block guard re-check, so its soundness
rests entirely on *eager pre-image invalidation*: every write that
overlaps cached code must drop the stale translations — severing every
inbound chain link — **before** the bytes change.  These tests pin
that contract down from the white-box side (counters, cache
structure, invalidation ordering) and from the black-box side
(bit-identity against the interpreter through SMC, preemption, and
shared-region writes).
"""

import hashlib

from repro.asm import assemble
from repro.binfmt import link
from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import Op


def _encode(instructions) -> bytes:
    return b"".join(encode_instruction(i) for i in instructions)


def _memory_digest(vm: VM) -> str:
    digest = hashlib.sha256()
    for region in vm.memory.regions():
        digest.update(region.name.encode())
        digest.update(bytes(region.data))
    return digest.hexdigest()


def _state(vm: VM, fault=None) -> dict:
    return {
        "regs": tuple(vm.regs),
        "pc": vm.pc,
        "flags": (vm.flag_zero, vm.flag_neg),
        "cycles": vm.cycles,
        "instructions": vm.instructions_executed,
        "memory": _memory_digest(vm),
        "fault": str(fault) if fault is not None else None,
    }


def _source_vm(source: str, engine: str = "threaded") -> VM:
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


def _raw_vm(code: bytes, engine: str = "threaded",
            scratch: tuple = (0x8000, 4096)) -> VM:
    memory = Memory()
    memory.map_region(
        0x1000, max(len(code) + 64, 4096),
        PROT_READ | PROT_WRITE | PROT_EXEC, data=code, name="rwx",
    )
    if scratch is not None:
        memory.map_region(scratch[0], scratch[1],
                          PROT_READ | PROT_WRITE, name="scratch")
    return VM(memory=memory, entry=0x1000, engine=engine)


HOT_LOOP = """
.section .text
_start:
    li r1, 0
    li r2, 0
loop:
    add r2, r2, r1
    addi r1, r1, 1
    cmpi r1, 2000
    blt loop
    halt
"""


class TestPreImageInvalidation:
    """Satellite: note_write must fire while the OLD bytes are still
    in place — the pre-image ordering is what lets chained dispatch
    skip guard checks soundly."""

    def test_note_write_sees_pre_image_on_canonical_write(self):
        vm = _source_vm(HOT_LOOP)
        vm.run()
        cache = vm._block_cache
        assert cache.compiles > 0
        text = vm.memory.find_region(".text")
        original = bytes(text.data[:8])

        seen = []
        inner = cache.note_write

        def spy(address, size):
            # Capture what the memory holds at the moment the cache is
            # told about the write: must still be the pre-image.
            seen.append(bytes(vm.memory.read(address, size, force=True)))
            inner(address, size)

        cache.note_write = spy
        # Region.watchers hold bound references; re-register the spy
        # over the compiled region so the canonical write routes to it.
        text.watchers = [spy]
        before = cache.invalidations
        vm.memory.write(text.start, b"\xff" * 8, force=True)
        assert seen == [original]
        assert cache.invalidations > before

    def test_fast_path_store_invalidates_before_mutation(self):
        # The guest patches its own next instruction through the
        # engine's fast-path ST.  If invalidation ran post-write the
        # stale block would replay the old immediate; the architectural
        # result (r1 == 77) proves the pre-image drop happened in time.
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
        reference = _raw_vm(code, engine="interp")
        reference.run()
        vm = _raw_vm(code)
        vm.run()
        assert _state(vm) == _state(reference)
        assert vm.regs[1] == 77
        assert vm._block_cache.invalidations >= 1

    def test_multi_page_write_invalidates_interior_pages(self):
        # Blocks on three consecutive pages, then one write spanning
        # all of them: the regression was invalidating only the first
        # and last page of the written range, leaving the middle
        # page's (now stale) block chained and reachable.
        jmp_to = lambda target: Instruction(Op.JMP, imm=target)  # noqa: E731
        memory = Memory()
        memory.map_region(0x10000, 0x4000,
                          PROT_READ | PROT_WRITE | PROT_EXEC, name="rwx")
        for page_start, target in ((0x10000, 0x11000), (0x11000, 0x12000)):
            memory.write(page_start, _encode([jmp_to(target)]), force=True)
        memory.write(0x12000, _encode([Instruction(Op.HALT)]), force=True)
        vm = VM(memory=memory, entry=0x10000, engine="threaded")
        vm.run()
        cache = vm._block_cache
        assert len(cache._blocks) == 3
        cache.note_write(0x10000, 0x2008)  # spans pages 0x10,0x11,0x12
        assert not cache._blocks, "interior-page block survived the write"


class TestChainInvalidation:
    def test_smc_patches_chained_successor(self):
        # A and B chain (A ends in JMP B); after 300 round trips A
        # patches B's LI immediate.  The chained A->B hop skips B's
        # guards, so only the severed link can keep the result right.
        patched = encode_instruction(Instruction(Op.LI, regs=(5,), imm=90))
        low = int.from_bytes(patched[:4], "little")
        high = int.from_bytes(patched[4:], "little")
        source = f"""
.section .text
_start:
    li r1, 0
    li r6, 0
a:
    addi r1, r1, 1
    cmpi r1, 300
    bne skip_patch
    li r2, {low}
    li r3, blockb
    st r2, [r3+0]
    li r2, {high}
    st r2, [r3+4]
skip_patch:
    jmp blockb
blockb:
    li r5, 7
    add r6, r6, r5
    cmpi r1, 600
    blt a
    halt
"""
        states = {}
        for label, engine in (("interp", "interp"), ("chained", "threaded")):
            image = link(assemble(source))
            memory = Memory()
            for segment in image.segments:
                prot = PROT_READ | PROT_WRITE
                if segment.flags & 0x4:
                    prot |= PROT_EXEC
                memory.map_region(
                    segment.vaddr, max(segment.size, 16), prot,
                    name=segment.name, data=segment.data,
                )
            vm = VM(memory=memory, entry=image.entry, engine=engine)
            vm.run()
            states[label] = _state(vm)
        assert states["chained"] == states["interp"]
        # 299 iterations at 7, 301 at 90 after the patch.
        assert states["interp"]["regs"][6] == 299 * 7 + 301 * 90

    def test_shared_region_write_invalidates_both_caches(self):
        # Fork's copy-on-reference sharing: two VMs adopt the same
        # text Region and both compile/chain from it.  A canonical
        # write through either address space must drop *both* caches'
        # translations (the Region carries both watchers) — this is
        # what keeps post-fork invalidation per-pid coherent.
        code = _encode([
            Instruction(Op.LI, regs=(1, ), imm=5),
            Instruction(Op.HALT),
        ])
        memory_a = Memory()
        shared = memory_a.map_region(
            0x1000, 4096, PROT_READ | PROT_WRITE | PROT_EXEC,
            data=code, name="text",
        )
        memory_b = Memory()
        memory_b.adopt_region(shared)
        vm_a = VM(memory=memory_a, entry=0x1000, engine="threaded")
        vm_b = VM(memory=memory_b, entry=0x1000, engine="threaded")
        vm_a.run()
        vm_b.run()
        cache_a, cache_b = vm_a._block_cache, vm_b._block_cache
        assert cache_a._blocks and cache_b._blocks
        assert len(shared.watchers) == 2
        memory_b.write(0x1000, b"\x00" * 8, force=True)
        assert not cache_a._blocks, "writer's sibling kept a stale block"
        assert not cache_b._blocks
        assert cache_a.invalidations >= 1 and cache_b.invalidations >= 1

    def test_counters_exposed(self):
        vm = _source_vm(HOT_LOOP)
        vm.run()
        cache = vm._block_cache
        assert cache.chains_linked > 0
        assert cache.superblocks_fused >= 1
        reference = _source_vm(HOT_LOOP, engine="interp")
        reference.run()
        assert _state(vm) == _state(reference)


class TestSuperblocks:
    def test_hot_cycle_fuses_and_matches_interp(self):
        vms = {}
        for label, engine in (("interp", "interp"), ("chained", "threaded")):
            vm = _source_vm(HOT_LOOP, engine=engine)
            vm.run()
            vms[label] = vm
        assert _state(vms["chained"]) == _state(vms["interp"])
        assert vms["chained"]._block_cache.superblocks_fused >= 1

    def test_smc_abort_inside_superblock_unwinds_exactly(self):
        # The loop body copies each word back onto itself, sweeping an
        # address cursor upward from the scratch region into the loop's
        # own code.  The rewrite is byte-identical — semantics never
        # change — but the engine cannot know that: once the cursor
        # enters the fused cycle's span (well after the 256-execution
        # fusion threshold), the store must abort the superblock pass,
        # roll the batched accounting back, and re-translate.  Exact
        # cycle/instruction equality with the interpreter proves the
        # unwind is lossless.
        code = _encode([
            Instruction(Op.LI, regs=(1,), imm=0),        # 0x1000  i
            Instruction(Op.LI, regs=(3,), imm=0x800),    # 0x1008  cursor
            Instruction(Op.LD, regs=(2, 3), imm=0),      # 0x1010  loop:
            Instruction(Op.ST, regs=(2, 3), imm=0),      # 0x1018
            Instruction(Op.ADDI, regs=(3, 3), imm=8),    # 0x1020
            Instruction(Op.ADDI, regs=(1, 1), imm=1),    # 0x1028
            Instruction(Op.CMPI, regs=(1,), imm=400),    # 0x1030
            Instruction(Op.BLT, imm=0x1010),             # 0x1038
            Instruction(Op.HALT),                        # 0x1040
        ])
        states = {}
        for label, engine in (("interp", "interp"), ("chained", "threaded")):
            vm = _raw_vm(code, engine=engine, scratch=(0x800, 0x800))
            fault = None
            try:
                vm.run()
            except ExecutionFault as err:  # pragma: no cover - must not
                fault = err
            states[label] = _state(vm, fault)
            if engine == "threaded":
                cache = vm._block_cache
                assert cache.superblocks_fused >= 1
                assert cache.invalidations >= 1
        assert states["chained"] == states["interp"]

    def test_dead_superblock_not_reentered_after_kill(self):
        vm = _source_vm(HOT_LOOP)
        vm.run()
        cache = vm._block_cache
        assert cache.superblocks_fused >= 1
        # Invalidate everything: every superblock must be killed and
        # detached from its head so a fresh lookup recompiles cleanly.
        text = vm.memory.find_region(".text")
        cache.note_write(text.start, len(text.data))
        assert not cache._blocks
        assert cache.superblocks_killed == cache.superblocks_fused


class TestPreemptionOnChainBoundaries:
    def _sliced_states(self, engine: str, slice_len: int):
        vm = _source_vm(HOT_LOOP, engine=engine)
        snapshots = []
        for _ in range(100_000):
            vm.run_slice(slice_len)
            snapshots.append((vm.pc, vm.cycles, vm.instructions_executed,
                              tuple(vm.regs)))
            if vm.exit_status is not None:
                break
        assert vm.exit_status is not None
        return snapshots

    def test_slice_boundaries_identical_across_engines(self):
        # Every preemption point — including ones that land exactly on
        # a chain hop or inside what would be a fused superblock pass —
        # must leave the same architectural state as the interpreter
        # preempted at the same instruction count.
        for slice_len in (1, 3, 7, 64, 257, 1000):
            interp = self._sliced_states("interp", slice_len)
            chained = self._sliced_states("threaded", slice_len)
            assert chained == interp, f"slice={slice_len}"
