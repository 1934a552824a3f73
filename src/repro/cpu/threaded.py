"""Threaded-code execution engine: a basic-block translation cache with
a compiled superblock tier.

On first entry to a block the engine decodes the straight-line run of
instructions up to the next control transfer, trap, or ``HALT`` and
compiles it into a list of pre-bound thunks — one closure per
instruction with register indices, immediates, and cycle-accounting
corrections baked in at compile time.  Subsequent executions of the
block pay one dictionary probe, one guard comparison, and one batched
cycle/instruction update instead of per-instruction fetch, decode, and
dispatch.

Each thunk comes from one small factory per opcode (``_FACTORIES``),
found with one dict lookup per translated instruction and capturing
only what its thunk uses.  The ALU, compare and conditional-branch
factories are compiled once, at import, from the text of the semantics
table (:mod:`repro.isa.semantics`) that the interpreter, the superblock
generator and the installer's constant folding read too, so their
thunks evaluate the table's expression inline with no call per
executed instruction.  The others (memory, stack, control transfer,
traps, ``LI``, ``MOV``, ``RDTSC``) are written here, because what they
do differently from the interpreter is the mechanism: the data TLB,
batched-cycle corrections and rollback.

On top of the translation cache sit two dispatch-elimination layers,
always on:

- **Direct block chaining.**  A block whose terminator has a static
  successor (fall-through, direct branch, ``CALL``, or the return path
  of a trap) records the successor PC(s) at compile time; the first
  execution that takes such an exit links the successor block into the
  predecessor (two-way for conditional branches), and later
  executions invoke the successor directly, skipping the dispatch
  loop's dict probe and guard re-check.  Chained entry is only taken
  when the remaining instruction budget covers the successor, so
  scheduler preemption points are bit-identical with the interpreter.
- **Compiled superblocks.**  When a chain closes a hot cycle (a
  fusable block's execution count crosses a multiple of 256), the
  member blocks are unrolled into one flat instruction list and
  emitted as the source of one Python function, compiled once.  One
  call of that function runs as many passes over the cycle as the
  budget covers, under one merged version-guard vector checked at
  entry.  See *The superblock tier* below.

The invalidation invariant that makes chaining sound: **a chained or
fused entry never re-validates its target's guards, so any write that
could stale a translation must eagerly drop it** (dropping severs the
inbound links via the block's ``preds`` list and kills any superblock
it belongs to).  Three mechanisms cooperate:

- Engine stores (:meth:`BlockCache._store`) call
  :meth:`BlockCache.note_write` *before* the bytes land (pre-image
  invalidation), then perform the store; the caller then aborts the
  running block/superblock if its own span was hit.
- Canonical stores (``Memory.write`` — guest slow path, kernel
  syscalls writing guest buffers, ``brk`` growth) notify pre-mutation
  watchers that each cache registers on every region it compiles code
  from; fork-shared regions carry both processes' watchers, so a
  forced write invalidates parent and child coherently.
- ``lookup`` still re-validates write-version guards, which covers
  uncached entry paths exactly as before.

Bit-identity with the reference interpreter is the contract, not a
goal: registers, flags, memory, cycle counts (including the values
``RDTSC`` observes mid-block and the kernel observes at trap time),
instruction counts, fault PCs and messages, and fail-stop reasons must
all be indistinguishable.  The pieces that make that work:

- **Batched accounting with per-instruction corrections.**  A block's
  (or superblock pass's) total cycles and instruction count are added
  on entry.  Every point that can observe or abort mid-block
  (``RDTSC``, faults, self-modifying stores, off-cycle branch exits)
  carries pre-computed corrections (``total - prefix[i]``) so the
  architectural counters are exact there.
- **Traps end blocks.**  ``SYS``/``ASYS`` only ever appear as a block
  terminator, so ``vm.cycles`` is exact when the kernel's
  :class:`~repro.cpu.vm.TrapHandler` runs, ``vm.pc`` names the call
  site (the authenticated-call checker and audit log depend on it),
  and :class:`~repro.cpu.vm.ProcessExit` propagates with the same
  state the interpreter would leave.  Traps are never fused into
  superblocks.
- **Write-version guards.**  Each block records the
  :class:`~repro.cpu.memory.Region` objects its code spans and their
  ``version`` counters at compile time; a block whose guard fails is
  recompiled on next entry.  Stores additionally consult a
  page->blocks index for eager invalidation, and a store that clobbers
  the *remainder of the currently running block* (or anywhere in a
  running superblock's span — conservative, but exact after rollback)
  rolls the batched accounting back and aborts to the dispatch loop,
  so self-modifying code (including the §4.1 stack shellcode)
  re-decodes exactly like the interpreter.
- **Compile faults are deferred.**  If instruction ``k > 0`` of a
  block cannot be fetched or decoded, the block is truncated before it
  with a fall-through terminator; the fault is then raised on the next
  dispatch at exactly the PC, accounting, and message the interpreter
  produces.  Chain-following re-enters ``lookup`` for unlinked exits,
  so deferred faults fire identically under chaining.

Loads and stores go through a one-entry data-region cache (a tiny data
TLB): a hit performs the access directly against the region bytearray
(bumping ``Region.version`` on writes, exactly like
``Memory.write``); any miss — wrong region, out of bounds, protection
— falls back to the canonical :class:`~repro.cpu.memory.Memory` path
so every fault is produced by the same code that produces it under the
interpreter.  The miss path and every store live in two shared helpers
(:meth:`BlockCache._load`, :meth:`BlockCache._store`) that block
thunks and generated superblocks both call.

The superblock tier
-------------------

``_fuse`` flattens up to 16 unrolled copies of the cycle (about 128
instructions, one *pass*) and :func:`repro.cpu.codegen.pass_source`
emits them as one function ``superblock(vm, b)``.  The caller
checks the guards and accounts the first pass; the function runs that
pass, then accounts and runs each further pass while it ends back at
the head and the budget covers another, and returns the instructions
it ran (an exit's ``BlockAbort.consumed`` counts the call's finished
passes too).  So ``_run_superblock`` is one call per entry, not one
per pass:

- **Inline, on locals:** the registers the cycle touches are Python
  locals for the whole call, loaded once and written back once, in a
  ``finally`` that every exit and fault passes through.  Register
  arithmetic for every straight-line opcode, with ``LI`` constants
  folded into their uses and assigned to their local only before
  something can observe it; each compare only records its operands
  and the branches after it test those, so the flags are computed
  once, at write-back; ``RDTSC``/``RDTSCH`` (the batched cycle total
  minus a literal correction); the data-TLB hit path of ``LD``/
  ``LDB``/``POP`` against the TLB entry unpacked into locals at entry
  and re-read after a miss; the exit test of each mid-pass conditional
  branch; and the span check after each store.  Intra-cycle ``JMP``s
  emit nothing.
- **Out of line,** through helpers shared with the block thunks: a
  data-TLB miss, every store (pre-image ``note_write`` before the bytes
  land), every fault, and every exit.  Each call passes the literal
  rollback triple (cycle correction, instruction correction, PC), so
  exits raise :class:`BlockAbort` and faults raise
  :class:`~repro.cpu.vm.ExecutionFault` with the same state and
  message as the thunks and the interpreter.
- **Only ints enter the source.**  The generator interpolates register
  indices from ``decode_fields``, masked immediates, PCs and
  corrections into fixed templates, and rejects any value that is not
  a plain ``int``.  Guest bytes and strings never become source text.
  Each function gets a fresh globals dict holding only its helpers
  (and no builtins).
- **When codegen is paid.**  ``compile()`` of a 16x-unrolled pass takes
  a few milliseconds.  Fusion only records the flat member list; the
  source is generated and compiled on the superblock's first entry,
  inside the ``block-chain`` span, so a superblock that is never
  entered (a rotation of a cycle already fused at another head) or
  dies first costs nothing.  No generated code is cached across
  ``BlockCache`` instances: every process compiles its own
  superblocks.  Plain blocks stay closures, because ``compile()`` of
  even a tiny function costs more than translating a block that runs
  once.
- **Bounded re-fusion.**  Every superblock teardown counts against its
  head PC in the cache, and a PC whose superblocks were killed
  ``_SB_SMC_LIMIT`` times is never fused again by that cache, so a
  guest that keeps rewriting a hot loop cannot force a ``compile()``
  every 256 iterations.
"""

from __future__ import annotations

from struct import Struct, pack_into, unpack_from
from typing import TYPE_CHECKING, Callable, Optional

from repro.cpu.codegen import pass_source, prefix_cycles, thunk_factories
from repro.cpu.memory import MemoryFault, PAGE_SHIFT, Region
from repro.cpu.vm import ExecutionFault
from repro.isa.encoding import INSTRUCTION_SIZE, EncodingError, decode_fields
from repro.isa.opcodes import CONDITIONAL_BRANCHES, ENDS_BLOCK, TRAPS, Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.vm import VM

_MASK = 0xFFFFFFFF

#: Maximum instructions per block.  Blocks are straight-line, so this
#: only bounds pathological NOP sleds; real blocks end at a branch.
MAX_BLOCK = 64

#: A block becomes a superblock-fusion candidate every time its
#: execution count crosses a multiple of ``_HOT_MASK + 1``.
_HOT_MASK = 0xFF
#: Superblock shape limits: at most this many member blocks / cycle
#: instructions, unrolled toward ``_SB_TARGET_INSNS`` per pass.
_SB_MAX_BLOCKS = 8
_SB_MAX_INSNS = 64
_SB_TARGET_INSNS = 128
_SB_MAX_UNROLL = 16
#: A superblock that keeps aborting on stores into its own span (a
#: loop that writes its own code region every pass) is torn down after
#: this many SMC aborts; each abort is exact, just slow.  The same
#: number bounds how often one head PC may be fused and killed.
_SB_SMC_LIMIT = 4

_U32 = Struct("<I").unpack_from


class BlockAbort(Exception):
    """Internal control flow: the running block/superblock must stop
    early with the architectural state already settled by the raiser.
    ``consumed`` is how many instructions completed since the block
    was entered (for a superblock, since the call began: its finished
    passes count too); ``smc`` marks aborts caused by a store into the
    running translation's own span (used to tear down pathologically
    self-modifying superblocks)."""

    def __init__(self, consumed: int, smc: bool = False):
        self.consumed = consumed
        self.smc = smc


def _rollback(vm, cyc_corr: int, icnt_corr: int, pc: int) -> None:
    """Unwind the batched accounting to an exact mid-block state."""
    vm.cycles -= cyc_corr
    vm.instructions_executed -= icnt_corr
    vm.pc = pc


def _leave(vm, cyc_corr: int, icnt_corr: int, pc: int, consumed: int):
    """Off-cycle branch exit from a superblock pass."""
    _rollback(vm, cyc_corr, icnt_corr, pc)
    raise BlockAbort(consumed)


def _smc_abort(vm, cyc_corr: int, icnt_corr: int, pc: int, consumed: int):
    """Self-modification abort: a store clobbered code the running
    translation would still execute.  ``pc`` is the instruction after
    the store; the dispatch loop re-decodes the new bytes from there."""
    _rollback(vm, cyc_corr, icnt_corr, pc)
    raise BlockAbort(consumed, smc=True)


def _div_zero(vm, cyc_corr: int, icnt_corr: int, pc: int):
    _rollback(vm, cyc_corr, icnt_corr, pc)
    raise ExecutionFault(pc, "division by zero")


def _span_check(nxt: int, end: int, cyc_corr: int, icnt_corr: int, consumed: int):
    """The post-store check of a block store at ``nxt - 8``: a store
    landing in the block's unexecuted remainder ``[nxt, end)`` aborts
    the block after the write (the window is empty for a block's last
    instruction)."""
    if nxt >= end:
        return _no_span

    def post_store(vm, address, size):
        if address < end and address + size > nxt:
            _smc_abort(vm, cyc_corr, icnt_corr, nxt, consumed)

    return post_store


def _no_span(vm, address, size) -> None:
    return None


class Block:
    """One compiled basic block plus its chain-link state."""

    __slots__ = (
        "entry", "end", "count", "total_cycles", "thunks",
        "guard_region", "guard_version", "extra_guards", "stop", "pages",
        "code", "s1_pc", "s2_pc", "s1", "s2", "preds",
        "exec_count", "fusable", "sb", "sbs",
    )

    def __init__(
        self, entry, end, count, total_cycles, thunks, guards, stop,
        code, s1_pc, s2_pc, fusable,
    ):
        self.entry = entry
        self.end = end
        self.count = count
        self.total_cycles = total_cycles
        self.thunks = thunks
        self.guard_region = guards[0][0]
        self.guard_version = guards[0][1]
        self.extra_guards = guards[1:] or None
        self.stop = stop
        self.pages = tuple(
            range(entry >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1)
        )
        #: Decoded instruction stream ``(pc, op, reg fields, imm)`` —
        #: kept so superblock fusion can re-specialize without
        #: re-fetching (the guards vouch for it staying current).
        self.code = code
        #: Static successor PCs (-1 when the exit is dynamic).  For a
        #: conditional branch s1 is the taken target and s2 the
        #: fall-through; JMP/CALL use s1 for the target; SYS/ASYS use
        #: s1 for the return path.
        self.s1_pc = s1_pc
        self.s2_pc = s2_pc
        #: Lazily linked successor blocks (direct chaining).
        self.s1: Optional[Block] = None
        self.s2: Optional[Block] = None
        #: Blocks whose s1/s2 point at this block — severed on drop.
        self.preds: list = []
        self.exec_count = 0
        #: Eligible for superblock membership (conditional/JMP
        #: terminator, fully decoded).
        self.fusable = fusable
        #: Superblock headed by this block, if any.
        self.sb: Optional["Superblock"] = None
        #: Every superblock this block is a member of (for teardown).
        self.sbs: list = []


class Superblock:
    """A fused, unrolled hot cycle: one generated function that runs
    passes until an exit or the budget stops it, one guard check per
    entry, one batched accounting update per pass."""

    __slots__ = (
        "entry", "count", "total_cycles", "run", "flat", "span", "guards",
        "blocks", "dead", "smc_aborts",
    )

    def __init__(self, entry, count, total_cycles, flat, span, guards, blocks):
        self.entry = entry
        self.count = count
        self.total_cycles = total_cycles
        #: The generated function ``run(vm, budget)``, compiled from the
        #: unrolled member list ``flat`` and the code ``span`` on first
        #: entry, so a superblock that dies before it is entered (or is
        #: never entered) costs no ``compile()``.
        self.run: Optional[Callable] = None
        self.flat = flat
        self.span = span
        self.guards = guards
        self.blocks = blocks
        self.dead = False
        self.smc_aborts = 0


class BlockCache:
    """The per-VM translation cache and its dispatch loop."""

    def __init__(self, vm: "VM"):
        self.vm = vm
        self._blocks: dict[int, Block] = {}
        #: page number -> set of block entry PCs whose code touches it.
        #: Lets stores invalidate cached translations in O(1) in the
        #: common no-code-on-this-page case.
        self._page_index: dict[int, set] = {}
        #: One-entry data TLB (see module docstring).  Starts with an
        #: empty dummy region so the first access always misses.
        self._dregion: Region = Region(start=0, data=bytearray(), prot=0)
        #: Regions (by id) this cache has registered a pre-mutation
        #: watcher on, so canonical writes invalidate eagerly too.
        self._watched: set[int] = set()
        #: Head PC -> superblocks killed there (the re-fusion bound).
        self._sb_kills: dict[int, int] = {}
        self.compiles = 0
        self.invalidations = 0
        self.chains_linked = 0
        self.chains_severed = 0
        self.superblocks_fused = 0
        self.superblocks_killed = 0

    # -- dispatch ------------------------------------------------------

    def run(self, max_instructions: int) -> None:
        """Execute until HALT/exit or until ``max_instructions`` are
        spent; mirrors the interpreter's budget semantics exactly (a
        block longer than the remaining budget is single-stepped so the
        budget runs out at the same PC).

        On exhaustion the engine returns with the architectural state
        exactly as the interpreter leaves it after the same number of
        instructions, which is what makes scheduler interleavings
        engine-independent.  Chained successors and superblocks are
        only entered when the remaining budget covers them, so the
        stop always lands on a block boundary the interpreter would
        also stop at."""
        vm = self.vm
        lookup = self.lookup
        step = vm.step
        budget = max_instructions

        while budget > 0:
            block = lookup(vm.pc)
            # Chain-following inner loop: after executing `block`,
            # hop straight to a linked successor without re-entering
            # the dispatch loop (no dict probe, no guard re-check —
            # eager invalidation severs links before they can stale).
            while True:
                count = block.count
                if count > budget:
                    # Slice shorter than the block: single-step the
                    # tail so budget exhaustion lands at exactly the
                    # interpreter's PC.
                    if not step():
                        return
                    budget -= 1
                    break
                sb = block.sb
                if sb is not None and sb.count <= budget:
                    entered, budget = self._run_superblock(sb, budget)
                    if entered:
                        break
                vm.cycles += block.total_cycles
                vm.instructions_executed += count
                try:
                    for thunk in block.thunks:
                        thunk(vm)
                except BlockAbort as abort:
                    budget -= abort.consumed
                    break
                if block.stop:
                    return
                budget -= count
                n = block.exec_count + 1
                block.exec_count = n
                if block.fusable and block.sb is None and not (n & _HOT_MASK):
                    self._maybe_fuse(block)
                if budget <= 0:
                    break
                pc = vm.pc
                if pc == block.s1_pc:
                    succ = block.s1
                    if succ is None:
                        succ = self._link(block, pc, 1)
                elif pc == block.s2_pc:
                    succ = block.s2
                    if succ is None:
                        succ = self._link(block, pc, 2)
                else:
                    break  # dynamic exit (JR/RET/...): full dispatch
                block = succ

    def _run_superblock(self, sb: Superblock, budget: int):
        """Execute passes of a fused cycle while the budget covers a
        full pass: one call of the generated function, which loops
        over the passes itself.  Returns ``(entered, budget)``;
        ``entered`` is False when the guard vector was stale (the
        superblock is then killed and the caller falls back to
        per-block execution)."""
        for region, version in sb.guards:
            if region.version != version:
                self._kill_superblock(sb)
                return False, budget
        run = sb.run
        if run is None:
            run = self._codegen(sb)
        vm = self.vm
        vm.cycles += sb.total_cycles  # the first pass; later ones account themselves
        vm.instructions_executed += sb.count
        try:
            return True, budget - run(vm, budget)
        except BlockAbort as abort:
            # The raiser already rolled the batched accounting back
            # and set vm.pc; ``consumed`` counts the call's earlier
            # passes too, so only the budget needs settling.
            if abort.smc and not sb.dead:
                sb.smc_aborts += 1
                if sb.smc_aborts >= _SB_SMC_LIMIT:
                    sb.blocks[0].fusable = False
                    self._kill_superblock(sb)
            return True, budget - abort.consumed

    # -- cache management ----------------------------------------------

    def lookup(self, pc: int) -> Block:
        block = self._blocks.get(pc)
        if block is not None:
            if block.guard_region.version == block.guard_version:
                extra = block.extra_guards
                if extra is None:
                    return block
                for region, version in extra:
                    if region.version != version:
                        break
                else:
                    return block
            self._drop(block)
            self.invalidations += 1
        return self._compile(pc)

    def _link(self, block: Block, pc: int, slot: int) -> Block:
        """Form a chain link from ``block`` to the block at ``pc``
        (which may compile it, or raise its deferred fault exactly as
        the dispatch loop would)."""
        succ = self.lookup(pc)
        if slot == 1:
            block.s1 = succ
        else:
            block.s2 = succ
        succ.preds.append(block)
        self.chains_linked += 1
        return succ

    def _drop(self, block: Block) -> None:
        self._blocks.pop(block.entry, None)
        for page in block.pages:
            entries = self._page_index.get(page)
            if entries is not None:
                entries.discard(block.entry)
                if not entries:
                    del self._page_index[page]
        # Sever inbound chain links: a chained predecessor must never
        # invoke a dropped (possibly stale) translation.
        preds = block.preds
        if preds:
            for pred in preds:
                if pred.s1 is block:
                    pred.s1 = None
                    self.chains_severed += 1
                if pred.s2 is block:
                    pred.s2 = None
                    self.chains_severed += 1
            block.preds = []
        # ...and outbound ones, so the successors' pred lists do not
        # accumulate dead entries across SMC recompile churn.
        s1 = block.s1
        if s1 is not None:
            s1.preds = [p for p in s1.preds if p is not block]
            block.s1 = None
        s2 = block.s2
        if s2 is not None:
            s2.preds = [p for p in s2.preds if p is not block]
            block.s2 = None
        # Any superblock containing this block is now stale.
        if block.sbs:
            for sb in block.sbs[:]:
                self._kill_superblock(sb)

    def _kill_superblock(self, sb: Superblock) -> None:
        if sb.dead:
            return
        sb.dead = True
        self.superblocks_killed += 1
        self._sb_kills[sb.entry] = self._sb_kills.get(sb.entry, 0) + 1
        head = sb.blocks[0]
        if head.sb is sb:
            head.sb = None
        for member in sb.blocks:
            try:
                member.sbs.remove(sb)
            except ValueError:
                pass

    def note_write(self, address: int, size: int) -> None:
        """Drop cached blocks whose code a write overlaps — called
        *before* the store lands (pre-image invalidation), both from
        the engine's fast-path stores and, via ``Region.watchers``,
        from every canonical ``Memory`` mutation.  With chaining this
        is load-bearing, not just hygiene: a chained predecessor
        invokes its successor without re-checking guards, so the
        successor must be dropped (severing the link) the moment its
        code is overwritten."""
        index = self._page_index
        if not index:
            return
        lo = address >> PAGE_SHIFT
        hi = (address + size - 1) >> PAGE_SHIFT
        end = address + size
        for page in range(lo, hi + 1):
            entries = index.get(page)
            if not entries:
                continue
            for entry in list(entries):
                block = self._blocks.get(entry)
                if block is None:
                    entries.discard(entry)
                    continue
                if address < block.end and end > block.entry:
                    self._drop(block)
                    self.invalidations += 1

    # -- shared memory slow paths --------------------------------------

    def _load(self, vm, address, size, stack, cyc_corr, icnt_corr, pc):
        """A guest load of ``size`` (4 or 1) bytes: the data-TLB hit
        path, else the canonical ``Memory`` read, which refills the
        TLB or faults exactly like the interpreter (``stack`` selects
        the ``POP``/``RET`` message prefix)."""
        region = self._dregion
        offset = address - region.start
        if 0 <= offset and offset + size <= len(region.data) and region.prot & 1:
            if size == 4:
                return unpack_from("<I", region.data, offset)[0]
            return region.data[offset]
        memory = vm.memory
        try:
            value = memory.read_u32(address) if size == 4 else memory.read_u8(address)
        except MemoryFault as err:
            _rollback(vm, cyc_corr, icnt_corr, pc)
            prefix = "stack underflow: " if stack else ""
            raise ExecutionFault(pc, prefix + str(err)) from err
        self._dregion = memory.region_at(address)
        return value

    def _store(self, vm, address, value, size, stack, cyc_corr, icnt_corr, pc):
        """A guest store of ``size`` (4 or 1) bytes.  On a data-TLB hit
        the overlapped translations are dropped *before* the bytes land
        (pre-image invalidation); a miss takes the canonical ``Memory``
        path, whose region watchers do the same, and refills the TLB
        or faults like the interpreter (``stack`` selects the ``PUSH``/
        ``CALL`` message prefix).  The caller runs its own span check
        afterwards."""
        region = self._dregion
        offset = address - region.start
        if 0 <= offset and offset + size <= len(region.data) and region.prot & 2:
            index = self._page_index
            if (address >> PAGE_SHIFT) in index or (
                (address + size - 1) >> PAGE_SHIFT
            ) in index:
                self.note_write(address, size)
            if size == 4:
                pack_into("<I", region.data, offset, value & _MASK)
            else:
                region.data[offset] = value & 0xFF
            region.version += 1
            return
        memory = vm.memory
        try:
            if size == 4:
                memory.write_u32(address, value)
            else:
                memory.write_u8(address, value)
        except MemoryFault as err:
            _rollback(vm, cyc_corr, icnt_corr, pc)
            prefix = "stack overflow: " if stack else ""
            raise ExecutionFault(pc, prefix + str(err)) from err
        self._dregion = memory.region_at(address)

    def _tlb(self):
        """The data-TLB entry unpacked for generated code's inline load
        check: ``(start, data, readable length, readable length - 4)``."""
        region = self._dregion
        data = region.data
        readable = len(data) if region.prot & 1 else 0
        return region.start, data, readable, readable - 4

    # -- compilation ---------------------------------------------------

    def _compile(self, entry: int) -> Block:
        recorder = self.vm.recorder
        if not recorder.enabled:
            return self._translate(entry)
        # Tracing: attribute translation time to its own engine stage
        # even when the first instruction faults out of _translate.
        recorder.begin("block-compile", "engine")
        try:
            return self._translate(entry)
        finally:
            recorder.end()

    def _translate(self, entry: int) -> Block:
        vm = self.vm
        memory = vm.memory
        nx = vm.nx
        fetched = []  # (pc, op, reg fields, imm)
        guards: list[tuple[Region, int]] = []
        pc = entry
        terminated = False
        # The region the last word came from: its bytes, start, and the
        # last PC whose whole word lies inside it (-1: none yet).
        data = None
        base = 0
        last = -1
        while True:
            if pc <= last:
                # Same region as the word before, which already passed
                # the NX and read checks: decode the word in place.
                # Such a word is never the block's first, so a decode
                # error only truncates the block and its text (which
                # names the offset in the region) is never raised.
                word = data
                offset = pc - base
                region = None
            else:
                # Entering a new region (or faulting): VM._fetch's NX
                # check and read — but a failure past the first
                # instruction truncates the block instead of raising,
                # deferring the fault to the dispatch that actually
                # reaches it (identical accounting and message).
                if nx and not memory.executable(pc):
                    if not fetched:
                        raise ExecutionFault(pc, "NX violation: page not executable")
                    break
                try:
                    word = memory.read(pc, INSTRUCTION_SIZE)
                except MemoryFault as fault:
                    if not fetched:
                        raise ExecutionFault(
                            pc, f"instruction fetch: {fault}"
                        ) from fault
                    break
                offset = 0
                region = memory.region_at(pc)
            try:
                op, fields, imm = decode_fields(word, offset)
            except EncodingError as err:
                if not fetched:
                    raise ExecutionFault(
                        pc, f"illegal instruction: {err}"
                    ) from err
                break
            if region is not None:
                # A region's guard goes in once its first word decodes.
                # Blocks run forward, so a region once left is never
                # re-entered.
                guards.append((region, region.version))
                data = region.data
                base = region.start
                last = base + len(data) - INSTRUCTION_SIZE
            fetched.append((pc, op, fields, imm))
            if op in ENDS_BLOCK:
                terminated = True
                break
            pc += INSTRUCTION_SIZE
            if len(fetched) >= MAX_BLOCK:
                break

        count = len(fetched)
        end = fetched[-1][0] + INSTRUCTION_SIZE
        # Cycle prefix sums: prefix[i] covers instructions 0..i
        # inclusive (the interpreter charges cycles *before* executing
        # an instruction, so a fault at i has paid for i).
        prefix = prefix_cycles(fetched)
        total = prefix[-1]

        # One factory per instruction, found with one dict lookup; the
        # factory binds the rollback corrections of a fault or exit at
        # this instruction, and what a store's span check needs.
        thunks: list[Callable] = []
        regs = vm.regs  # the register file list is never reassigned
        for i, (ipc, op, fields, imm) in enumerate(fetched):
            thunk = _FACTORIES[op](
                self, regs, ipc, fields, imm, total - prefix[i], count - (i + 1), i + 1, end,
            )
            if thunk is not None:
                thunks.append(thunk)

        # Static successor PCs for direct chaining, and superblock
        # eligibility.  Dynamic exits (JR/CALLR/RET) and stops get the
        # -1 sentinel and always return to the dispatch loop.
        s1_pc = -1
        s2_pc = -1
        fusable = False
        stop = False
        if terminated:
            tpc, top, _, timm = fetched[-1]
            tnxt = tpc + INSTRUCTION_SIZE
            if top in CONDITIONAL_BRANCHES:
                s1_pc = timm & _MASK
                s2_pc = tnxt
                fusable = True
            elif top in TRAPS:
                s1_pc = tnxt
            elif top is Op.JMP:
                s1_pc = timm & _MASK
                fusable = True
            elif top is Op.CALL:
                s1_pc = timm & _MASK
            elif top is Op.HALT:
                stop = True
        else:
            # Truncated block: fall through to the next PC; the next
            # dispatch re-enters the cache (or raises the deferred
            # fetch fault).
            nxt = end

            def fallthrough(vm, _nxt=nxt):
                vm.pc = _nxt

            thunks.append(fallthrough)
            s1_pc = end

        block = Block(
            entry, end, count, total, thunks, guards, stop,
            tuple(fetched), s1_pc, s2_pc, fusable,
        )
        self._blocks[entry] = block
        for page in block.pages:
            self._page_index.setdefault(page, set()).add(entry)
        # Register pre-mutation watchers so canonical writes (kernel
        # buffer fills, brk growth, forced attack writes) invalidate
        # before the bytes land — see the module docstring.
        for region, _ in guards:
            rid = id(region)
            if rid not in self._watched:
                self._watched.add(rid)
                region.watchers.append(self.note_write)
        self.compiles += 1
        return block

    # -- superblock fusion ---------------------------------------------

    def _maybe_fuse(self, head: Block) -> None:
        """If the chain out of ``head`` closes a cycle back to it,
        fuse the member blocks into a superblock.  Called every
        ``_HOT_MASK + 1`` executions of a fusable, unfused block."""
        if self._sb_kills.get(head.entry, 0) >= _SB_SMC_LIMIT:
            head.fusable = False  # re-fusion bound for this PC
            return
        path = [head]
        seen = {id(head)}
        insns = head.count
        block = head
        while True:
            s1 = block.s1
            s2 = block.s2
            if s1 is not None and s2 is not None:
                nxt = s1 if s1.exec_count >= s2.exec_count else s2
            elif s1 is not None:
                nxt = s1
            else:
                nxt = s2
            if nxt is head:
                break  # cycle found
            if (
                nxt is None
                or not nxt.fusable
                or id(nxt) in seen
                or len(path) >= _SB_MAX_BLOCKS
                or insns + nxt.count > _SB_MAX_INSNS
            ):
                return
            seen.add(id(nxt))
            path.append(nxt)
            insns += nxt.count
            block = nxt
        recorder = self.vm.recorder
        if not recorder.enabled:
            self._fuse(path, insns)
            return
        recorder.begin("block-chain", "engine")
        try:
            self._fuse(path, insns)
        finally:
            recorder.end()

    def _fuse(self, path: list, cycle_insns: int) -> None:
        head = path[0]
        unroll = max(1, min(_SB_MAX_UNROLL, _SB_TARGET_INSNS // cycle_insns))
        span_lo = min(b.entry for b in path)
        span_hi = max(b.end for b in path)

        # Merged guard vector (deduped by region): one validation per
        # superblock entry instead of one per member per pass.
        guards: list[tuple[Region, int]] = []
        seen_regions: set[int] = set()
        for member in path:
            member_guards = [(member.guard_region, member.guard_version)]
            if member.extra_guards:
                member_guards.extend(member.extra_guards)
            for region, version in member_guards:
                if id(region) not in seen_regions:
                    seen_regions.add(id(region))
                    guards.append((region, version))

        # Flatten `unroll` copies of the cycle.  Unrolled copies share
        # the same guest PCs, so every literal PC/fault value stays
        # architecturally correct in any copy.  Each member's
        # terminator carries the PC of its off-cycle successor (-1 for
        # JMP and for a branch whose both ways continue the cycle).
        flat = []  # (pc, op, reg fields, imm, off-cycle pc, stays on taken)
        npath = len(path)
        for _ in range(unroll):
            for bi, member in enumerate(path):
                chosen = path[bi + 1] if bi + 1 < npath else head
                code = member.code
                for ipc, op, regs, imm in code[:-1]:
                    flat.append((ipc, op, regs, imm, -1, False))
                tpc, top, tregs, timm = code[-1]
                off_pc = -1
                on_taken = chosen.entry == member.s1_pc
                if top is not Op.JMP and member.s1_pc != member.s2_pc:
                    off_pc = member.s2_pc if on_taken else member.s1_pc
                flat.append((tpc, top, tregs, timm, off_pc, on_taken))

        sb = Superblock(
            head.entry, len(flat), prefix_cycles(flat)[-1], flat,
            (span_lo, span_hi), tuple(guards), tuple(path),
        )
        head.sb = sb
        for member in path:
            member.sbs.append(sb)
        self.superblocks_fused += 1

    def _codegen(self, sb: Superblock) -> Callable:
        """Generate and compile a superblock's pass function (on its
        first entry), attributed to the ``block-chain`` span."""
        recorder = self.vm.recorder
        if not recorder.enabled:
            return self._compile_pass(sb)
        recorder.begin("block-chain", "engine")
        try:
            return self._compile_pass(sb)
        finally:
            recorder.end()

    def _compile_pass(self, sb: Superblock) -> Callable:
        source = pass_source(sb.flat, *sb.span)
        # A fresh namespace per function: the helpers it calls and the
        # register file, nothing else (no builtins either).
        namespace = {
            "__builtins__": {},
            "regs": self.vm.regs,
            "tlb": self._tlb,
            "load": self._load,
            "store": self._store,
            "leave": _leave,
            "smc_abort": _smc_abort,
            "div_zero": _div_zero,
            "U32": _U32,
        }
        exec(compile(source, f"<superblock {sb.entry:#010x}>", "exec"), namespace)
        sb.run = namespace.pop("superblock")
        sb.flat = None
        return sb.run


# -- block thunks ------------------------------------------------------
#
# One factory per opcode, looked up once per translated instruction:
# ``factory(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed,
# end)`` returns the instruction's pre-bound thunk, capturing only what
# that thunk uses, or None when the instruction's whole effect lives in
# the batched accounting.  ``fields`` are its register fields,
# ``cyc_corr``/``icnt_corr`` the corrections that roll the batched
# accounting back to a fault or exit at it, ``consumed`` the block's
# instructions through it and ``end`` the block's end (a store landing
# in ``[pc + 8, end)`` aborts the block after the write).  The ALU,
# compare and branch factories are compiled from the semantics table's
# text (:func:`repro.cpu.codegen.thunk_factories`); these are the rest.


def _no_code(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    return None  # NOP, CPUWORK: the cycles are in the batched total


def _li(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    d = fields[0]
    value = imm & _MASK

    def thunk(vm):
        regs[d] = value

    return thunk


def _mov(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    d, s = fields

    def thunk(vm):
        regs[d] = regs[s]

    return thunk


def _ld(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    d, base = fields
    load = cache._load

    def thunk(vm):
        # Data-TLB hit path inlined (no nested call on hit).
        address = (regs[base] + imm) & _MASK
        region = cache._dregion
        offset = address - region.start
        if 0 <= offset and offset + 4 <= len(region.data) and region.prot & 1:
            regs[d] = unpack_from("<I", region.data, offset)[0]
        else:
            regs[d] = load(vm, address, 4, 0, cyc_corr, icnt_corr, pc)

    return thunk


def _ldb(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    d, base = fields
    load = cache._load

    def thunk(vm):
        address = (regs[base] + imm) & _MASK
        region = cache._dregion
        offset = address - region.start
        if 0 <= offset < len(region.data) and region.prot & 1:
            regs[d] = region.data[offset]
        else:
            regs[d] = load(vm, address, 1, 0, cyc_corr, icnt_corr, pc)

    return thunk


def _storer(size: int):
    """The factory of ``ST`` (``size`` 4) or ``STB`` (1)."""

    def factory(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
        s, base = fields
        store = cache._store
        post_store = _span_check(pc + INSTRUCTION_SIZE, end, cyc_corr, icnt_corr, consumed)

        def thunk(vm):
            address = (regs[base] + imm) & _MASK
            store(vm, address, regs[s], size, 0, cyc_corr, icnt_corr, pc)
            post_store(vm, address, size)

        return thunk

    return factory


def _push(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    s = fields[0]
    store = cache._store
    post_store = _span_check(pc + INSTRUCTION_SIZE, end, cyc_corr, icnt_corr, consumed)

    def thunk(vm):
        value = regs[s]
        sp = (regs[15] - 4) & _MASK
        regs[15] = sp
        store(vm, sp, value, 4, 1, cyc_corr, icnt_corr, pc)
        post_store(vm, sp, 4)

    return thunk


def _pop(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    d = fields[0]
    load = cache._load

    def thunk(vm):
        value = load(vm, regs[15], 4, 1, cyc_corr, icnt_corr, pc)
        regs[15] = (regs[15] + 4) & _MASK
        regs[d] = value

    return thunk


# The batched cycle total was added at block entry; a counter read
# subtracts the pre-computed suffix, so the guest observes exactly the
# interpreter's mid-block counter value.


def _rdtsc(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    d = fields[0]

    def thunk(vm):
        regs[d] = (vm.cycles - cyc_corr) & _MASK

    return thunk


def _rdtsch(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    d = fields[0]

    def thunk(vm):
        regs[d] = ((vm.cycles - cyc_corr) >> 32) & _MASK

    return thunk


def _jmp(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    target = imm & _MASK

    def thunk(vm):
        vm.pc = target

    return thunk


def _jr(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    r = fields[0]

    def thunk(vm):
        vm.pc = regs[r]

    return thunk


def _call(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    target = imm & _MASK
    nxt = pc + INSTRUCTION_SIZE
    store = cache._store

    def thunk(vm):
        sp = (regs[15] - 4) & _MASK
        regs[15] = sp
        store(vm, sp, nxt, 4, 1, cyc_corr, icnt_corr, pc)
        vm.pc = target

    return thunk


def _callr(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    r = fields[0]
    nxt = pc + INSTRUCTION_SIZE
    store = cache._store

    def thunk(vm):
        sp = (regs[15] - 4) & _MASK
        regs[15] = sp
        store(vm, sp, nxt, 4, 1, cyc_corr, icnt_corr, pc)
        vm.pc = regs[r]  # read after the push, like the interpreter

    return thunk


def _ret(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    load = cache._load

    def thunk(vm):
        value = load(vm, regs[15], 4, 1, cyc_corr, icnt_corr, pc)
        regs[15] = (regs[15] + 4) & _MASK
        vm.pc = value

    return thunk


def _trap(authenticated: bool):
    """The factory of ``SYS`` or, ``authenticated``, ``ASYS``."""

    def factory(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
        nxt = pc + INSTRUCTION_SIZE

        def thunk(vm):
            # The kernel reads vm.pc (call site), vm.regs, and
            # vm.cycles (trap-time clock); all are exact here
            # because traps always terminate a block.
            vm.pc = pc
            handler = vm.trap_handler
            if handler is None:
                raise ExecutionFault(pc, "trap with no kernel attached")
            vm.syscall_count += 1
            vm.cycles += handler.handle_trap(vm, authenticated)
            vm.pc = nxt

        return thunk

    return factory


def _halt(cache, regs, pc, fields, imm, cyc_corr, icnt_corr, consumed, end):
    def thunk(vm):
        vm.exit_status = regs[1] & _MASK
        vm.pc = pc  # the interpreter leaves pc at the HALT

    return thunk


_FACTORIES: dict[Op, Callable] = {
    **thunk_factories({"__builtins__": {}, "div_zero": _div_zero}),
    Op.NOP: _no_code,
    Op.CPUWORK: _no_code,
    Op.LI: _li,
    Op.MOV: _mov,
    Op.LD: _ld,
    Op.LDB: _ldb,
    Op.ST: _storer(4),
    Op.STB: _storer(1),
    Op.PUSH: _push,
    Op.POP: _pop,
    Op.RDTSC: _rdtsc,
    Op.RDTSCH: _rdtsch,
    Op.JMP: _jmp,
    Op.JR: _jr,
    Op.CALL: _call,
    Op.CALLR: _callr,
    Op.RET: _ret,
    Op.SYS: _trap(False),
    Op.ASYS: _trap(True),
    Op.HALT: _halt,
}
