"""Functions, the call graph, and the system call ordering graph.

§3.3: "the installer then determines the application's system call
graph ... computed from the standard call graph of the program by
keeping only those nodes that correspond to system calls and adjusting
the edges appropriately."

The derivation here is the standard context-insensitive one:

1. Function entries are the program entry plus every direct call
   target; a function's body is everything reachable from its entry by
   intra-procedural edges.
2. A *supergraph* is formed by replacing each call's fallthrough edge
   with a call edge (caller block -> callee entry) and return edges
   (each returning block of the callee -> the call's fallthrough).
   Indirect calls conservatively target every known function entry.
3. The "last system call before here" sets are solved by forward
   dataflow over the supergraph; the predecessor set of a syscall
   block is then exactly the §3.3 policy content.  Block id 0 is the
   pseudo-block for "program start".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import SymbolRef
from repro.isa.opcodes import Op
from repro.plto.cfg import CfgError, ControlFlowGraph

#: The pseudo block id representing "no system call has run yet".
ENTRY_BLOCK_ID = 0


@dataclass
class FunctionInfo:
    entry_label: str
    entry_block: int
    blocks: set[int] = field(default_factory=set)
    #: blocks inside this function that end in RET (or JR-as-return)
    return_blocks: set[int] = field(default_factory=set)


@dataclass
class CallGraph:
    cfg: ControlFlowGraph
    functions: dict[str, FunctionInfo]
    #: (caller block, callee entry label) for each direct call site
    calls: list[tuple[int, str]]
    #: blocks containing indirect calls
    indirect_call_blocks: list[int]


def build_call_graph(cfg: ControlFlowGraph) -> CallGraph:
    unit = cfg.unit
    labels = unit.label_index()

    entries: dict[str, int] = {unit.binary.entry: cfg.entry_block}
    calls: list[tuple[int, str]] = []
    indirect: list[int] = []
    for block in cfg.blocks:
        terminator = block.terminator(unit)
        if terminator.op == Op.CALL:
            ref = terminator.imm
            if not isinstance(ref, SymbolRef) or ref.symbol not in labels:
                raise CfgError(f"unresolvable call target: {terminator}")
            entries.setdefault(ref.symbol, cfg.block_of[labels[ref.symbol]])
            calls.append((block.index, ref.symbol))
        elif terminator.op == Op.CALLR:
            indirect.append(block.index)

    functions: dict[str, FunctionInfo] = {}
    for label, entry_block in entries.items():
        info = FunctionInfo(entry_label=label, entry_block=entry_block)
        worklist = [entry_block]
        while worklist:
            current = worklist.pop()
            if current in info.blocks:
                continue
            info.blocks.add(current)
            terminator = cfg.blocks[current].terminator(unit)
            if terminator.op in (Op.RET, Op.JR):
                info.return_blocks.add(current)
            worklist.extend(cfg.blocks[current].successors)
        functions[label] = info

    return CallGraph(
        cfg=cfg, functions=functions, calls=calls, indirect_call_blocks=indirect
    )


def _supergraph_edges(graph: CallGraph) -> dict[int, set[int]]:
    """Interprocedural successor sets over CFG block indices."""
    cfg = graph.cfg
    unit = cfg.unit
    edges: dict[int, set[int]] = {
        block.index: set(block.successors) for block in cfg.blocks
    }

    def call_targets(block_index: int) -> list[str]:
        terminator = cfg.blocks[block_index].terminator(unit)
        if terminator.op == Op.CALL:
            assert isinstance(terminator.imm, SymbolRef)
            return [terminator.imm.symbol]
        # Indirect: conservatively, any function may be the target.
        return list(graph.functions)

    call_blocks = [block for block, _ in graph.calls] + graph.indirect_call_blocks
    for block_index in call_blocks:
        fallthrough = set(edges[block_index])
        edges[block_index] = set()
        for callee_label in call_targets(block_index):
            callee = graph.functions[callee_label]
            edges[block_index].add(callee.entry_block)
            for return_block in callee.return_blocks:
                edges.setdefault(return_block, set()).update(fallthrough)
    return edges


def syscall_ordering(graph: CallGraph) -> dict[int, frozenset[int]]:
    """Predecessor sets for every syscall block.

    Returns ``{syscall block index -> set of syscall block indices (or
    ENTRY_BLOCK_ID) that may immediately precede it}``.  Keys and set
    members are CFG block indices offset by +1 (0 is reserved for the
    entry pseudo-block), i.e. already in "block id" form.
    """
    cfg = graph.cfg
    edges = _supergraph_edges(graph)
    syscall_blocks = set(cfg.syscall_blocks())

    def block_id(index: int) -> int:
        return index + 1

    # Forward dataflow: in[b] = union(out[p]); out[b] = {b} if syscall.
    in_sets: dict[int, set[int]] = {b.index: set() for b in cfg.blocks}
    in_sets[cfg.entry_block].add(ENTRY_BLOCK_ID)

    def out_set(index: int) -> set[int]:
        if index in syscall_blocks:
            return {block_id(index)}
        return in_sets[index]

    worklist = [cfg.entry_block]
    while worklist:
        current = worklist.pop()
        flowing = out_set(current)
        for successor in edges.get(current, ()):
            before = len(in_sets[successor])
            in_sets[successor] |= flowing
            if len(in_sets[successor]) != before:
                worklist.append(successor)

    return {
        block_id(index): frozenset(in_sets[index])
        for index in sorted(syscall_blocks)
    }
