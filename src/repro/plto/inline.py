"""System-call stub inlining (§4.1).

"Since system calls are often made from stubs that are invoked by many
blocks, the next step is to analyze the call graph to identify blocks
that invoke these stubs and inline the stubs.  This inlining allows a
different system call policy to be used for each inlined site, rather
than having just one policy for the system call in the stub itself."

A *stub* here is a straight-line function (no internal control flow)
that contains at least one trap and ends in RET — the shape of every
libc syscall wrapper in :mod:`repro.workloads.runtime`.  Each CALL to a
stub is replaced by the stub body (sans RET); the stub itself is kept
only if something still references it (e.g. an indirect call).
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass

from repro.isa import Instruction, SymbolRef
from repro.isa.opcodes import ENDS_BLOCK, TRAPS, Op
from repro.plto.cfg import build_cfg
from repro.plto.callgraph import build_call_graph
from repro.plto.ir import IrInsn, IrUnit

#: Stubs larger than this are not inlined (mirrors compiler practice;
#: keeps pathological code from exploding the binary).
MAX_STUB_INSNS = 16


@dataclass
class InlineReport:
    """What happened, for logs and tests."""

    stubs: list[str]
    sites_inlined: int
    stubs_removed: list[str]


def _stub_body(unit: IrUnit, start: int, entry_label: str) -> list[Instruction]:
    """Return the stub's instructions from ``start`` (without the
    trailing RET), or raise ValueError if the function is not a
    straight-line stub."""
    body: list[Instruction] = []
    has_trap = False
    for position in range(start, min(start + MAX_STUB_INSNS + 1, len(unit.insns))):
        insn = unit.insns[position]
        if position != start and insn.labels:
            raise ValueError(f"{entry_label}: label inside stub body")
        op = insn.instruction.op
        if op == Op.RET:
            if not has_trap:
                raise ValueError(f"{entry_label}: no trap before RET")
            return body
        if op in TRAPS:
            has_trap = True
        elif op in ENDS_BLOCK:
            raise ValueError(f"{entry_label}: control flow inside stub")
        body.append(insn.instruction)
    raise ValueError(f"{entry_label}: stub too long or missing RET")


def inline_syscall_stubs(unit: IrUnit) -> InlineReport:
    """Inline every direct call to a syscall stub, in place."""
    cfg = build_cfg(unit)
    graph = build_call_graph(cfg)

    # Every function entry is a label (build_cfg resolves each call
    # target and the entry through the same index).
    labels = unit.label_index()
    stubs: dict[str, list[Instruction]] = {}
    for label in graph.functions:
        if label == unit.binary.entry:
            continue
        try:
            stubs[label] = _stub_body(unit, labels[label], label)
        except ValueError:
            continue

    sites = 0
    position = 0
    while position < len(unit.insns):
        insn = unit.insns[position]
        ref = insn.instruction.imm
        if (
            insn.instruction.op == Op.CALL
            and isinstance(ref, SymbolRef)
            and ref.symbol in stubs
        ):
            replacement = [
                IrInsn(instruction=copy.copy(instruction))
                for instruction in stubs[ref.symbol]
            ]
            unit.replace(position, replacement)
            sites += 1
            position += len(replacement)
        else:
            position += 1

    # Drop stubs nothing references any more (only if no indirect calls
    # exist, which could still reach them).
    removed: list[str] = []
    if not graph.indirect_call_blocks:
        removed = _remove_dead_stubs(unit, set(stubs))
    return InlineReport(
        stubs=sorted(stubs), sites_inlined=sites, stubs_removed=removed
    )


def _remove_dead_stubs(unit: IrUnit, stub_labels: set[str]) -> list[str]:
    """Delete each stub nothing references, deciding in sorted label
    order; a removed stub's own references no longer count, so a stub
    referenced only from an earlier-removed stub goes too.

    One pass counts the references and one builds the label index; the
    chosen spans are deleted together at the end.  They are disjoint:
    each runs from its label to its first RET with no label in between
    (``_stub_body`` admitted it so, and the check below keeps it so)."""
    refs = Counter(
        insn.instruction.imm.symbol
        for insn in unit.insns
        if isinstance(insn.instruction.imm, SymbolRef)
    )
    pinned = {
        reloc.symbol
        for reloc in unit.binary.relocations
        if reloc.section != ".text"
    }
    pinned.add(unit.binary.entry)
    labels = unit.label_index()

    removed: list[str] = []
    spans: list[tuple[int, int]] = []
    for label in sorted(stub_labels):
        if label in pinned or refs[label]:
            continue
        start = labels.get(label)
        if start is None:
            continue
        end = start
        while end < len(unit.insns):
            op = unit.insns[end].instruction.op
            end += 1
            if op == Op.RET:
                break
        if any(unit.insns[position].labels for position in range(start + 1, end)):
            continue  # something branches into the middle; keep it
        for insn in unit.insns[start:end]:
            if isinstance(insn.instruction.imm, SymbolRef):
                refs[insn.instruction.imm.symbol] -= 1
        spans.append((start, end))
        if label in unit.binary.symbols:
            del unit.binary.symbols[label]
        removed.append(label)
    for start, end in sorted(spans, reverse=True):
        del unit.insns[start:end]
    return removed
