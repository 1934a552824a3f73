"""Stub inlining and baseline passes."""

import pytest

from repro.asm import assemble
from repro.isa import SymbolRef
from repro.isa.opcodes import Op
from repro.kernel import Kernel
from repro.plto import (
    IrUnit,
    disassemble,
    inline_syscall_stubs,
    reassemble,
    remove_nops,
    run_baseline_passes,
)
from repro.plto import inline
from repro.plto.passes import remove_dead_li
from repro.workloads import build_profile_program
from repro.workloads.netserver import build_netserver
from repro.workloads.profiles import PROFILE_PROGRAMS

STUBS = """
.section .text
.global _start
_start:
    li r1, 11
    call sys_exit
sys_exit:
    li r0, 1
    sys
    ret
"""


class TestInlining:
    def test_call_replaced_with_body(self):
        unit = disassemble(assemble(STUBS))
        report = inline_syscall_stubs(unit)
        assert report.sites_inlined == 1
        assert report.stubs == ["sys_exit"]
        ops = [insn.instruction.op for insn in unit.insns]
        assert Op.CALL not in ops
        assert Op.SYS in ops

    def test_dead_stub_removed(self):
        unit = disassemble(assemble(STUBS))
        report = inline_syscall_stubs(unit)
        assert report.stubs_removed == ["sys_exit"]
        assert "sys_exit" not in unit.binary.symbols

    def test_two_calls_two_sites(self):
        source = """
.section .text
.global _start
_start:
    call sys_getpid
    call sys_getpid
    halt
sys_getpid:
    li r0, 20
    sys
    ret
"""
        unit = disassemble(assemble(source))
        report = inline_syscall_stubs(unit)
        assert report.sites_inlined == 2
        ops = [i.instruction.op for i in unit.insns]
        assert ops.count(Op.SYS) == 2

    def test_non_stub_function_untouched(self):
        source = """
.section .text
.global _start
_start:
    call not_a_stub
    halt
not_a_stub:
    cmpi r1, 0
    beq skip
    sys
skip:
    ret
"""
        unit = disassemble(assemble(source))
        report = inline_syscall_stubs(unit)
        assert report.sites_inlined == 0
        ops = [i.instruction.op for i in unit.insns]
        assert Op.CALL in ops

    def test_semantics_preserved(self):
        unit = disassemble(assemble(STUBS))
        inline_syscall_stubs(unit)
        result = Kernel().run(reassemble(unit))
        assert result.exit_status == 11

    def test_indirect_calls_protect_stubs(self):
        source = """
.section .text
.global _start
_start:
    li r9, sys_exit
    call sys_exit
    callr r9
sys_exit:
    li r0, 1
    sys
    ret
"""
        unit = disassemble(assemble(source))
        report = inline_syscall_stubs(unit)
        assert report.stubs_removed == []
        assert "sys_exit" in unit.binary.symbols


# The dead-stub removal as it was written before it counted references
# once: it rescans the whole unit and rebuilds the label index once per
# stub.  The counting version must take the same decisions.
def _reference_referenced_symbols(unit: IrUnit) -> set[str]:
    refs = {
        insn.instruction.imm.symbol
        for insn in unit.insns
        if isinstance(insn.instruction.imm, SymbolRef)
    }
    refs.update(
        reloc.symbol
        for reloc in unit.binary.relocations
        if reloc.section != ".text"
    )
    refs.add(unit.binary.entry)
    return refs


def _reference_remove_dead_stubs(unit: IrUnit, stub_labels: set[str]) -> list[str]:
    removed: list[str] = []
    for label in sorted(stub_labels):
        if label in _reference_referenced_symbols(unit):
            continue
        try:
            start = unit.find_label(label)
        except KeyError:
            continue
        end = start
        while end < len(unit.insns):
            op = unit.insns[end].instruction.op
            end += 1
            if op == Op.RET:
                break
        if any(position > start and unit.insns[position].labels
               for position in range(start, end)):
            continue
        del unit.insns[start:end]
        if label in unit.binary.symbols:
            del unit.binary.symbols[label]
        removed.append(label)
    return removed


def _state(unit: IrUnit):
    """What inlining leaves behind: the IR text and the symbol table."""
    return "\n".join(str(insn) for insn in unit.insns), dict(unit.binary.symbols)


def _holder_and_held(holder: str, held: str, caller: str) -> str:
    """Stub ``holder`` loads the address of stub ``held``."""
    return f"""
.section .text
.global _start
_start:
{caller}
    halt
{holder}:
    li r9, {held}
    li r0, 20
    sys
    ret
{held}:
    li r0, 24
    sys
    ret
"""


DATA_WORD = """
.section .text
.global _start
_start:
    call sys_getpid
    call sys_exit
sys_getpid:
    li r0, 20
    sys
    ret
sys_exit:
    li r0, 1
    sys
    ret
.section .data
handler:
    .word sys_getpid
"""

CALLR = """
.section .text
.global _start
_start:
    li r9, sys_getpid
    call sys_getpid
    call sys_exit
    callr r9
sys_getpid:
    li r0, 20
    sys
    ret
sys_exit:
    li r0, 1
    sys
    ret
"""

INLINE_INPUTS = {
    "held-sorts-last": lambda: assemble(_holder_and_held(
        "a_stub", "b_stub", "    call a_stub\n    call b_stub")),
    "held-sorts-first": lambda: assemble(_holder_and_held(
        "b_stub", "a_stub", "    call b_stub\n    call a_stub")),
    "data-word": lambda: assemble(DATA_WORD),
    "callr": lambda: assemble(CALLR),
    **{
        f"profile-{name}": (lambda name=name: build_profile_program(name, "linux"))
        for name in PROFILE_PROGRAMS
    },
    "netserver": build_netserver,
}


class TestDeadStubRemoval:
    @pytest.mark.parametrize("name", sorted(INLINE_INPUTS))
    def test_inlining_matches_reference(self, name, monkeypatch):
        # Inlining edits the lifted binary's symbol table: lift a fresh
        # build for each side.
        unit = disassemble(INLINE_INPUTS[name]())
        run_baseline_passes(unit)
        report = inline_syscall_stubs(unit)

        expected_unit = disassemble(INLINE_INPUTS[name]())
        run_baseline_passes(expected_unit)
        monkeypatch.setattr(
            inline, "_remove_dead_stubs", _reference_remove_dead_stubs
        )
        expected_report = inline_syscall_stubs(expected_unit)

        assert report == expected_report
        assert _state(unit) == _state(expected_unit)
        if name == "callr":
            assert report.stubs_removed == []
        if name == "data-word":
            assert report.stubs_removed == ["sys_exit"]

    @pytest.mark.parametrize(
        "holder, held, removed",
        [
            # The holder goes first, so the held stub's one reference
            # goes with it.
            ("a_stub", "b_stub", ["a_stub", "b_stub"]),
            # The held stub is decided while the holder still stands.
            ("b_stub", "a_stub", ["b_stub"]),
        ],
    )
    def test_reference_inside_dead_stub(self, holder, held, removed):
        # No call reaches either stub, so no inlined copy of the
        # holder's load keeps the held stub alive.
        source = _holder_and_held(holder, held, "    nop")
        unit = disassemble(assemble(source))
        expected_unit = disassemble(assemble(source))
        assert inline._remove_dead_stubs(unit, {holder, held}) == removed
        assert _reference_remove_dead_stubs(expected_unit, {holder, held}) == removed
        assert _state(unit) == _state(expected_unit)

    @staticmethod
    def _label_index_calls(stubs: int, monkeypatch) -> int:
        lines = [".section .text", ".global _start", "_start:"]
        lines += [f"    call stub{n}" for n in range(stubs)]
        lines.append("    halt")
        for n in range(stubs):
            lines += [f"stub{n}:", f"    li r0, {20 + n % 4}", "    sys", "    ret"]
        unit = disassemble(assemble("\n".join(lines)))
        calls = 0
        label_index = IrUnit.label_index

        def counted(self):
            nonlocal calls
            calls += 1
            return label_index(self)

        monkeypatch.setattr(IrUnit, "label_index", counted)
        report = inline_syscall_stubs(unit)
        monkeypatch.undo()
        assert report.sites_inlined == stubs
        assert len(report.stubs_removed) == stubs
        return calls

    def test_label_index_builds_independent_of_stub_count(self, monkeypatch):
        assert self._label_index_calls(8, monkeypatch) == self._label_index_calls(
            64, monkeypatch
        )


class TestPasses:
    def test_nop_removal(self):
        unit = disassemble(
            assemble(".section .text\n_start:\n nop\n nop\n li r1, 3\n halt")
        )
        assert remove_nops(unit) == 2
        assert unit.insns[0].labels == ["_start"]
        assert Kernel().run(reassemble(unit)).exit_status == 3

    def test_dead_li_removed(self):
        unit = disassemble(
            assemble(".section .text\n_start:\n li r1, 9\n li r1, 5\n halt")
        )
        assert remove_dead_li(unit) == 1
        assert Kernel().run(reassemble(unit)).exit_status == 5

    def test_live_li_kept(self):
        unit = disassemble(
            assemble(
                ".section .text\n_start:\n li r1, 9\n mov r2, r1\n li r1, 5\n halt"
            )
        )
        assert remove_dead_li(unit) == 0

    def test_li_live_across_branch_kept(self):
        unit = disassemble(
            assemble("""
.section .text
_start:
    li r1, 9
    cmpi r9, 0
    beq skip
    li r1, 5
skip:
    halt
""")
        )
        assert remove_dead_li(unit) == 0
        # r9 starts 0, so the branch is taken and r1 stays 9.
        assert Kernel().run(reassemble(unit)).exit_status == 9

    def test_li_read_by_trap_kept(self):
        unit = disassemble(
            assemble(".section .text\n_start:\n li r0, 1\n li r1, 7\n sys\n li r1, 9\n halt")
        )
        assert remove_dead_li(unit) == 0

    def test_baseline_pass_bundle(self):
        unit = disassemble(
            assemble(".section .text\n_start:\n nop\n li r1, 1\n li r1, 2\n halt")
        )
        stats = run_baseline_passes(unit)
        assert stats == {"nops_removed": 1, "dead_li_removed": 1}
