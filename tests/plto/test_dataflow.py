"""Constant propagation and argument classification (§4.1)."""

import pytest

from repro.asm import assemble
from repro.isa import SymbolRef
from repro.kernel.syscalls import SYSCALL_NUMBERS
from repro.plto import build_cfg, build_call_graph, classify_syscall_args, disassemble
from repro.plto.dataflow import ArgValue


def _sites(source: str):
    graph = build_call_graph(build_cfg(disassemble(assemble(source))))
    return list(classify_syscall_args(graph).values())


class TestLattice:
    def test_join_identities(self):
        const = ArgValue.const(5)
        assert ArgValue.bottom().join(const) == const
        assert const.join(ArgValue.bottom()) == const
        assert const.join(ArgValue.top()) == ArgValue.top()

    def test_join_small_sets(self):
        a, b = ArgValue.const(1), ArgValue.const(2)
        joined = a.join(b)
        assert joined.is_multi
        assert joined.values == frozenset({1, 2})

    def test_join_overflows_to_top(self):
        acc = ArgValue.const(0)
        for value in range(1, 6):
            acc = acc.join(ArgValue.const(value))
        assert acc == ArgValue.top()

    def test_fd_joins_union_sites(self):
        joined = ArgValue.fd_from(1).join(ArgValue.fd_from(2))
        assert joined.is_fd
        assert joined.fd_sites == frozenset({1, 2})

    def test_fd_meets_const_is_top(self):
        assert ArgValue.fd_from(1).join(ArgValue.const(1)) == ArgValue.top()


class TestClassification:
    def test_immediate_argument(self):
        (site,) = _sites("""
.section .text
_start:
    li r0, 20
    li r1, 42
    sys
    halt
""")
        assert site.number == 20
        assert site.args[0].single == 42

    def test_string_address_argument(self):
        (site,) = _sites("""
.section .text
_start:
    li r0, 5
    li r1, path
    sys
    halt
.section .rodata
path:
    .asciz "/etc/motd"
""")
        assert site.args[0].single == SymbolRef("path")

    def test_unknown_from_load(self):
        (site,) = _sites("""
.section .text
_start:
    li r0, 4
    li r9, cell
    ld r1, [r9+0]
    sys
    halt
.section .data
cell:
    .word 7
""")
        assert site.args[0] == ArgValue.top()

    def test_constant_folding_through_alu(self):
        (site,) = _sites("""
.section .text
_start:
    li r0, 4
    li r1, 6
    muli r1, r1, 7
    sys
    halt
""")
        assert site.args[0].single == 42

    def test_symbol_plus_offset_folds(self):
        (site,) = _sites("""
.section .text
_start:
    li r0, 4
    li r1, table
    addi r1, r1, 8
    sys
    halt
.section .data
table:
    .space 16
""")
        assert site.args[0].single == SymbolRef("table", 8)

    def test_multi_value_from_branch(self):
        (site,) = [
            s for s in _sites("""
.section .text
_start:
    li r0, 4
    cmpi r9, 0
    beq other
    li r1, 3
    jmp call_it
other:
    li r1, 5
call_it:
    sys
    halt
""")
        ]
        assert site.args[0].is_multi
        assert site.args[0].values == frozenset({3, 5})

    def test_fd_provenance_through_mov(self):
        sites = _sites("""
.section .text
_start:
    li r0, 5
    li r1, path
    sys              ; open -> fd in r0
    mov r4, r0
    li r0, 3
    mov r1, r4
    sys              ; read(fd, ...)
    halt
.section .rodata
path:
    .asciz "/x"
""")
        read_site = [s for s in sites if s.number == 3][0]
        open_site = [s for s in sites if s.number == 5][0]
        assert read_site.args[0].is_fd
        assert read_site.args[0].fd_sites == frozenset({open_site.block_index + 1})

    @pytest.mark.parametrize(
        "producer, is_fd",
        [("open", True), ("dup", True), ("dup2", True), ("socket", True),
         ("accept", True), ("pipe", False)],
    )
    def test_fd_producers_follow_the_syscall_table(self, producer, is_fd):
        """r0 after an fd producer is an fd from its site.  pipe's r0 is
        0 (its two fds come back through memory), so it is unknown."""
        sites = _sites(f"""
.section .text
_start:
    li r0, {SYSCALL_NUMBERS[producer]}
    sys
    mov r1, r0
    li r0, {SYSCALL_NUMBERS["read"]}
    sys
    halt
""")
        read_site = [s for s in sites if s.number == SYSCALL_NUMBERS["read"]][0]
        producer_site = [s for s in sites if s.number == SYSCALL_NUMBERS[producer]][0]
        if is_fd:
            assert read_site.args[0] == ArgValue.fd_from(producer_site.block_index + 1)
        else:
            assert read_site.args[0] == ArgValue.top()

    def test_call_clobbers_everything(self):
        sites = _sites("""
.section .text
.global _start
_start:
    li r1, 7
    call helper
    li r0, 4
    sys              ; r1 no longer known
    halt
helper:
    ret
""")
        (site,) = [s for s in sites if s.number == 4]
        assert site.args[0] == ArgValue.top()

    def test_trap_clobbers_only_r0(self):
        sites = _sites("""
.section .text
_start:
    li r0, 20
    li r1, 9
    sys
    li r0, 4
    sys              ; r1 survives the previous trap
    halt
""")
        write_site = [s for s in sites if s.number == 4][0]
        assert write_site.args[0].single == 9

    def test_unknown_syscall_number(self):
        (site,) = _sites("""
.section .text
_start:
    li r9, cell
    ld r0, [r9+0]
    sys
    halt
.section .data
cell:
    .word 20
""")
        assert site.number is None

    def test_non_fd_result_is_top(self):
        sites = _sites("""
.section .text
_start:
    li r0, 20
    sys              ; getpid result is not an fd
    li r1, 0
    mov r2, r0
    li r0, 4
    sys
    halt
""")
        write_site = [s for s in sites if s.number == 4][0]
        assert write_site.args[1] == ArgValue.top()
