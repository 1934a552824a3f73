"""Disassembly printer: round trips and listings."""

from repro.asm import assemble
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.plto import disassemble
from repro.plto.printer import render_disassembly, render_policy, render_unit
from repro.workloads.runtime import runtime_source

SOURCE = """
.section .text
.global _start
_start:
    li r1, msg
    li r3, 3
    li r2, msg
    li r1, 1
    call sys_write
    li r1, 0
    call sys_exit
.section .rodata
msg:
    .asciz "hi\\n"
.section .data
ptr:
    .word _start
.section .bss
buf:
    .space 32
""" + runtime_source("linux", ("write", "exit"))


class TestRenderUnit:
    def test_round_trip_through_assembler(self):
        binary = assemble(SOURCE, metadata={"program": "p"})
        text = render_unit(disassemble(binary))
        rebuilt = assemble(text, metadata={"program": "p"})
        result = Kernel().run(rebuilt)
        assert result.stdout == b"hi\n"
        assert result.exit_status == 0

    def test_round_trip_preserves_data_relocations(self):
        binary = assemble(SOURCE)
        text = render_unit(disassemble(binary))
        rebuilt = assemble(text)
        relocs = rebuilt.relocations_for(".data")
        assert relocs[0].symbol == "_start"

    def test_bss_reservation_preserved(self):
        binary = assemble(SOURCE)
        rebuilt = assemble(render_unit(disassemble(binary)))
        assert rebuilt.sections[".bss"].reserve == 32
        assert rebuilt.symbols["buf"].section == ".bss"

    def test_globals_emitted(self):
        binary = assemble(SOURCE)
        assert ".global _start" in render_unit(disassemble(binary))


class TestRenderDisassembly:
    def test_listing_contains_addresses_and_labels(self):
        binary = assemble(SOURCE, metadata={"program": "demo"})
        listing = render_disassembly(binary)
        assert "<_start>:" in listing
        assert "0x08048000" in listing
        assert "li r1, msg" in listing
        assert "section .rodata" in listing

    def test_installed_binary_renders(self):
        key = Key.from_passphrase("printer")
        installed = install(assemble(SOURCE, metadata={"program": "demo"}), key)
        listing = render_disassembly(installed.binary)
        assert "asys" in listing
        assert "section .authdata" in listing


class TestRenderPolicy:
    def test_policy_dump(self):
        key = Key.from_passphrase("printer")
        installed = install(assemble(SOURCE, metadata={"program": "demo"}), key)
        dump = render_policy(installed.policy)
        assert "program: demo" in dump
        assert "Permit write from location" in dump
        assert "Possible predecessors" in dump
