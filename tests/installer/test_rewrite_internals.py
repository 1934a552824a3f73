"""Rewrite-phase internals: sections, sharing, record wiring."""

import struct

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import AesCmac, Key
from repro.installer import install
from repro.policy.authstrings import AS_HEADER_SIZE
from repro.policy.record import read_auth_record
from repro.cpu.memory import Memory, PROT_READ
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("rewrite-tests")

#: The same string constant is an argument at two different call sites.
SHARED_STRING = """
.section .text
.global _start
_start:
    li r1, path
    li r2, 0
    call sys_open
    li r1, path
    li r2, buf
    call sys_stat
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/etc/motd"
.section .bss
buf:
    .space 32
""" + runtime_source("linux", ("open", "stat", "exit"))


@pytest.fixture(scope="module")
def installed():
    return install(assemble(SHARED_STRING, metadata={"program": "rw"}), KEY)


class TestStringSharing:
    def test_shared_constant_becomes_one_as(self, installed):
        authstr = installed.binary.section(".authstr")
        assert bytes(authstr.data).count(b"/etc/motd") == 1

    def test_symbol_points_into_authstr_content(self, installed):
        symbol = installed.binary.symbols["path"]
        assert symbol.section == ".authstr"
        section = installed.binary.section(".authstr")
        content_start = symbol.offset
        (length,) = struct.unpack_from(
            "<I", section.data, content_start - AS_HEADER_SIZE
        )
        assert length == len(b"/etc/motd")
        assert bytes(
            section.data[content_start : content_start + length]
        ) == b"/etc/motd"

    def test_both_sites_encode_same_as_address(self, installed):
        image = link(installed.binary)
        path = image.address_of("path")
        memory = Memory()
        for segment in image.segments:
            if segment.size:
                memory.map_region(
                    segment.vaddr, max(segment.size, 4), PROT_READ,
                    data=segment.data,
                )
        for site in ("open", "stat"):
            record_symbol = installed.site_records[
                installed.site_for_syscall(site)
            ]
            record = read_auth_record(memory, image.address_of(record_symbol))
            assert record.descriptor.param_is_string(0)
        # Single AS means the policies must agree on the content value.
        open_policy = installed.policy.sites[installed.site_for_syscall("open")]
        stat_policy = installed.policy.sites[installed.site_for_syscall("stat")]
        assert open_policy.params[0].value == stat_policy.params[0].value


class TestRecordWiring:
    def test_every_site_has_a_record_symbol(self, installed):
        assert set(installed.site_records) == set(installed.policy.sites)

    def test_records_reference_shared_polstate(self, installed):
        image = link(installed.binary)
        memory = Memory()
        for segment in image.segments:
            if segment.size:
                memory.map_region(
                    segment.vaddr, max(segment.size, 4), PROT_READ,
                    data=segment.data,
                )
        polstate = image.address_of("__asc_polstate")
        for record_symbol in installed.site_records.values():
            record = read_auth_record(memory, image.address_of(record_symbol))
            assert record.lastblock_ptr == polstate

    def test_predsets_are_distinct_per_site(self, installed):
        image = link(installed.binary)
        memory = Memory()
        for segment in image.segments:
            if segment.size:
                memory.map_region(
                    segment.vaddr, max(segment.size, 4), PROT_READ,
                    data=segment.data,
                )
        pointers = set()
        for record_symbol in installed.site_records.values():
            record = read_auth_record(memory, image.address_of(record_symbol))
            pointers.add(record.predset_ptr)
        assert len(pointers) == len(installed.site_records)

    def test_block_ids_match_policies(self, installed):
        image = link(installed.binary)
        memory = Memory()
        for segment in image.segments:
            if segment.size:
                memory.map_region(
                    segment.vaddr, max(segment.size, 4), PROT_READ,
                    data=segment.data,
                )
        for call_site, record_symbol in installed.site_records.items():
            record = read_auth_record(memory, image.address_of(record_symbol))
            assert record.block_id == installed.policy.sites[call_site].block_id

    def test_polstate_initial_contents(self, installed):
        from repro.policy.record import state_mac_payload

        section = installed.binary.section(".polstate")
        (last_block,) = struct.unpack_from("<I", section.data, 0)
        assert last_block == 0  # program id 0 << 20
        mac = AesCmac(KEY.material)
        assert mac.verify(state_mac_payload(0, 0), bytes(section.data[4:20]))
