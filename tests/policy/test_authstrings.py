"""Authenticated strings: layout, verification, bounds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu.memory import Memory, MemoryFault, PROT_READ
from repro.crypto import AesCmac
from repro.policy import (
    AS_HEADER_SIZE,
    build_authenticated_string,
    read_authenticated_string,
)

MAC = AesCmac(bytes(16))


def _memory_with_as(content: bytes, at: int = 0x1000):
    blob = build_authenticated_string(content, MAC)
    memory = Memory()
    memory.map_region(at, max(len(blob), 16), PROT_READ, data=blob)
    return memory, at + AS_HEADER_SIZE  # pointer to the content


class TestLayout:
    def test_header_is_20_bytes(self):
        assert AS_HEADER_SIZE == 20

    def test_blob_shape(self):
        blob = build_authenticated_string(b"/dev/console", MAC)
        assert len(blob) == 20 + 12 + 1  # header + content + NUL
        assert blob[-1] == 0
        assert int.from_bytes(blob[:4], "little") == 12

    def test_pointer_still_works_as_c_string(self):
        memory, pointer = _memory_with_as(b"/etc/motd")
        assert memory.read_cstring(pointer) == b"/etc/motd"

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            build_authenticated_string(bytes(1 << 17), MAC)


class TestVerification:
    def test_valid(self):
        memory, pointer = _memory_with_as(b"/etc/motd")
        parsed = read_authenticated_string(memory, pointer)
        assert parsed.content == b"/etc/motd"
        assert parsed.verify(MAC)

    def test_modified_content_fails(self):
        memory, pointer = _memory_with_as(b"/bin/ls")
        memory.write(pointer + 5, b"h", force=True)  # /bin/ls -> /bin/hs
        assert not read_authenticated_string(memory, pointer).verify(MAC)

    def test_wrong_key_fails(self):
        memory, pointer = _memory_with_as(b"x")
        other = AesCmac(bytes(range(16)))
        assert not read_authenticated_string(memory, pointer).verify(other)

    def test_shrunk_length_fails(self):
        memory, pointer = _memory_with_as(b"/etc/motd")
        memory.write_u32(pointer - 20, 4, force=True)
        assert not read_authenticated_string(memory, pointer).verify(MAC)

    def test_huge_length_refused_before_read(self):
        memory, pointer = _memory_with_as(b"/etc/motd")
        memory.write_u32(pointer - 20, 1 << 24, force=True)
        with pytest.raises(MemoryFault):
            read_authenticated_string(memory, pointer)

    def test_unmapped_header_faults(self):
        memory = Memory()
        memory.map_region(0x1000, 16, PROT_READ)
        with pytest.raises(MemoryFault):
            read_authenticated_string(memory, 0x1004)

    @given(content=st.binary(max_size=128))
    def test_round_trip_property(self, content):
        memory, pointer = _memory_with_as(content)
        parsed = read_authenticated_string(memory, pointer)
        assert parsed.content == content
        assert parsed.verify(MAC)
