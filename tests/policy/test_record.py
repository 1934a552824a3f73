"""Auth record pack/unpack: the ASYS trap ABI."""

import struct

import pytest

from repro.cpu.memory import Memory, MemoryFault, PROT_READ
from repro.policy import PolicyDescriptor
from repro.policy.record import (
    CALL_MAC_OFFSET,
    CORE_SIZE,
    LASTBLOCK_PTR_OFFSET,
    PREDSET_PTR_OFFSET,
    AuthRecord,
    pack_policy_state,
    read_auth_record,
    read_policy_state,
    state_mac_payload,
)

MAC = bytes(range(16))


def _roundtrip(record: AuthRecord) -> AuthRecord:
    memory = Memory()
    blob = record.pack()
    memory.map_region(0x1000, max(len(blob), 16), PROT_READ, data=blob)
    return read_auth_record(memory, 0x1000)


class TestCoreRecord:
    def test_core_size(self):
        assert CORE_SIZE == 32

    def test_round_trip(self):
        descriptor = PolicyDescriptor().with_call_site().with_control_flow()
        record = AuthRecord(
            descriptor=descriptor, block_id=9, predset_ptr=0x2000,
            lastblock_ptr=0x3000, call_mac=MAC,
        )
        parsed = _roundtrip(record)
        assert int(parsed.descriptor) == int(descriptor)
        assert parsed.block_id == 9
        assert parsed.predset_ptr == 0x2000
        assert parsed.lastblock_ptr == 0x3000
        assert parsed.call_mac == MAC
        assert parsed.size == CORE_SIZE

    def test_pattern_pointers(self):
        descriptor = (
            PolicyDescriptor().with_call_site()
            .with_pattern_param(0).with_pattern_param(2)
        )
        record = AuthRecord(
            descriptor=descriptor, block_id=1, predset_ptr=0,
            lastblock_ptr=0, call_mac=MAC, pattern_ptrs=(0xA000, 0xB000),
        )
        parsed = _roundtrip(record)
        assert parsed.pattern_ptrs == (0xA000, 0xB000)
        assert parsed.size == CORE_SIZE + 8

    def test_capability_fields(self):
        descriptor = PolicyDescriptor().with_call_site().with_capability()
        record = AuthRecord(
            descriptor=descriptor, block_id=1, predset_ptr=0,
            lastblock_ptr=0, call_mac=MAC, fd_mask=0b101, fd_allowed_ptr=0xC000,
        )
        parsed = _roundtrip(record)
        assert parsed.fd_mask == 0b101
        assert parsed.fd_allowed_ptr == 0xC000
        assert parsed.size == CORE_SIZE + 8

    def test_field_offsets_locate_the_packed_fields(self):
        """The offsets the installer relocates and signs at."""
        descriptor = (
            PolicyDescriptor().with_call_site().with_control_flow()
            .with_pattern_param(1).with_pattern_param(3).with_capability()
        )
        record = AuthRecord(
            descriptor=descriptor, block_id=1, predset_ptr=0x2000,
            lastblock_ptr=0x3000, call_mac=MAC, pattern_ptrs=(0xA000, 0xB000),
            fd_mask=0b1, fd_allowed_ptr=0xC000,
        )
        blob = record.pack()

        def word(offset):
            return struct.unpack_from("<I", blob, offset)[0]

        assert word(PREDSET_PTR_OFFSET) == 0x2000
        assert word(LASTBLOCK_PTR_OFFSET) == 0x3000
        assert blob[CALL_MAC_OFFSET:CORE_SIZE] == MAC
        assert [word(record.pattern_ptr_offset(i)) for i in range(2)] == [0xA000, 0xB000]
        assert word(record.fd_allowed_ptr_offset) == 0xC000
        assert record.fd_allowed_ptr_offset + 4 == record.size == len(blob)

    def test_unmapped_record_faults(self):
        with pytest.raises(MemoryFault):
            read_auth_record(Memory(), 0x5000)


class TestPolicyState:
    def test_pack_read_round_trip(self):
        memory = Memory()
        blob = pack_policy_state(42, MAC)
        memory.map_region(0x1000, 32, PROT_READ, data=blob)
        last_block, mac = read_policy_state(memory, 0x1000)
        assert last_block == 42
        assert mac == MAC

    def test_state_payload_includes_counter(self):
        assert state_mac_payload(5, 1) != state_mac_payload(5, 2)
        assert state_mac_payload(5, 1) != state_mac_payload(6, 1)

    def test_state_payload_size(self):
        assert len(state_mac_payload(0, 0)) == 12
