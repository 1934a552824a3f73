"""The per-value parameter table behind the encoder and the record
reader: equivalent to the per-parameter bit tests they replaced, and
bounded however many descriptor values a guest presents.

``_reference_encode`` and ``_reference_read`` are the encoder and the
record reader as they were before the table, kept verbatim here as the
oracle: one method call per parameter bit, one read per extension word.
"""

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.memory import PROT_READ, Memory, MemoryFault
from repro.policy import ParamEncoding, PolicyDescriptor, encode_policy
from repro.policy.descriptor import MAX_PARAMS, PARAM_TABLE_ENTRIES, param_table
from repro.policy.encode import EncodeError, _layout
from repro.policy.record import CORE_SIZE, RECORD_HEAD, AuthRecord, read_auth_record

U32 = st.integers(0, 0xFFFFFFFF)
MACS = st.binary(min_size=16, max_size=16)


def _reference_encode(
    descriptor, syscall_number, call_site, block_id, params,
    predset=None, lastblock_address=0, capability=None,
):
    by_index = {p.index: p for p in params}
    if len(by_index) != len(params):
        raise EncodeError("duplicate parameter encodings")

    out = bytearray()
    out += struct.pack("<H", syscall_number & 0xFFFF)
    out += struct.pack("<I", int(descriptor))
    if descriptor.call_site_constrained:
        out += struct.pack("<I", call_site & 0xFFFFFFFF)
    out += struct.pack("<I", block_id & 0xFFFFFFFF)

    for index in range(MAX_PARAMS):
        if not descriptor.param_constrained(index) and not descriptor.param_is_pattern(index):
            if index in by_index:
                raise EncodeError(f"parameter {index} encoded but not constrained")
            continue
        if index not in by_index:
            raise EncodeError(f"constrained parameter {index} missing an encoding")
        entry = by_index[index]
        if descriptor.param_is_string(index):
            if not isinstance(entry.value, tuple):
                raise EncodeError(f"parameter {index} must be an AS triple")
            address, length, mac = entry.value
            out += struct.pack("<II", address, length)
            out += mac
        else:
            if not isinstance(entry.value, int):
                raise EncodeError(f"parameter {index} must be an immediate")
            out += struct.pack("<I", entry.value)

    if descriptor.control_flow_constrained:
        if predset is None:
            raise EncodeError("control flow constrained but no predecessor set")
        address, length, mac = predset
        out += struct.pack("<II", address & 0xFFFFFFFF, length & 0xFFFFFFFF)
        out += mac
        out += struct.pack("<I", lastblock_address & 0xFFFFFFFF)
    elif predset is not None:
        raise EncodeError("predecessor set supplied without control flow bit")

    if descriptor.capability_tracked:
        if capability is None:
            raise EncodeError("capability bit set but no capability spec")
        fd_mask, (address, length, mac) = capability
        out += struct.pack(
            "<III", fd_mask & 0xFFFFFFFF, address & 0xFFFFFFFF, length & 0xFFFFFFFF
        )
        out += mac
    elif capability is not None:
        raise EncodeError("capability spec supplied without capability bit")

    return bytes(out)


def _reference_read(memory, address):
    head = memory.read(address, CORE_SIZE, force=True)
    bits, block_id, predset_ptr, lastblock_ptr = RECORD_HEAD.unpack_from(head)
    call_mac = head[16:CORE_SIZE]
    descriptor = PolicyDescriptor(bits)
    cursor = address + CORE_SIZE
    pattern_ptrs = []
    for _ in [i for i in range(MAX_PARAMS) if descriptor.param_is_pattern(i)]:
        pattern_ptrs.append(memory.read_u32(cursor, force=True))
        cursor += 4
    fd_mask = 0
    fd_allowed_ptr = 0
    if descriptor.capability_tracked:
        fd_mask = memory.read_u32(cursor, force=True)
        fd_allowed_ptr = memory.read_u32(cursor + 4, force=True)
    return AuthRecord(
        descriptor=descriptor,
        block_id=block_id,
        predset_ptr=predset_ptr,
        lastblock_ptr=lastblock_ptr,
        call_mac=call_mac,
        pattern_ptrs=tuple(pattern_ptrs),
        fd_mask=fd_mask,
        fd_allowed_ptr=fd_allowed_ptr,
    )


def _outcome(function, *args, **kwargs):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", function(*args, **kwargs)
    except (EncodeError, MemoryFault) as err:
        return type(err), str(err)


#: One parameter slot: absent, an immediate, an AS triple, or a value of
#: the wrong kind for either.
_SLOT = st.one_of(
    st.none(),
    st.builds(ParamEncoding.immediate, st.just(0), U32),
    st.builds(ParamEncoding.auth_string, st.just(0), U32, U32, MACS),
    st.builds(ParamEncoding, st.just(0), st.sampled_from(["text", 1.5, None, [1, 2, 3]])),
)


@st.composite
def _params(draw):
    """Encodings for indexes 0..7 (6 and 7 lie outside the descriptor),
    sometimes with a duplicate."""
    params = []
    for index in range(MAX_PARAMS + 2):
        slot = draw(_SLOT)
        if slot is not None:
            params.append(ParamEncoding(index, slot.value))
    if params and draw(st.integers(0, 9)) == 0:
        params.append(draw(st.sampled_from(params)))
    return params


@st.composite
def _descriptor_bits(draw):
    """Random u32 values, and values built from the table's own bits so
    the matching-encodings case comes up often."""
    if draw(st.booleans()):
        return draw(U32)
    bits = draw(st.integers(0, 0x3F)) << 1 | draw(st.integers(0, 0x3F)) << 8
    bits |= draw(st.integers(0, 0x3F)) << 20
    return bits | draw(st.sampled_from([0, 1, 1 << 16, 1 << 17, 1 | 1 << 16 | 1 << 17]))


class TestEncodeThroughTheTable:
    @settings(max_examples=400, deadline=None)
    @given(
        bits=_descriptor_bits(),
        number=st.integers(0, 0x1FFFF),
        call_site=st.integers(0, 1 << 40),
        block_id=st.integers(0, 1 << 40),
        params=_params(),
        predset=st.none() | st.tuples(U32, U32, MACS),
        lastblock=st.integers(0, 1 << 40),
        capability=st.none() | st.tuples(U32, st.tuples(U32, U32, MACS)),
    )
    def test_same_bytes_or_same_error(
        self, bits, number, call_site, block_id, params, predset, lastblock, capability
    ):
        descriptor = PolicyDescriptor(bits)
        args = (descriptor, number, call_site, block_id, params)
        kwargs = dict(predset=predset, lastblock_address=lastblock, capability=capability)
        assert _outcome(encode_policy, *args, **kwargs) == _outcome(
            _reference_encode, *args, **kwargs
        )

    @settings(max_examples=200, deadline=None)
    @given(bits=_descriptor_bits(), values=st.lists(U32, min_size=8, max_size=8), macs=MACS)
    def test_matching_encodings_always_encode(self, bits, values, macs):
        # Every parameter the table names, in the kind it names: the
        # encoder accepts, with the reference's bytes.
        descriptor = PolicyDescriptor(bits)
        params = [
            ParamEncoding.auth_string(index, values[index], values[index + 1], macs)
            if is_string
            else ParamEncoding.immediate(index, values[index])
            for index, is_string, _ in descriptor.params
        ]
        kwargs = dict(
            predset=(1, 2, macs) if descriptor.control_flow_constrained else None,
            capability=(3, (4, 5, macs)) if descriptor.capability_tracked else None,
        )
        expected = _reference_encode(descriptor, 7, 0x1000, 9, params, **kwargs)
        assert encode_policy(descriptor, 7, 0x1000, 9, params, **kwargs) == expected


def _record_memory(head: bytes, tail: bytes, offset: int, size: int, adjacent: bool):
    """A readable region of ``size`` bytes at 0x4000 holding ``head +
    tail`` at ``offset`` (cut off at the region's end), optionally with
    a second region right after it holding the rest."""
    memory = Memory()
    blob = head + tail
    body = bytearray(size)
    fitted = blob[: max(0, size - offset)]
    body[offset : offset + len(fitted)] = fitted
    memory.map_region(0x4000, size, PROT_READ, data=bytes(body))
    if adjacent:
        rest = blob[len(fitted):] + bytes(64)
        memory.map_region(0x4000 + size, len(rest), PROT_READ, data=rest)
    return memory


class TestRecordThroughTheTable:
    @settings(max_examples=400, deadline=None)
    @given(
        bits=_descriptor_bits(),
        fields=st.lists(U32, min_size=3, max_size=3),
        mac=MACS,
        tail=st.binary(min_size=0, max_size=40),
        slack=st.integers(-44, 48),
        adjacent=st.booleans(),
    )
    def test_same_record_or_same_fault(self, bits, fields, mac, tail, slack, adjacent):
        head = RECORD_HEAD.pack(bits, *fields) + mac
        size = CORE_SIZE + 64
        # ``slack`` places the record so that its extension words end
        # before, at, or past the region's end.
        offset = max(0, min(size - 4, size - CORE_SIZE - slack))
        memory = _record_memory(head, tail, offset, size, adjacent)
        address = 0x4000 + offset
        assert _outcome(read_auth_record, memory, address) == _outcome(
            _reference_read, memory, address
        )

    def test_extension_words_crossing_the_region_end(self):
        # Two pattern pointers and the capability words: 16 bytes of
        # extension, of which the region holds 6 or 8.  A word that
        # straddles the end faults; a word that starts exactly at the
        # end reads on into an adjacent region.
        bits = PolicyDescriptor().with_pattern_param(0).with_pattern_param(3).with_capability()
        head = RECORD_HEAD.pack(int(bits), 1, 2, 3) + bytes(range(16))
        tail = struct.pack("<4I", 0xA000, 0xB000, 0b1001, 0xC000)
        for held, adjacent in ((6, False), (6, True), (8, False), (8, True)):
            memory = _record_memory(head, tail, 0, CORE_SIZE + held, adjacent)
            expected = _outcome(_reference_read, memory, 0x4000)
            assert _outcome(read_auth_record, memory, 0x4000) == expected
            if held == 8 and adjacent:
                record = expected[1]
                assert record.pattern_ptrs == (0xA000, 0xB000)
                assert (record.fd_mask, record.fd_allowed_ptr) == (0b1001, 0xC000)
            else:
                assert expected == (MemoryFault, f"memory fault: unmapped at {0x4000 + CORE_SIZE + held:#010x}")


def test_tables_stay_within_their_bound():
    """The descriptor comes from guest memory before any MAC check, so
    a hostile guest picks its values: the caches must not grow with
    them."""
    rng = random.Random(29)
    values = set()
    while len(values) < 10_000:
        values.add(rng.getrandbits(32))
    memory = Memory()
    memory.map_region(0x4000, 0x1000, PROT_READ)
    region = memory.region_at(0x4000)
    for bits in values:
        region.data[:4] = struct.pack("<I", bits)
        record = read_auth_record(memory, 0x4000)
        descriptor = record.descriptor
        params = [
            ParamEncoding.auth_string(index, 0, 0, bytes(16))
            if is_string
            else ParamEncoding.immediate(index, 0)
            for index, is_string, _ in descriptor.params
        ]
        encode_policy(
            descriptor, 0, 0, 0, params,
            predset=(0, 0, bytes(16)) if descriptor.control_flow_constrained else None,
            capability=(0, (0, 0, bytes(16))) if descriptor.capability_tracked else None,
        )
    for cache in (param_table, _layout):
        info = cache.cache_info()
        assert info.maxsize == PARAM_TABLE_ENTRIES
        assert info.currsize <= PARAM_TABLE_ENTRIES
    # The values really were distinct tables, so the bound was reached.
    assert param_table.cache_info().currsize == PARAM_TABLE_ENTRIES
