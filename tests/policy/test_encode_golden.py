"""Golden-byte test of the encoded policy (the §3.3 worked example).

The paper walks through encoding this policy::

    Permit fcntl from location 0x806c57b in basic block 1234
        Parameter 0 equals ANY
        Parameter 1 equals value 2
        Possible predecessors 1235, 2010, 3012
    Basic block number of previous call stored at 0x0810c4ab

Our byte layout differs from the paper's unpublished one (ours is
documented in repro.policy.encode), but the *same logical policy* must
encode deterministically, and this test pins every field position so an
accidental layout change — which would silently break MAC compatibility
between installer and kernel versions — fails loudly.
"""

import struct

from repro.crypto import AesCmac
from repro.kernel.syscalls import SYSCALL_NUMBERS
from repro.policy import ParamEncoding, PolicyDescriptor, encode_policy
from repro.policy.encode import pack_predecessor_set

MAC = AesCmac(bytes(16))


def _paper_example():
    descriptor = (
        PolicyDescriptor()
        .with_call_site()
        .with_param(1)           # parameter 1 equals 2; parameter 0 is ANY
        .with_control_flow()
    )
    predset_content = pack_predecessor_set(frozenset({1235, 2010, 3012}))
    predset_mac = MAC.tag(predset_content)
    encoded = encode_policy(
        descriptor,
        SYSCALL_NUMBERS["fcntl"],
        0x806C57B,
        1234,
        [ParamEncoding.immediate(1, 2)],
        predset=(0x81ADCDE, len(predset_content), predset_mac),
        lastblock_address=0x810C4AB,
    )
    return descriptor, predset_content, predset_mac, encoded


class TestWorkedExample:
    def test_total_length(self):
        _, predset_content, _, encoded = _paper_example()
        # u16 num + u32 des + u32 site + u32 block + u32 param
        # + (u32 addr + u32 len + 16B mac) + u32 lastBlock
        assert len(encoded) == 2 + 4 + 4 + 4 + 4 + (4 + 4 + 16) + 4

    def test_field_positions(self):
        descriptor, predset_content, predset_mac, encoded = _paper_example()
        (number,) = struct.unpack_from("<H", encoded, 0)
        assert number == SYSCALL_NUMBERS["fcntl"]
        (bits,) = struct.unpack_from("<I", encoded, 2)
        assert bits == int(descriptor)
        (site,) = struct.unpack_from("<I", encoded, 6)
        assert site == 0x806C57B
        (block,) = struct.unpack_from("<I", encoded, 10)
        assert block == 1234
        (param1,) = struct.unpack_from("<I", encoded, 14)
        assert param1 == 2
        address, length = struct.unpack_from("<II", encoded, 18)
        assert address == 0x81ADCDE
        assert length == len(predset_content) == 12  # 3 blocks * 4 bytes
        assert encoded[26:42] == predset_mac
        (lastblock,) = struct.unpack_from("<I", encoded, 42)
        assert lastblock == 0x810C4AB

    def test_parameter_zero_unconstrained(self):
        descriptor, *_ = _paper_example()
        assert not descriptor.param_constrained(0)
        assert descriptor.param_constrained(1)

    def test_deterministic(self):
        assert _paper_example()[3] == _paper_example()[3]

    def test_predset_content_is_sorted_u32s(self):
        _, predset_content, _, _ = _paper_example()
        values = struct.unpack("<3I", predset_content)
        assert values == (1235, 2010, 3012)
