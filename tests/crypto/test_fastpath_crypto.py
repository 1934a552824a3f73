"""Fast-path crypto: table-driven AES, the word-level CMAC core, its
single-block tag memo, and the incremental CMAC API.

The table-driven cipher, the memo and the prefix-state CMAC exist purely
for speed; these tests pin them bit-for-bit to the reference
implementations so the optimization can never drift from the spec.
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES, BLOCK_SIZE, BLOCK_WORDS, TableAES
from repro.crypto.cmac import MAC_SIZE, AesCmac, CmacState

RFC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
RFC_TAGS = {
    0: "bb1d6929e95937287fa37d129b756746",
    16: "070a16b46b4d4144f79bdd9dd04a287c",
    40: "dfa66747de9ae63030ca32611497c827",
    64: "51f0bebf7e3b9d92fc49741779363cfe",
}


class TestTableAes:
    def test_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert TableAES(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert TableAES(key).encrypt_block(plaintext) == expected

    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    )
    def test_matches_reference_aes(self, key, block):
        assert TableAES(key).encrypt_block(block) == AES(key).encrypt_block(block)

    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    )
    def test_encrypt_words_matches_reference_aes(self, key, block):
        words = BLOCK_WORDS.unpack(block)
        expected = BLOCK_WORDS.unpack(AES(key).encrypt_block(block))
        assert TableAES(key).encrypt_words(*words) == expected
        # The reference's adapter, which lets it stand in under CMAC.
        assert AES(key).encrypt_words(*words) == expected

    def test_encrypt_words_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = BLOCK_WORDS.unpack(bytes.fromhex("00112233445566778899aabbccddeeff"))
        expected = (0x69C4E0D8, 0x6A7B0430, 0xD8CDB780, 0x70B4C55A)
        assert TableAES(key).encrypt_words(*plaintext) == expected

    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    )
    def test_round_trip_through_reference_decrypt(self, key, block):
        cipher = TableAES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestCmacDefaultCipher:
    def test_rfc4493_vectors_with_table_cipher(self):
        # AesCmac defaults to TableAES; the RFC vectors must still hold.
        for length, expected in RFC_TAGS.items():
            assert AesCmac(RFC_KEY).tag(RFC_MSG[:length]) == bytes.fromhex(expected)

    def test_explicit_reference_cipher_agrees(self):
        table = AesCmac(RFC_KEY)
        reference = AesCmac(RFC_KEY, cipher=AES(RFC_KEY))
        assert table.tag(RFC_MSG) == reference.tag(RFC_MSG)

    @given(
        key=st.binary(min_size=16, max_size=16),
        message=st.binary(max_size=80),
        kind=st.sampled_from([bytes, bytearray, memoryview]),
    )
    def test_matches_reference_cipher_cold_and_memoized(self, key, message, kind):
        expected = AesCmac(key, cipher=AES(key)).tag(message)
        for mac in (AesCmac(key), AesCmac(key, cipher=AES(key))):
            # Cold, then (for single-block messages) a memo hit.
            assert mac.tag(kind(message)) == expected
            assert mac.tag(kind(message)) == expected
            assert mac.verify(kind(message), expected)

    @pytest.mark.parametrize("length", sorted(RFC_TAGS))
    def test_rfc4493_vectors_through_tag_verify_and_prefix(self, length):
        mac = AesCmac(RFC_KEY)
        message = RFC_MSG[:length]
        expected = bytes.fromhex(RFC_TAGS[length])
        for _ in range(2):  # the second round is served from the memo
            assert mac.tag(message) == expected
            assert mac.verify(message, expected)
            assert not mac.verify(message, expected[:-1] + bytes([expected[-1] ^ 1]))
        assert mac.prefix(message).tag() == expected
        assert mac.prefix(memoryview(message)).verify(expected)
        assert not mac.prefix(message).verify(expected[:15])
        assert not mac.prefix(message).verify(expected + b"\x00")
        for split in range(length + 1):
            assert mac.prefix(message[:split]).verify(expected, message[split:])


class TestTagMemo:
    """The memo caches ``MAC_K(m)`` for exact single-block messages; it
    must never change a tag or a verdict, only skip recomputing one."""

    @staticmethod
    def _count_blocks(mac):
        calls = []
        encrypt = mac._encrypt

        def counting(*words):
            calls.append(words)
            return encrypt(*words)

        mac._encrypt = counting
        return calls

    def test_verify_of_a_just_tagged_payload_needs_no_block(self):
        # A warm trap verifies MAC(lastBlock || counter) for exactly the
        # 12-byte payload the kernel tagged at the previous trap.
        mac = AesCmac(RFC_KEY)
        blocks = self._count_blocks(mac)
        payload = struct.pack("<IQ", 3, 41)
        tag = mac.tag(payload)
        assert len(blocks) == 1
        assert mac.verify(payload, tag)
        assert len(blocks) == 1

    def test_only_single_block_messages_are_memoized(self):
        mac = AesCmac(RFC_KEY)
        blocks = self._count_blocks(mac)
        for message in (RFC_MSG[:17], RFC_MSG[:17]):
            mac.tag(message)
        assert len(blocks) == 4
        assert mac._memo == {}

    def test_memo_stays_within_its_bound(self):
        mac = AesCmac(RFC_KEY)
        bound = AesCmac.MEMO_ENTRIES
        for counter in range(10 * bound):
            mac.tag(struct.pack("<IQ", 7, counter))
            assert len(mac._memo) <= bound
        # Cleared when full, never left empty by it: the latest tag is
        # always there for the next verify.
        assert struct.pack("<IQ", 7, 10 * bound - 1) in mac._memo

    def test_memo_keys_are_immutable_bytes(self):
        mac = AesCmac(RFC_KEY)
        buffer = bytearray(b"lastBlock+ctr")
        tag = mac.tag(buffer)
        buffer[0] ^= 1  # the caller reuses its buffer
        assert all(type(key) is bytes for key in mac._memo)
        assert mac.tag(buffer) != tag
        assert mac.tag(b"lastBlock+ctr") == tag
        assert mac.tag(memoryview(bytearray(b"lastBlock+ctr"))) == tag

    @pytest.mark.parametrize("message", [b"", b"twelve bytes", RFC_MSG[:16]])
    def test_verify_after_a_memo_hit_still_compares_the_full_tag(self, message):
        mac = AesCmac(RFC_KEY)
        tag = mac.tag(message)
        assert mac.verify(message, tag)
        for bit in range(MAC_SIZE * 8):
            flipped = bytearray(tag)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not mac.verify(message, bytes(flipped))
        assert not mac.verify(message, tag[:15])
        assert not mac.verify(message, tag + b"\x00")
        assert mac.verify(message, tag)


class TestCmacPrefix:
    def test_rfc4493_vectors_through_prefix_api(self):
        for length, expected in RFC_TAGS.items():
            state = AesCmac(RFC_KEY).prefix(RFC_MSG[:length])
            assert state.tag() == bytes.fromhex(expected)

    def test_every_split_point_matches_one_shot(self):
        mac = AesCmac(RFC_KEY)
        for total in (0, 1, 15, 16, 17, 32, 40, 64, 70):
            message = RFC_MSG * 2
            message = message[:total]
            expected = mac.tag(message)
            for split in range(total + 1):
                state = mac.prefix(message[:split])
                assert state.tag(message[split:]) == expected, (total, split)

    @given(
        key=st.binary(min_size=16, max_size=16),
        prefix=st.binary(max_size=80),
        suffixes=st.lists(st.binary(max_size=40), max_size=4),
    )
    def test_shared_prefix_many_suffixes(self, key, prefix, suffixes):
        mac = AesCmac(key)
        state = mac.prefix(prefix)
        for suffix in suffixes:
            assert state.tag(suffix) == mac.tag(prefix + suffix)

    @given(
        key=st.binary(min_size=16, max_size=16),
        chunks=st.lists(st.binary(max_size=23), max_size=6),
    )
    def test_chained_updates_match_one_shot(self, key, chunks):
        mac = AesCmac(key)
        state = mac.prefix()
        for chunk in chunks:
            state.update(chunk)
        assert state.tag() == mac.tag(b"".join(chunks))

    def test_tag_does_not_consume_state(self):
        mac = AesCmac(RFC_KEY)
        state = mac.prefix(RFC_MSG[:40])
        first = state.tag(RFC_MSG[40:])
        assert state.tag(RFC_MSG[40:]) == first
        assert state.tag() == mac.tag(RFC_MSG[:40])

    def test_copy_is_independent(self):
        mac = AesCmac(RFC_KEY)
        state = mac.prefix(RFC_MSG[:20])
        fork = state.copy()
        fork.update(b"divergent")
        assert state.tag() == mac.tag(RFC_MSG[:20])
        assert fork.tag() == mac.tag(RFC_MSG[:20] + b"divergent")

    def test_verify(self):
        mac = AesCmac(RFC_KEY)
        state = mac.prefix(RFC_MSG[:16])
        good = mac.tag(RFC_MSG[:40])
        assert state.verify(good, RFC_MSG[16:40])
        assert not state.verify(good[:-1] + b"\x00", RFC_MSG[16:40])
        assert not state.verify(good, RFC_MSG[16:39])


def test_cmac_state_exported():
    import repro.crypto as crypto

    assert crypto.CmacState is CmacState
    assert crypto.TableAES is TableAES
