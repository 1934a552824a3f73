"""OMAC1/CMAC known-answer (RFC 4493) and property tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import BLOCK_WORDS
from repro.crypto.cmac import MAC_SIZE, AesCmac, _dbl

RFC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


class TestRfc4493Vectors:
    def test_empty_message(self):
        expected = bytes.fromhex("bb1d6929e95937287fa37d129b756746")
        assert AesCmac(RFC_KEY).tag(b"") == expected

    def test_one_block(self):
        expected = bytes.fromhex("070a16b46b4d4144f79bdd9dd04a287c")
        assert AesCmac(RFC_KEY).tag(RFC_MSG[:16]) == expected

    def test_forty_bytes(self):
        expected = bytes.fromhex("dfa66747de9ae63030ca32611497c827")
        assert AesCmac(RFC_KEY).tag(RFC_MSG[:40]) == expected

    def test_four_blocks(self):
        expected = bytes.fromhex("51f0bebf7e3b9d92fc49741779363cfe")
        assert AesCmac(RFC_KEY).tag(RFC_MSG) == expected

    def test_subkey_generation(self):
        # RFC 4493 section 4: K1/K2 for the all-zero AES output, held
        # as four column words each.
        mac = AesCmac(RFC_KEY)
        assert BLOCK_WORDS.pack(*mac._k1) == bytes.fromhex("fbeed618357133667c85e08f7236a8de")
        assert BLOCK_WORDS.pack(*mac._k2) == bytes.fromhex("f7ddac306ae266ccf90bc11ee46d513b")


class TestDoubling:
    def test_no_carry(self):
        assert _dbl(bytes(15) + b"\x01") == bytes(15) + b"\x02"

    def test_carry_applies_r128(self):
        assert _dbl(b"\x80" + bytes(15)) == bytes(15) + b"\x87"


class TestVerify:
    def test_accepts_valid_tag(self):
        mac = AesCmac(bytes(16))
        assert mac.verify(b"payload", mac.tag(b"payload"))

    def test_rejects_modified_message(self):
        mac = AesCmac(bytes(16))
        assert not mac.verify(b"payloaD", mac.tag(b"payload"))

    def test_rejects_truncated_tag(self):
        mac = AesCmac(bytes(16))
        assert not mac.verify(b"payload", mac.tag(b"payload")[:8])

    def test_rejects_wrong_key(self):
        good = AesCmac(bytes(16))
        evil = AesCmac(bytes(15) + b"\x01")
        assert not evil.verify(b"payload", good.tag(b"payload"))


class TestProperties:
    @given(key=st.binary(min_size=16, max_size=16), msg=st.binary(max_size=200))
    def test_tag_size_and_determinism(self, key, msg):
        mac = AesCmac(key)
        tag = mac.tag(msg)
        assert len(tag) == MAC_SIZE
        assert mac.tag(msg) == tag

    @given(
        key=st.binary(min_size=16, max_size=16),
        msg=st.binary(max_size=100),
        flip=st.integers(min_value=0, max_value=99),
    )
    def test_single_bit_flip_changes_tag(self, key, msg, flip):
        if not msg:
            return
        mac = AesCmac(key)
        index = flip % len(msg)
        mutated = bytes(
            b ^ (0x01 if i == index else 0x00) for i, b in enumerate(msg)
        )
        assert mac.tag(mutated) != mac.tag(msg)

    @given(key=st.binary(min_size=16, max_size=16), msg=st.binary(max_size=64))
    def test_verify_round_trip(self, key, msg):
        mac = AesCmac(key)
        assert mac.verify(msg, mac.tag(msg))
