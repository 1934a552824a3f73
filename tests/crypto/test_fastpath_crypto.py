"""Fast-path crypto: libcrypto's AES block and CBC chain entry and
their table-driven fallback, the CMAC core, its single-block tag memo,
and the incremental CMAC API.

The libcrypto block, the table-driven cipher, the memo and the
prefix-state CMAC exist purely for speed; these tests pin them
bit-for-bit to the reference implementations so the optimization can
never drift from the spec.
"""

import ctypes
import gc
import itertools
import struct
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    AES, BLOCK_SIZE, BLOCK_WORDS, CBC_KNOWN_ANSWER, LIBCRYPTO_SONAMES, NativeAES,
    TableAES, libcrypto_binding,
)
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

FIPS197_B = (
    bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
    bytes.fromhex("3243f6a8885a308d313198a2e0370734"),
    bytes.fromhex("3925841d02dc09fbdc118597196a0b32"),
)
FIPS197_C1 = (
    bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
    bytes.fromhex("00112233445566778899aabbccddeeff"),
    bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
)

HAVE_LIBCRYPTO = libcrypto_binding() is not None

needs_libcrypto = pytest.mark.skipif(
    not HAVE_LIBCRYPTO,
    reason="no libcrypto AES-128 binding here (no _hashlib or ctypes, no "
    "versioned libcrypto soname, a missing symbol or a wrong known answer)",
)

#: Every block cipher AesCmac can run on.
CIPHERS = [
    pytest.param(TableAES, id="table"),
    pytest.param(AES, id="reference"),
    pytest.param(NativeAES, id="libcrypto", marks=needs_libcrypto),
]


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


class TestNativeAes:
    pytestmark = needs_libcrypto

    @pytest.mark.parametrize("vector", [FIPS197_B, FIPS197_C1], ids=["B", "C.1"])
    def test_fips197_known_answers(self, vector):
        key, plaintext, ciphertext = vector
        cipher = NativeAES(key)
        assert cipher.encrypt_block(plaintext) == ciphertext

    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    )
    def test_matches_reference_aes(self, key, block):
        expected = AES(key).encrypt_block(block)
        cipher = NativeAES(key)
        first = cipher.encrypt_block(block)
        # The output buffer is reused: the next block must not change a
        # result already returned.
        assert cipher.encrypt_block(expected) == AES(key).encrypt_block(expected)
        assert first == expected

    def test_accepts_any_bytes_like_block(self):
        key, plaintext, ciphertext = FIPS197_C1
        cipher = NativeAES(bytearray(key))
        assert cipher.encrypt_block(bytearray(plaintext)) == ciphertext
        assert cipher.encrypt_block(memoryview(plaintext)) == ciphertext

    @pytest.mark.parametrize("length", [15, 17])
    def test_rejects_a_wrong_sized_block(self, length):
        with pytest.raises(ValueError):
            NativeAES(RFC_KEY).encrypt_block(bytes(length))


class TestNativeKeyCheck:
    @pytest.mark.parametrize("length", [15, 17])
    def test_wrong_key_length_rejected_before_any_native_call(self, monkeypatch, length):
        calls = []

        class Recording:
            def __getattr__(self, name):
                calls.append(name)
                raise AssertionError(f"native {name} reached")

        monkeypatch.setattr(aes, "libcrypto_binding", lambda: calls.append("binding"))
        with pytest.raises(ValueError, match="16-byte key"):
            NativeAES(bytes(length))
        with pytest.raises(ValueError, match="16-byte key"):
            NativeAES(bytes(length), Recording())
        assert calls == []

    @pytest.mark.parametrize("length", [15, 17])
    def test_aes_cmac_rejects_a_wrong_key_length(self, length):
        with pytest.raises(ValueError, match="16-byte key"):
            AesCmac(bytes(length))


class TestChainEntry:
    """``encrypt_chain``: CBC over whole blocks from a chaining value,
    returning the last block, the same on all three ciphers."""

    @pytest.mark.parametrize("cipher", CIPHERS)
    def test_sp800_38a_f21_every_prefix(self, cipher):
        key, iv, plaintext, ciphertext = CBC_KNOWN_ANSWER
        chain = cipher(key).encrypt_chain
        for end in range(BLOCK_SIZE, len(plaintext) + 1, BLOCK_SIZE):
            assert chain(iv, plaintext[:end]) == ciphertext[end - BLOCK_SIZE : end]
        # Chaining on from a block continues the same CBC stream.
        assert chain(ciphertext[16:32], plaintext[32:]) == ciphertext[48:]

    @pytest.mark.parametrize("cipher", CIPHERS)
    def test_empty_chain_returns_the_chaining_value(self, cipher):
        iv = bytes(range(16))
        assert cipher(RFC_KEY).encrypt_chain(iv, b"") == iv

    @pytest.mark.parametrize("cipher", CIPHERS)
    @pytest.mark.parametrize("iv, data", [(bytes(15), bytes(16)), (bytes(16), bytes(17))])
    def test_rejects_a_partial_block_or_iv(self, cipher, iv, data):
        with pytest.raises(ValueError):
            cipher(RFC_KEY).encrypt_chain(iv, data)

    @needs_libcrypto
    @given(
        key=st.binary(min_size=16, max_size=16),
        iv=st.binary(min_size=16, max_size=16),
        blocks=st.sampled_from([1, 2, 3, 255, 256, 257, 512, 513, 1030]),
        kind=st.sampled_from([bytes, bytearray, memoryview]),
    )
    def test_native_matches_table_across_chunks(self, key, iv, blocks, kind):
        # 256 blocks fill the native chain's buffer; longer messages go
        # through it in chunks, on one CBC context.
        assert NativeAES.CHAIN_BYTES == 256 * BLOCK_SIZE
        data = bytes((7 * i + key[0]) & 0xFF for i in range(blocks * BLOCK_SIZE))
        native = NativeAES(key)
        expected = TableAES(key).encrypt_chain(iv, data)
        assert native.encrypt_chain(kind(iv), kind(data)) == expected
        # Each call restarts from its own IV, whatever came before.
        assert native.encrypt_chain(iv, data) == expected


class _IdentityLib:
    """Answers to every EVP name the binding needs, but its "cipher"
    copies each block unchanged, so the known answers come out wrong."""

    contexts = itertools.count(1)
    freed: list = []

    @staticmethod
    def EVP_CIPHER_CTX_new():
        return next(_IdentityLib.contexts)

    @staticmethod
    def EVP_CIPHER_CTX_free(ctx):
        _IdentityLib.freed.append(ctx)

    @staticmethod
    def EVP_aes_128_ecb():
        return 2

    @staticmethod
    def EVP_aes_128_cbc():
        return 3

    @staticmethod
    def EVP_EncryptInit_ex(ctx, cipher, engine, key, iv):
        return 1

    @staticmethod
    def EVP_CIPHER_CTX_set_padding(ctx, padding):
        return 1

    @staticmethod
    def EVP_EncryptUpdate(ctx, out, outl, data, length):
        ctypes.memmove(out, data, length)
        return 1


def _cbc_lib(flaw=None):
    """A fake library whose ECB block is right (TableAES behind it) and
    whose CBC mode has ``flaw``: ``"unchained"`` encrypts each block
    alone; ``"no-restart"`` keeps chaining from the last call when
    re-initialized with only a new IV.  ``None``: no flaw."""
    ecb, cbc = _IdentityLib.EVP_aes_128_ecb(), _IdentityLib.EVP_aes_128_cbc()
    contexts = {}

    def init(ctx, cipher, engine, key, iv):
        if key is not None:
            contexts[ctx] = [TableAES(key), cipher, iv]
        elif flaw != "no-restart":
            contexts[ctx][2] = iv
        return 1

    def update(ctx, out, outl, data, length):
        block_cipher, cipher, chaining = contexts[ctx]
        blocks = []
        for offset in range(0, length, BLOCK_SIZE):
            block = data[offset : offset + BLOCK_SIZE]
            if cipher == cbc and flaw != "unchained":
                block = bytes(a ^ b for a, b in zip(block, chaining))
            chaining = block_cipher.encrypt_block(block)
            blocks.append(chaining)
        contexts[ctx][2] = chaining
        ctypes.memmove(out, b"".join(blocks), length)
        return 1

    return SimpleNamespace(
        EVP_CIPHER_CTX_new=_IdentityLib.EVP_CIPHER_CTX_new,
        EVP_CIPHER_CTX_free=_IdentityLib.EVP_CIPHER_CTX_free,
        EVP_aes_128_ecb=lambda: ecb,
        EVP_aes_128_cbc=lambda: cbc,
        EVP_EncryptInit_ex=init,
        EVP_CIPHER_CTX_set_padding=lambda ctx, padding: 1,
        EVP_EncryptUpdate=update,
    )


class TestLibcryptoFallback:
    """Wherever the binding cannot be had or gives a wrong answer,
    AesCmac runs on TableAES and its tags do not change."""

    @pytest.fixture(autouse=True)
    def fresh_binding(self):
        libcrypto_binding.cache_clear()
        yield
        libcrypto_binding.cache_clear()

    @staticmethod
    def _assert_table_fallback():
        assert libcrypto_binding() is None
        mac = AesCmac(RFC_KEY)
        assert mac.block_cipher == "table"
        for length, expected in RFC_TAGS.items():
            assert mac.tag(RFC_MSG[:length]) == bytes.fromhex(expected)
        with pytest.raises(RuntimeError):
            NativeAES(RFC_KEY)

    def test_a_library_that_opens_passes_its_known_answers(self):
        # The fallback must not hide a NativeAES bug: where libcrypto
        # opens and binds, its known answers have to come out right.
        if aes._open_libcrypto() is None:
            pytest.skip("no libcrypto opens under a versioned soname here")
        assert libcrypto_binding() is not None

    def test_no_soname_loads(self, monkeypatch):
        tried = []

        def missing(name):
            tried.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "PyDLL", missing)
        self._assert_table_fallback()
        # Only the versioned sonames are ever tried.
        assert tried == list(LIBCRYPTO_SONAMES)
        assert all(".so." in name for name in tried)

    def test_no_hashlib(self, monkeypatch):
        # An interpreter built without OpenSSL has no _hashlib.
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        self._assert_table_fallback()

    def test_missing_symbol(self, monkeypatch):
        symbols = {
            name: getattr(_IdentityLib, name)
            for name in dir(_IdentityLib)
            if name.startswith("EVP_") and name != "EVP_EncryptUpdate"
        }
        monkeypatch.setattr(ctypes, "PyDLL", lambda name: SimpleNamespace(**symbols))
        self._assert_table_fallback()

    def test_wrong_known_answer(self, monkeypatch):
        monkeypatch.setattr(ctypes, "PyDLL", lambda name: _IdentityLib())
        self._assert_table_fallback()

    def test_a_fake_with_a_right_cbc_is_accepted(self, monkeypatch):
        # The control for the next test: the fake itself passes.
        monkeypatch.setattr(ctypes, "PyDLL", lambda name: _cbc_lib())
        assert libcrypto_binding() is not None

    @pytest.mark.parametrize("flaw", ["unchained", "no-restart"])
    def test_wrong_cbc_chain(self, monkeypatch, flaw):
        # The block gives FIPS-197's answers; only the chain entry is
        # wrong, and that alone sends the whole cipher to TableAES.
        lib = _cbc_lib(flaw)
        for key, plaintext, ciphertext in (FIPS197_B, FIPS197_C1):
            assert NativeAES(key, aes._Evp(lib)).encrypt_block(plaintext) == ciphertext
        monkeypatch.setattr(ctypes, "PyDLL", lambda name: lib)
        self._assert_table_fallback()

    def test_context_is_freed_with_its_cipher(self):
        cipher = NativeAES(RFC_KEY, aes._Evp(_IdentityLib()))
        contexts = (cipher._ctx, cipher._cbc)
        assert contexts[0] != contexts[1]
        assert not set(contexts) & set(_IdentityLib.freed)
        del cipher
        gc.collect()
        assert [_IdentityLib.freed.count(ctx) for ctx in contexts] == [1, 1]


class TestCmacDefaultCipher:
    def test_rfc4493_vectors_with_table_cipher(self):
        # TableAES is the fallback block; the RFC vectors must hold on it.
        for length, expected in RFC_TAGS.items():
            mac = AesCmac(RFC_KEY, cipher=TableAES(RFC_KEY))
            assert mac.tag(RFC_MSG[:length]) == bytes.fromhex(expected)

    @pytest.mark.parametrize("cipher", CIPHERS)
    def test_block_cipher_names_the_block(self, cipher):
        mac = AesCmac(RFC_KEY, cipher=cipher(RFC_KEY))
        assert mac.block_cipher == cipher.name
        with pytest.raises(AttributeError):
            mac.block_cipher = "table"

    def test_default_block_is_libcrypto_where_its_binding_was_accepted(self):
        expected = "libcrypto" if HAVE_LIBCRYPTO else "table"
        assert AesCmac(RFC_KEY).block_cipher == expected

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
        macs = [AesCmac(key), AesCmac(key, cipher=AES(key)), AesCmac(key, cipher=TableAES(key))]
        if HAVE_LIBCRYPTO:
            macs.append(AesCmac(key, cipher=NativeAES(key)))
        for mac in macs:
            # Cold, then (for single-block messages) a memo hit.
            assert mac.tag(kind(message)) == expected
            assert mac.tag(kind(message)) == expected
            assert mac.verify(kind(message), expected)

    @pytest.mark.parametrize("cipher", CIPHERS)
    @pytest.mark.parametrize("length", sorted(RFC_TAGS))
    def test_rfc4493_vectors_through_tag_verify_and_prefix(self, length, cipher):
        mac = AesCmac(RFC_KEY, cipher=cipher(RFC_KEY))
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
        """Record every AES block ``mac`` runs: each block entry call,
        and each block of each chain entry call."""
        calls = []
        encrypt = mac._encrypt
        chain = mac._chain

        def counting(*words):
            calls.append(words)
            return encrypt(*words)

        def counting_chain(iv, data):
            calls.extend(data[i : i + BLOCK_SIZE] for i in range(0, len(data), BLOCK_SIZE))
            return chain(iv, data)

        mac._encrypt = counting
        mac._chain = counting_chain
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
    assert crypto.NativeAES is NativeAES
