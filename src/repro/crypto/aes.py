"""AES-128 block cipher (FIPS-197).

Three implementations share one interface:

- :class:`AES` is the straightforward table-free *reference* version:
  the S-box is precomputed, and MixColumns uses xtime (multiplication
  by 2 in GF(2^8)).  Clarity is preferred over raw speed.
- :class:`TableAES` is the table-driven version the paper's prototype
  would have linked (Gladman-style): SubBytes, ShiftRows, and
  MixColumns are fused into four precomputed 256-entry 32-bit T-tables
  and the rounds work on four column words instead of sixteen byte
  cells.  It is the pure-Python floor, and the fallback.
- :class:`NativeAES` runs each block in OpenSSL's libcrypto, which
  CPython already maps for :mod:`hashlib`, through :mod:`ctypes`.  It
  is used only where the binding gives FIPS-197's known answers.

:func:`default_cipher` picks the block cipher behind
:class:`repro.crypto.cmac.AesCmac`: :class:`NativeAES` where that
binding was accepted, :class:`TableAES` otherwise.  All three are
cross-checked against each other by the property tests in
``tests/crypto``.

Each exposes ``encrypt_block`` (16 bytes in and out), the chain entry
``encrypt_chain`` (CBC over whole blocks from a chaining value,
returning the last block: the loop CMAC runs on) and a ``name``;
:class:`TableAES` runs its rounds in ``encrypt_words``, on four
big-endian 32-bit column words.  :class:`AES` and :class:`TableAES`
chain with a per-block loop; :class:`NativeAES` chains a whole message
in libcrypto's CBC mode.
"""

from __future__ import annotations

import functools
import struct
import weakref
from itertools import chain
from typing import Optional

BLOCK_SIZE = 16

#: A block as four big-endian column words (row 0 in the top byte).
BLOCK_WORDS = struct.Struct(">4I")

_SBOX = [0] * 256
_INV_SBOX = [0] * 256


def _initialise_sboxes() -> None:
    """Build the AES S-box from the multiplicative inverse in GF(2^8).

    Computing the table (rather than embedding 256 literals) keeps the
    derivation auditable and doubles as a self-check: the affine
    transform and inverse must agree with the published fixed points
    (``SBOX[0x00] == 0x63``), which the unit tests assert.
    """
    p = q = 1
    # 3 is a generator of GF(2^8)*; walk the log/antilog cycle.
    while True:
        # p := p * 3
        p = p ^ ((p << 1) & 0xFF) ^ (0x1B if p & 0x80 else 0)
        # q := q / 3
        q ^= q << 1
        q ^= q << 2
        q ^= q << 4
        q &= 0xFF
        if q & 0x80:
            q ^= 0x09
        s = q ^ _rotl8(q, 1) ^ _rotl8(q, 2) ^ _rotl8(q, 3) ^ _rotl8(q, 4) ^ 0x63
        _SBOX[p] = s
        _INV_SBOX[s] = p
        if p == 1:
            break
    _SBOX[0] = 0x63
    _INV_SBOX[0x63] = 0


def _rotl8(x: int, shift: int) -> int:
    return ((x << shift) | (x >> (8 - shift))) & 0xFF


_initialise_sboxes()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """General multiplication in GF(2^8); used only by decryption."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


class AES:
    """AES-128 over 16-byte blocks.

    >>> key = bytes(range(16))
    >>> cipher = AES(key)
    >>> block = b"authenticated!!!"
    >>> cipher.decrypt_block(cipher.encrypt_block(block)) == block
    True
    """

    name = "reference"

    rounds = 10

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)}")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> list[list[int]]:
        """Expand a 16-byte key into 11 round keys of 16 bytes each."""
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 4 * (AES.rounds + 1)):
            word = list(words[i - 1])
            if i % 4 == 0:
                word = word[1:] + word[:1]
                word = [_SBOX[b] for b in word]
                word[0] ^= _RCON[i // 4 - 1]
            words.append([w ^ p for w, p in zip(word, words[i - 4])])
        round_keys = []
        for r in range(AES.rounds + 1):
            rk: list[int] = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    # -- state helpers -------------------------------------------------
    #
    # The state is kept as a flat list of 16 bytes in column-major order
    # (byte i of the input maps to row i%4, column i//4), matching the
    # FIPS-197 layout so ShiftRows indices below are the standard ones.

    @staticmethod
    def _add_round_key(state: list[int], rk: list[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    # Row r of the state lives at indices r, r+4, r+8, r+12.
    _SHIFT_ROWS = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
    _INV_SHIFT_ROWS = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]

    @classmethod
    def _shift_rows(cls, state: list[int]) -> list[int]:
        return [state[i] for i in cls._SHIFT_ROWS]

    @classmethod
    def _inv_shift_rows(cls, state: list[int]) -> list[int]:
        return [state[i] for i in cls._INV_SHIFT_ROWS]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            t = a0 ^ a1 ^ a2 ^ a3
            state[c + 0] = a0 ^ t ^ _xtime(a0 ^ a1)
            state[c + 1] = a1 ^ t ^ _xtime(a1 ^ a2)
            state[c + 2] = a2 ^ t ^ _xtime(a2 ^ a3)
            state[c + 3] = a3 ^ t ^ _xtime(a3 ^ a0)

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c + 0] = _gmul(a0, 14) ^ _gmul(a1, 11) ^ _gmul(a2, 13) ^ _gmul(a3, 9)
            state[c + 1] = _gmul(a0, 9) ^ _gmul(a1, 14) ^ _gmul(a2, 11) ^ _gmul(a3, 13)
            state[c + 2] = _gmul(a0, 13) ^ _gmul(a1, 9) ^ _gmul(a2, 14) ^ _gmul(a3, 11)
            state[c + 3] = _gmul(a0, 11) ^ _gmul(a1, 13) ^ _gmul(a2, 9) ^ _gmul(a3, 14)

    # -- public API ----------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, self.rounds):
            self._sub_bytes(state)
            state = self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state)
        state = self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[self.rounds])
        state = self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        for r in range(self.rounds - 1, 0, -1):
            self._add_round_key(state, self._round_keys[r])
            self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)

    def encrypt_chain(self, iv: bytes, data: bytes) -> bytes:
        """CBC-encrypt the whole blocks of ``data`` onto the chaining
        value ``iv`` and return the last ciphertext block (``iv`` itself
        when ``data`` is empty): each block is XORed onto the chaining
        value as a 128-bit int and run through :meth:`encrypt_block`."""
        if len(iv) != BLOCK_SIZE or len(data) % BLOCK_SIZE:
            raise ValueError(
                f"chain needs a {BLOCK_SIZE}-byte IV and whole blocks, "
                f"got {len(iv)} and {len(data)} bytes"
            )
        encrypt = self.encrypt_block
        from_bytes = int.from_bytes
        out = bytes(iv)
        for offset in range(0, len(data), BLOCK_SIZE):
            block = from_bytes(data[offset : offset + BLOCK_SIZE], "big")
            out = encrypt((from_bytes(out, "big") ^ block).to_bytes(BLOCK_SIZE, "big"))
        return out


# -- table-driven variant ----------------------------------------------
#
# The four encryption T-tables.  With the state held as four big-endian
# column words (row 0 in the most significant byte), one AES round is
#
#   t[j] = Te0[s[j] >> 24] ^ Te1[(s[j+1] >> 16) & 0xFF]
#        ^ Te2[(s[j+2] >> 8) & 0xFF] ^ Te3[s[j+3] & 0xFF] ^ rk[j]
#
# (column indices mod 4): each table bakes SubBytes plus one column of
# the MixColumns matrix, and the staggered byte selection is ShiftRows.
# The last round has no MixColumns, so it ORs S-box entries that are
# pre-shifted into their row's byte lane instead.

_TE0: list[int] = []
_TE1: list[int] = []
_TE2: list[int] = []
_TE3: list[int] = []


def _initialise_ttables() -> None:
    for x in range(256):
        s = _SBOX[x]
        m2 = _xtime(s)
        m3 = m2 ^ s
        _TE0.append((m2 << 24) | (s << 16) | (s << 8) | m3)
        _TE1.append((m3 << 24) | (m2 << 16) | (s << 8) | s)
        _TE2.append((s << 24) | (m3 << 16) | (m2 << 8) | s)
        _TE3.append((s << 24) | (s << 16) | (m3 << 8) | m2)


_initialise_ttables()

_S24 = [s << 24 for s in _SBOX]
_S16 = [s << 16 for s in _SBOX]
_S8 = [s << 8 for s in _SBOX]


class TableAES(AES):
    """Table-driven AES-128 encryption behind the :class:`AES` interface.

    Key expansion and decryption reuse the reference implementation
    (the CMAC construction never decrypts).  Encryption is
    :meth:`encrypt_words`: ten unrolled word-level rounds over the
    precomputed tables, which is what makes it several times faster
    than the byte-cell reference.
    """

    name = "table"

    def __init__(self, key: bytes):
        super().__init__(key)
        # All 11 round keys as one flat tuple of 44 column words.
        self._rk = struct.unpack(">44I", bytes(chain.from_iterable(self._round_keys)))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return BLOCK_WORDS.pack(*self.encrypt_words(*BLOCK_WORDS.unpack(block)))

    def encrypt_words(self, s0: int, s1: int, s2: int, s3: int) -> tuple:
        """Encrypt one block given and returned as four column words.

        The rounds are written out rather than looped, with every round
        key in a local: a round is its 16 table lookups and XORs, with
        no loop or key-list indexing around them."""
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        s24, s16, s8, sbox = _S24, _S16, _S8, _SBOX
        (
            k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10,
            k11, k12, k13, k14, k15, k16, k17, k18, k19, k20, k21,
            k22, k23, k24, k25, k26, k27, k28, k29, k30, k31, k32,
            k33, k34, k35, k36, k37, k38, k39, k40, k41, k42, k43,
        ) = self._rk
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 255] ^ te2[(s2 >> 8) & 255] ^ te3[s3 & 255] ^ k4
        t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 255] ^ te2[(s3 >> 8) & 255] ^ te3[s0 & 255] ^ k5
        t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 255] ^ te2[(s0 >> 8) & 255] ^ te3[s1 & 255] ^ k6
        t3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 255] ^ te2[(s1 >> 8) & 255] ^ te3[s2 & 255] ^ k7
        s0 = te0[t0 >> 24] ^ te1[(t1 >> 16) & 255] ^ te2[(t2 >> 8) & 255] ^ te3[t3 & 255] ^ k8
        s1 = te0[t1 >> 24] ^ te1[(t2 >> 16) & 255] ^ te2[(t3 >> 8) & 255] ^ te3[t0 & 255] ^ k9
        s2 = te0[t2 >> 24] ^ te1[(t3 >> 16) & 255] ^ te2[(t0 >> 8) & 255] ^ te3[t1 & 255] ^ k10
        s3 = te0[t3 >> 24] ^ te1[(t0 >> 16) & 255] ^ te2[(t1 >> 8) & 255] ^ te3[t2 & 255] ^ k11
        t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 255] ^ te2[(s2 >> 8) & 255] ^ te3[s3 & 255] ^ k12
        t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 255] ^ te2[(s3 >> 8) & 255] ^ te3[s0 & 255] ^ k13
        t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 255] ^ te2[(s0 >> 8) & 255] ^ te3[s1 & 255] ^ k14
        t3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 255] ^ te2[(s1 >> 8) & 255] ^ te3[s2 & 255] ^ k15
        s0 = te0[t0 >> 24] ^ te1[(t1 >> 16) & 255] ^ te2[(t2 >> 8) & 255] ^ te3[t3 & 255] ^ k16
        s1 = te0[t1 >> 24] ^ te1[(t2 >> 16) & 255] ^ te2[(t3 >> 8) & 255] ^ te3[t0 & 255] ^ k17
        s2 = te0[t2 >> 24] ^ te1[(t3 >> 16) & 255] ^ te2[(t0 >> 8) & 255] ^ te3[t1 & 255] ^ k18
        s3 = te0[t3 >> 24] ^ te1[(t0 >> 16) & 255] ^ te2[(t1 >> 8) & 255] ^ te3[t2 & 255] ^ k19
        t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 255] ^ te2[(s2 >> 8) & 255] ^ te3[s3 & 255] ^ k20
        t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 255] ^ te2[(s3 >> 8) & 255] ^ te3[s0 & 255] ^ k21
        t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 255] ^ te2[(s0 >> 8) & 255] ^ te3[s1 & 255] ^ k22
        t3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 255] ^ te2[(s1 >> 8) & 255] ^ te3[s2 & 255] ^ k23
        s0 = te0[t0 >> 24] ^ te1[(t1 >> 16) & 255] ^ te2[(t2 >> 8) & 255] ^ te3[t3 & 255] ^ k24
        s1 = te0[t1 >> 24] ^ te1[(t2 >> 16) & 255] ^ te2[(t3 >> 8) & 255] ^ te3[t0 & 255] ^ k25
        s2 = te0[t2 >> 24] ^ te1[(t3 >> 16) & 255] ^ te2[(t0 >> 8) & 255] ^ te3[t1 & 255] ^ k26
        s3 = te0[t3 >> 24] ^ te1[(t0 >> 16) & 255] ^ te2[(t1 >> 8) & 255] ^ te3[t2 & 255] ^ k27
        t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 255] ^ te2[(s2 >> 8) & 255] ^ te3[s3 & 255] ^ k28
        t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 255] ^ te2[(s3 >> 8) & 255] ^ te3[s0 & 255] ^ k29
        t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 255] ^ te2[(s0 >> 8) & 255] ^ te3[s1 & 255] ^ k30
        t3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 255] ^ te2[(s1 >> 8) & 255] ^ te3[s2 & 255] ^ k31
        s0 = te0[t0 >> 24] ^ te1[(t1 >> 16) & 255] ^ te2[(t2 >> 8) & 255] ^ te3[t3 & 255] ^ k32
        s1 = te0[t1 >> 24] ^ te1[(t2 >> 16) & 255] ^ te2[(t3 >> 8) & 255] ^ te3[t0 & 255] ^ k33
        s2 = te0[t2 >> 24] ^ te1[(t3 >> 16) & 255] ^ te2[(t0 >> 8) & 255] ^ te3[t1 & 255] ^ k34
        s3 = te0[t3 >> 24] ^ te1[(t0 >> 16) & 255] ^ te2[(t1 >> 8) & 255] ^ te3[t2 & 255] ^ k35
        t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 255] ^ te2[(s2 >> 8) & 255] ^ te3[s3 & 255] ^ k36
        t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 255] ^ te2[(s3 >> 8) & 255] ^ te3[s0 & 255] ^ k37
        t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 255] ^ te2[(s0 >> 8) & 255] ^ te3[s1 & 255] ^ k38
        t3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 255] ^ te2[(s1 >> 8) & 255] ^ te3[s2 & 255] ^ k39
        return (
            (s24[t0 >> 24] | s16[(t1 >> 16) & 255] | s8[(t2 >> 8) & 255] | sbox[t3 & 255]) ^ k40,
            (s24[t1 >> 24] | s16[(t2 >> 16) & 255] | s8[(t3 >> 8) & 255] | sbox[t0 & 255]) ^ k41,
            (s24[t2 >> 24] | s16[(t3 >> 16) & 255] | s8[(t0 >> 8) & 255] | sbox[t1 & 255]) ^ k42,
            (s24[t3 >> 24] | s16[(t0 >> 16) & 255] | s8[(t1 >> 8) & 255] | sbox[t2 & 255]) ^ k43,
        )


# -- libcrypto variant ---------------------------------------------------
#
# ``_hashlib`` links OpenSSL's libcrypto, so importing it maps the
# library into the process, and ``ctypes`` opens that same library by
# its versioned soname.  An unversioned name is never tried: it can
# resolve to another copy, and on macOS loading the unversioned system
# library aborts the process.

#: The sonames tried, in order; nothing else is loaded.
LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")

#: FIPS-197 Appendix B and C.1, as (key, plaintext, ciphertext).  The
#: libcrypto binding is used only if it gives both.
KNOWN_ANSWERS = (
    (
        bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
        bytes.fromhex("3243f6a8885a308d313198a2e0370734"),
        bytes.fromhex("3925841d02dc09fbdc118597196a0b32"),
    ),
    (
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        bytes.fromhex("00112233445566778899aabbccddeeff"),
        bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
    ),
)


#: NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt), as (key, IV, plaintext,
#: ciphertext).  The binding's chain entry must give the last block of
#: every prefix of it.
CBC_KNOWN_ANSWER = (
    bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
    bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
    bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710"
    ),
    bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d" "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516" "3ff1caa1681fac09120eca307586e1a7"
    ),
)


class _Evp:
    """libcrypto's EVP entry points for AES-128-ECB and -CBC
    encryption, with every C signature declared.  Raises
    :class:`AttributeError` if the library lacks one of them."""

    def __init__(self, lib):
        from ctypes import c_char_p, c_int, c_void_p

        self.ctx_new = _declare(lib.EVP_CIPHER_CTX_new, c_void_p)
        self.ctx_free = _declare(lib.EVP_CIPHER_CTX_free, None, c_void_p)
        self.aes_128_ecb = _declare(lib.EVP_aes_128_ecb, c_void_p)
        self.aes_128_cbc = _declare(lib.EVP_aes_128_cbc, c_void_p)
        # (ctx, cipher, engine, key, iv); with only ``iv`` given it
        # restarts a keyed CBC context from that chaining value.
        self.init = _declare(
            lib.EVP_EncryptInit_ex, c_int, c_void_p, c_void_p, c_void_p, c_char_p, c_char_p
        )
        self.set_padding = _declare(lib.EVP_CIPHER_CTX_set_padding, c_int, c_void_p, c_int)
        # (ctx, out, &outl, in, inl): plain addresses and bytes, since
        # POINTER(...) argtypes nearly double the cost of a call.
        self.update = _declare(
            lib.EVP_EncryptUpdate, c_int, c_void_p, c_void_p, c_void_p, c_char_p, c_int
        )


def _declare(function, restype, *argtypes):
    function.restype = restype
    function.argtypes = argtypes
    return function


def _open_libcrypto() -> Optional[_Evp]:
    """libcrypto's AES entry points, or None where the interpreter has
    no ``_hashlib`` or ``ctypes``, no library answers to a versioned
    soname, or the library lacks a symbol."""
    try:
        # Importing _hashlib maps the libcrypto opened below.
        import _hashlib  # noqa: F401
        import ctypes
    except ImportError:
        return None
    for soname in LIBCRYPTO_SONAMES:
        try:
            # PyDLL keeps the interpreter lock over a call of about a
            # microsecond, where CDLL would release and retake it.
            lib = ctypes.PyDLL(soname)
        except OSError:
            continue
        try:
            return _Evp(lib)
        except AttributeError:
            return None
    return None


@functools.cache
def libcrypto_binding() -> Optional[_Evp]:
    """The binding :class:`NativeAES` runs on, or None.  It is opened
    once per process and accepted only if its block gives
    :data:`KNOWN_ANSWERS` and its chain entry :data:`CBC_KNOWN_ANSWER`."""
    evp = _open_libcrypto()
    if evp is None:
        return None
    try:
        for key, plaintext, ciphertext in KNOWN_ANSWERS:
            if NativeAES(key, evp).encrypt_block(plaintext) != ciphertext:
                return None
        key, iv, plaintext, ciphertext = CBC_KNOWN_ANSWER
        cipher = NativeAES(key, evp)
        # Every prefix, on one context: each call restarts from ``iv``.
        for end in range(BLOCK_SIZE, len(plaintext) + 1, BLOCK_SIZE):
            last = ciphertext[end - BLOCK_SIZE : end]
            if cipher.encrypt_chain(iv, plaintext[:end]) != last:
                return None
    except RuntimeError:
        return None
    return evp


class NativeAES:
    """AES-128 encryption in libcrypto, behind the :class:`TableAES`
    interface.

    Each instance holds two EVP contexts keyed with its key, padding
    off, both freed when the instance is collected: one for
    AES-128-ECB, which :meth:`encrypt_block` runs, and one for
    AES-128-CBC, which :meth:`encrypt_chain` runs.  It owns their
    output buffers and length cell, which libcrypto writes by address,
    so an instance serves one thread at a time, as the kernel that owns
    it does.  A block costs one foreign call; a chain of up to
    :attr:`CHAIN_BYTES` bytes costs two.
    """

    name = "libcrypto"

    #: The chain's output buffer: a longer message goes through the CBC
    #: context in chunks of this many bytes, which carries the chaining
    #: value from one chunk to the next.
    CHAIN_BYTES = 4096

    def __init__(self, key: bytes, evp: Optional[_Evp] = None):
        """``evp`` defaults to :func:`libcrypto_binding`; only its
        known-answer check passes another."""
        if len(key) != 16:
            raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)}")
        if evp is None:
            evp = libcrypto_binding()
            if evp is None:
                raise RuntimeError("libcrypto's AES-128 is unavailable")
        from ctypes import addressof, c_int, create_string_buffer

        key = bytes(key)
        self._ctx = self._context(evp, evp.aes_128_ecb(), key, None)
        self._cbc = self._context(evp, evp.aes_128_cbc(), key, bytes(BLOCK_SIZE))
        self._init = evp.init
        self._update = evp.update
        self._out = create_string_buffer(BLOCK_SIZE)
        self._chain_out = create_string_buffer(self.CHAIN_BYTES)
        self._outl = c_int()
        self._out_address = addressof(self._out)
        self._chain_out_address = addressof(self._chain_out)
        self._outl_address = addressof(self._outl)

    def _context(self, evp: _Evp, cipher, key: bytes, iv: Optional[bytes]) -> int:
        """A new EVP context keyed for ``cipher`` with padding off, freed
        with this instance."""
        ctx = evp.ctx_new()
        if not ctx:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        # Not at exit: the process's memory goes anyway.
        weakref.finalize(self, evp.ctx_free, ctx).atexit = False
        if not (evp.init(ctx, cipher, None, key, iv) and evp.set_padding(ctx, 0)):
            raise RuntimeError("cannot key an AES-128 context")
        return ctx

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block: one ``EVP_EncryptUpdate`` call."""
        if type(block) is not bytes:
            block = bytes(block)  # the binding passes ``bytes`` as char *
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        if not self._update(
            self._ctx, self._out_address, self._outl_address, block, BLOCK_SIZE
        ):
            raise RuntimeError("EVP_EncryptUpdate failed")
        return self._out.raw

    def encrypt_chain(self, iv: bytes, data: bytes) -> bytes:
        """CBC-encrypt the whole blocks of ``data`` onto the chaining
        value ``iv`` and return the last ciphertext block (``iv`` itself
        when ``data`` is empty): one ``EVP_EncryptInit_ex`` that restarts
        the CBC context from ``iv``, then one ``EVP_EncryptUpdate`` per
        :attr:`CHAIN_BYTES` of ``data``."""
        if type(iv) is not bytes:
            iv = bytes(iv)
        if type(data) is not bytes:
            data = bytes(data)
        length = len(data)
        if len(iv) != BLOCK_SIZE or length % BLOCK_SIZE:
            raise ValueError(
                f"chain needs a {BLOCK_SIZE}-byte IV and whole blocks, "
                f"got {len(iv)} and {length} bytes"
            )
        if not length:
            return iv
        ctx = self._cbc
        if not self._init(ctx, None, None, None, iv):
            raise RuntimeError("EVP_EncryptInit_ex failed")
        update = self._update
        out = self._chain_out_address
        step = self.CHAIN_BYTES
        outl = self._outl_address
        start = 0
        while length - start > step:
            if not update(ctx, out, outl, data[start : start + step], step):
                raise RuntimeError("EVP_EncryptUpdate failed")
            start += step
        end = length - start
        if not update(ctx, out, outl, data[start:] if start else data, end):
            raise RuntimeError("EVP_EncryptUpdate failed")
        return self._chain_out[end - BLOCK_SIZE : end]


def default_cipher(key: bytes):
    """The block cipher :class:`repro.crypto.cmac.AesCmac` runs on by
    default: :class:`NativeAES` where :func:`libcrypto_binding` was
    accepted, :class:`TableAES` otherwise."""
    if libcrypto_binding() is not None:
        return NativeAES(key)
    return TableAES(key)
