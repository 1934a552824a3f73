"""OMAC1 (CMAC) over AES-128.

The paper uses "AES-CBC-OMAC" [Iwata & Kurosawa 2002], which produces a
128-bit message authentication code; OMAC1 was later standardised as
CMAC (RFC 4493, NIST SP 800-38B).  The unit tests check the RFC 4493
vectors, so this implementation is interoperable with any standard CMAC.

CBC chaining runs on 128-bit ints: each block is read as one
big-endian int, XORed onto the chaining value, and encrypted through
the block cipher's bytes ``encrypt_block`` (one ``EVP_EncryptUpdate``
call on :class:`NativeAES`), with the subkeys K1 and K2 held as ints
too, so a block costs one ``int.from_bytes``, one ``int.to_bytes`` and
one cipher call, with no per-word packing.

Two ways to MAC:

- :meth:`AesCmac.tag` is the one-shot path; it and
  :meth:`AesCmac.verify` are all the installer and the kernel call.  It
  memoizes the tags of single-block messages (see :class:`AesCmac`).
- :class:`CmacState` (via :meth:`AesCmac.prefix`) is the incremental
  API: absorb a message prefix once, then finalize it many times with
  different suffixes, skipping re-encryption of the shared leading
  blocks.  Nothing under :mod:`repro` calls it; it is kept as a tested
  API for callers that MAC many messages sharing a long prefix, and
  perfbench's traced run wraps its methods.
"""

from __future__ import annotations

import hmac
from typing import Optional, Union

from repro.crypto.aes import AES, BLOCK_SIZE, NativeAES, default_cipher

MAC_SIZE = 16

_R128 = 0x87  # the constant for doubling in GF(2^128)

#: ``_PADDING[n]`` completes an ``n``-byte final block: 0x80, then zeros.
_PADDING = tuple(b"\x80" + bytes(BLOCK_SIZE - 1 - n) for n in range(BLOCK_SIZE))


def _dbl(block: bytes) -> bytes:
    """Double a 128-bit value in GF(2^128) (left shift, conditional xor)."""
    value = int.from_bytes(block, "big")
    value <<= 1
    if value >> 128:
        value = (value & ((1 << 128) - 1)) ^ _R128
    return value.to_bytes(16, "big")


def _last_block_start(length: int) -> int:
    """Offset of the final block, which holds the last 1..16 bytes."""
    return (length - 1) // BLOCK_SIZE * BLOCK_SIZE


class AesCmac:
    """CMAC tag generation and verification.

    >>> mac = AesCmac(bytes(16))
    >>> tag = mac.tag(b"hello")
    >>> mac.verify(b"hello", tag)
    True
    >>> mac.verify(b"hellp", tag)
    False

    The block cipher defaults to
    :func:`repro.crypto.aes.default_cipher`: libcrypto's AES
    (:class:`NativeAES`) where its binding passed its known answers,
    else the table-driven :class:`TableAES`.  Pass ``cipher=AES(key)``
    (or any of the three) to run over that one instead; the equivalence
    tests do exactly that.  :attr:`block_cipher` names the one in use.

    **Tag memo.**  The tags of messages of at most one block are kept
    in a dict keyed by the exact message bytes, holding at most
    :attr:`MEMO_ENTRIES` entries and cleared when full.  It caches the
    pure function ``MAC_K(m)``, never a verdict: :meth:`verify` compares
    the presented tag against ``MAC_K(message)`` in full on every call,
    whether that tag came from the memo or from the cipher.  Its use is
    §3.4's memory checker: a process's next trap verifies
    ``MAC(lastBlock || counter)`` for exactly the 12-byte payload the
    kernel tagged at its previous trap, so the verify is a dict hit and
    a warm trap costs one AES block (the fresh tag) instead of two.
    """

    name = "aes-cmac"

    #: Bound on the single-block tag memo; it is cleared when full.
    MEMO_ENTRIES = 256

    def __init__(self, key: bytes, cipher: Optional[Union[AES, NativeAES]] = None):
        aes = cipher if cipher is not None else default_cipher(key)
        self._block_cipher = aes.name
        #: The one block entry: 16 bytes in, 16 bytes out.
        self._encrypt = aes.encrypt_block
        k1 = _dbl(aes.encrypt_block(bytes(BLOCK_SIZE)))
        self._k1 = int.from_bytes(k1, "big")
        self._k2 = int.from_bytes(_dbl(k1), "big")
        self._memo: dict[bytes, bytes] = {}

    @property
    def block_cipher(self) -> str:
        """The AES block in use: ``libcrypto``, ``table`` or ``reference``."""
        return self._block_cipher

    def tag(self, message: bytes) -> bytes:
        """Compute the 16-byte CMAC tag of ``message`` (any bytes-like)."""
        if type(message) is not bytes:
            message = bytes(message)  # memo keys must be immutable
        if len(message) > BLOCK_SIZE:
            last = _last_block_start(len(message))
            return self._finish(self._chain(0, message, last), message[last:])
        memo = self._memo
        tag = memo.get(message)
        if tag is None:
            if len(memo) >= self.MEMO_ENTRIES:
                memo.clear()
            tag = memo[message] = self._finish(0, message)
        return tag

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time comparison of ``tag`` with the expected tag."""
        return len(tag) == MAC_SIZE and hmac.compare_digest(self.tag(message), tag)

    def prefix(self, prefix: bytes = b"") -> "CmacState":
        """Absorb ``prefix`` into a reusable incremental state."""
        return CmacState(self).update(prefix)

    # -- CBC on 128-bit ints --------------------------------------------------

    def _chain(self, state: int, data: bytes, stop: int) -> int:
        """CBC-encrypt the whole blocks of ``data[:stop]`` onto ``state``."""
        encrypt = self._encrypt
        from_bytes = int.from_bytes
        for offset in range(0, stop, BLOCK_SIZE):
            block = state ^ from_bytes(data[offset : offset + BLOCK_SIZE], "big")
            state = from_bytes(encrypt(block.to_bytes(BLOCK_SIZE, "big")), "big")
        return state

    def _finish(self, state: int, last: bytes) -> bytes:
        """The tag: mask the final 0..16 bytes with K1 (a complete block)
        or K2 (padded), then encrypt them onto ``state``."""
        if len(last) == BLOCK_SIZE:
            mask = self._k1
        else:
            last += _PADDING[len(last)]
            mask = self._k2
        block = state ^ mask ^ int.from_bytes(last, "big")
        return self._encrypt(block.to_bytes(BLOCK_SIZE, "big"))


class CmacState:
    """Incremental CMAC state: update with chunks, finalize many times.

    The trailing 1..16 bytes are buffered rather than compressed, since
    OMAC1 masks the *final* block with K1/K2 and which block is final is
    unknown until finalization.  ``tag`` therefore never consumes the
    state: one absorbed prefix can be finalized against any number of
    suffixes, each costing only the suffix's blocks plus one final
    encryption.
    """

    __slots__ = ("_mac", "_state", "_buffer")

    def __init__(self, mac: AesCmac, state: int = 0, buffer: bytes = b""):
        self._mac = mac
        self._state = state
        self._buffer = buffer

    def update(self, data: bytes) -> "CmacState":
        """Absorb ``data``; compresses every block that is certain not
        to be the message's last.  Returns ``self`` for chaining."""
        if not data:
            return self
        buf = self._buffer + data
        last = _last_block_start(len(buf))
        self._state = self._mac._chain(self._state, buf, last)
        self._buffer = buf[last:]
        return self

    def copy(self) -> "CmacState":
        return CmacState(self._mac, self._state, self._buffer)

    def tag(self, suffix: bytes = b"") -> bytes:
        """Tag of everything absorbed so far plus ``suffix``, without
        mutating this state."""
        if suffix:
            return self.copy().update(suffix).tag()
        return self._mac._finish(self._state, self._buffer)

    def verify(self, tag: bytes, suffix: bytes = b"") -> bool:
        return len(tag) == MAC_SIZE and hmac.compare_digest(self.tag(suffix), tag)
