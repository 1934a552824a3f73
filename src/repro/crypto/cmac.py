"""OMAC1 (CMAC) over AES-128.

The paper uses "AES-CBC-OMAC" [Iwata & Kurosawa 2002], which produces a
128-bit message authentication code; OMAC1 was later standardised as
CMAC (RFC 4493, NIST SP 800-38B).  The unit tests check the RFC 4493
vectors, so this implementation is interoperable with any standard CMAC.

There is one CMAC path.  The message's last 0..16 bytes become the
final block (masked with K1 when complete, else padded and masked with
K2; the subkeys are held as 128-bit ints), and the block cipher's chain
entry ``encrypt_chain`` CBC-encrypts the earlier whole blocks and that
final block from the zero IV; its last block is the tag.  On
:class:`NativeAES` that is one ``EVP_EncryptInit_ex`` and one
``EVP_EncryptUpdate`` for the whole message; ``TableAES`` and the
reference cipher loop over the blocks.  A message of at most one block
is a chain of one block from the zero IV, that is one
``encrypt_block``.

Two ways to MAC:

- :meth:`AesCmac.tag` is the one-shot path; it and
  :meth:`AesCmac.verify` are all the installer and the kernel call.  It
  memoizes the tags of single-block messages (see :class:`AesCmac`).
- :class:`CmacState` (via :meth:`AesCmac.prefix`) is the incremental
  API over the same chain entry: absorb a message prefix once, then
  finalize it many times with different suffixes, skipping
  re-encryption of the shared leading blocks.  Nothing under
  :mod:`repro` calls it; it is kept as a tested API for callers that
  MAC many messages sharing a long prefix, and perfbench's traced run
  wraps its methods.
"""

from __future__ import annotations

import hmac
from typing import Optional, Union

from repro.crypto.aes import AES, BLOCK_SIZE, NativeAES, default_cipher

MAC_SIZE = 16

_R128 = 0x87  # the constant for doubling in GF(2^128)

#: ``_PADDING[n]`` completes an ``n``-byte final block: 0x80, then zeros.
_PADDING = tuple(b"\x80" + bytes(BLOCK_SIZE - 1 - n) for n in range(BLOCK_SIZE))

#: The chaining value a message starts from.
_ZERO_BLOCK = bytes(BLOCK_SIZE)


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
        #: The block entry (16 bytes in, 16 bytes out) and the chain
        #: entry (CBC over whole blocks from a chaining value, returning
        #: the last block).
        self._encrypt = aes.encrypt_block
        self._chain = aes.encrypt_chain
        k1 = _dbl(aes.encrypt_block(_ZERO_BLOCK))
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
            return self._chain(_ZERO_BLOCK, message[:last] + self._final(message[last:]))
        memo = self._memo
        tag = memo.get(message)
        if tag is None:
            if len(memo) >= self.MEMO_ENTRIES:
                memo.clear()
            tag = memo[message] = self._encrypt(self._final(message))
        return tag

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time comparison of ``tag`` with the expected tag."""
        return len(tag) == MAC_SIZE and hmac.compare_digest(self.tag(message), tag)

    def prefix(self, prefix: bytes = b"") -> "CmacState":
        """Absorb ``prefix`` into a reusable incremental state."""
        return CmacState(self).update(prefix)

    def _final(self, last: bytes) -> bytes:
        """The final block: the message's last 0..16 bytes masked with
        K1 (a complete block) or padded and masked with K2."""
        if len(last) == BLOCK_SIZE:
            mask = self._k1
        else:
            last += _PADDING[len(last)]
            mask = self._k2
        return (mask ^ int.from_bytes(last, "big")).to_bytes(BLOCK_SIZE, "big")


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

    def __init__(self, mac: AesCmac, state: bytes = _ZERO_BLOCK, buffer: bytes = b""):
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
        if last:
            self._state = self._mac._chain(self._state, buf[:last])
        self._buffer = buf[last:]
        return self

    def copy(self) -> "CmacState":
        return CmacState(self._mac, self._state, self._buffer)

    def tag(self, suffix: bytes = b"") -> bytes:
        """Tag of everything absorbed so far plus ``suffix``, without
        mutating this state."""
        if suffix:
            return self.copy().update(suffix).tag()
        mac = self._mac
        return mac._chain(self._state, mac._final(self._buffer))

    def verify(self, tag: bytes, suffix: bytes = b"") -> bool:
        return len(tag) == MAC_SIZE and hmac.compare_digest(self.tag(suffix), tag)
