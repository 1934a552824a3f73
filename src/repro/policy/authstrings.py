"""Authenticated strings (§3.2).

An AS is the tuple ``{length, MAC, string}`` stored in the read-only
``.authstr`` section: a 4-byte length, a 128-bit MAC over the string
contents, then the contents themselves.  The pointer actually passed to
the kernel (and seen by the ordinary syscall handler) is the address of
``string`` *inside* the AS, so the 20 bytes preceding it hold the
header.  That layout lets the kernel fetch ``length``/``MAC`` from a
fixed negative offset and bound its own work before touching the
string — defeating the "replace a short string with a very long one"
denial-of-service the paper warns about.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto import MAC_SIZE, MacProvider
from repro.cpu.memory import Memory, MemoryFault

AS_HEADER_SIZE = 4 + MAC_SIZE  # length + MAC

#: Upper bound the kernel enforces on AS lengths: even with a forged
#: header it will never scan more than this many bytes.
MAX_AS_LENGTH = 1 << 16


@dataclass(frozen=True)
class AuthenticatedString:
    """A parsed AS: the header fields plus the claimed contents."""

    length: int
    mac: bytes
    content: bytes

    def verify(self, provider: MacProvider) -> bool:
        return len(self.content) == self.length and provider.verify(
            self.content, self.mac
        )


def build_authenticated_string(content: bytes, provider: MacProvider) -> bytes:
    """Serialize an AS record (header + content + NUL).

    The trailing NUL is not part of the authenticated length; it exists
    so the embedded pointer still works as a C string for the ordinary
    syscall path."""
    if len(content) > MAX_AS_LENGTH:
        raise ValueError(f"string too long for an AS: {len(content)} bytes")
    header = struct.pack("<I", len(content)) + provider.tag(content)
    return header + content + b"\x00"


def read_authenticated_string(
    memory: Memory, string_address: int
) -> AuthenticatedString:
    """Parse the AS whose *content* starts at ``string_address``.

    Raises :class:`MemoryFault` on unmapped headers and refuses
    absurd lengths so a corrupted header cannot stall the kernel."""
    header = memory.read(string_address - AS_HEADER_SIZE, AS_HEADER_SIZE, force=True)
    (length,) = struct.unpack_from("<I", header, 0)
    mac = header[4:]
    if length > MAX_AS_LENGTH:
        raise MemoryFault(string_address, f"AS length {length} exceeds cap")
    content = memory.read(string_address, length, force=True)
    return AuthenticatedString(length=length, mac=mac, content=content)

