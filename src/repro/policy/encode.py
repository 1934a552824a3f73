"""The encoded policy / encoded call (§3.3-§3.4).

One function builds both: the installer calls it with values derived
from static analysis (producing the *encoded policy* whose MAC becomes
the call MAC), and the kernel calls it with values observed at trap
time (producing the *encoded call*).  The MACs match iff every
constrained property matches.

Layout, concatenated little-endian::

    u16  syscall number
    u32  policy descriptor
    u32  call site address          (when bit 0 set)
    u32  basic block id of the call
    for each constrained parameter, ascending index:
        u32 value                    (immediate)
      or
        u32 address, u32 length, 16B stringMAC   (authenticated string)
    u32  predecessor-set AS address  (when control flow set)
    u32  predecessor-set length
    16B  predecessor-set stringMAC
    u32  lastBlock address           (when control flow set)
    u32  fd-parameter bitmask        (when capability bit set, §5.3)
    u32  allowed-producer-set AS address
    u32  allowed-producer-set length
    16B  allowed-producer-set stringMAC
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from repro.crypto import MAC_SIZE
from repro.policy.descriptor import (
    BIT_CALL_SITE,
    BIT_CAPABILITY,
    BIT_CONTROL_FLOW,
    MAX_PARAMS,
    PARAM_BITS,
    PARAM_TABLE_ENTRIES,
    PolicyDescriptor,
    param_table,
)


@dataclass(frozen=True)
class ParamEncoding:
    """Runtime/installer encoding of one constrained parameter."""

    index: int
    #: int for an immediate; for an AS the (address, length, mac) triple.
    value: Union[int, tuple]

    @classmethod
    def immediate(cls, index: int, value: int) -> "ParamEncoding":
        return cls(index, value & 0xFFFFFFFF)

    @classmethod
    def auth_string(
        cls, index: int, address: int, length: int, mac: bytes
    ) -> "ParamEncoding":
        if len(mac) != MAC_SIZE:
            raise ValueError(f"string MAC must be {MAC_SIZE} bytes")
        return cls(index, (address & 0xFFFFFFFF, length & 0xFFFFFFFF, bytes(mac)))


class EncodeError(ValueError):
    """Raised when the inputs are inconsistent with the descriptor."""


#: The descriptor bits an encoded policy's layout depends on: the call
#: site, control-flow and capability bits and :data:`PARAM_BITS`.
_LAYOUT_BITS = BIT_CALL_SITE | BIT_CONTROL_FLOW | BIT_CAPABILITY | PARAM_BITS
_MASK = 0xFFFFFFFF


@lru_cache(maxsize=PARAM_TABLE_ENTRIES)
def _layout(bits: int) -> struct.Struct:
    """The encoded policy's layout for the descriptor bits ``bits &
    _LAYOUT_BITS``, precompiled: one ``pack`` builds the whole string."""
    fmt = "<HI"
    if bits & BIT_CALL_SITE:
        fmt += "I"
    fmt += "I"
    for _, is_string, _ in param_table(bits & PARAM_BITS):
        fmt += f"II{MAC_SIZE}s" if is_string else "I"
    if bits & BIT_CONTROL_FLOW:
        fmt += f"II{MAC_SIZE}sI"
    if bits & BIT_CAPABILITY:
        fmt += f"III{MAC_SIZE}s"
    return struct.Struct(fmt)


def encode_policy(
    descriptor: PolicyDescriptor,
    syscall_number: int,
    call_site: int,
    block_id: int,
    params: list[ParamEncoding],
    predset: Optional[tuple] = None,  # (address, length, mac)
    lastblock_address: int = 0,
    capability: Optional[tuple] = None,  # (fd_mask, (address, length, mac))
) -> bytes:
    """Build the canonical byte string that the call MAC covers."""
    by_index = {p.index: p for p in params}
    if len(by_index) != len(params):
        raise EncodeError("duplicate parameter encodings")
    bits = int(descriptor)
    table = descriptor.params
    fields = [syscall_number & 0xFFFF, bits]
    if bits & BIT_CALL_SITE:
        fields.append(call_site & _MASK)
    fields.append(block_id & _MASK)
    for index, is_string, _ in table:
        entry = by_index.get(index)
        if entry is None or not isinstance(entry.value, tuple if is_string else int):
            _reject_params(table, by_index)
        if is_string:
            fields += entry.value  # address, length, mac
        else:
            fields.append(entry.value)
    if len(by_index) != len(table):
        _reject_params(table, by_index)

    if bits & BIT_CONTROL_FLOW:
        if predset is None:
            raise EncodeError("control flow constrained but no predecessor set")
        address, length, mac = predset
        fields += (address & _MASK, length & _MASK, mac, lastblock_address & _MASK)
    elif predset is not None:
        raise EncodeError("predecessor set supplied without control flow bit")

    if bits & BIT_CAPABILITY:
        if capability is None:
            raise EncodeError("capability bit set but no capability spec")
        fd_mask, (address, length, mac) = capability
        fields += (fd_mask & _MASK, address & _MASK, length & _MASK, mac)
    elif capability is not None:
        raise EncodeError("capability spec supplied without capability bit")

    return _layout(bits & _LAYOUT_BITS).pack(*fields)


def _reject_params(table: tuple, by_index: dict) -> None:
    """Raise for the lowest-indexed parameter whose encoding does not
    fit the descriptor: encoded but not constrained, missing, or of the
    wrong kind.  Indexes outside ``0..MAX_PARAMS-1`` are ignored, so
    this returns only when every encoding is one of those."""
    kinds = {index: is_string for index, is_string, _ in table}
    for index in range(MAX_PARAMS):
        if index not in kinds:
            if index in by_index:
                raise EncodeError(f"parameter {index} encoded but not constrained")
            continue
        if index not in by_index:
            raise EncodeError(f"constrained parameter {index} missing an encoding")
        value = by_index[index].value
        if kinds[index]:
            if not isinstance(value, tuple):
                raise EncodeError(f"parameter {index} must be an AS triple")
        elif not isinstance(value, int):
            raise EncodeError(f"parameter {index} must be an immediate")


def pack_predecessor_set(block_ids: frozenset[int]) -> bytes:
    """Serialize a predecessor set as the AS content: sorted u32 ids."""
    return b"".join(struct.pack("<I", b) for b in sorted(block_ids))


@lru_cache(maxsize=4096)
def unpack_predecessor_set(content: bytes) -> frozenset[int]:
    """Decode the sorted-u32 AS content back into a block-id set.

    Memoized: the kernel decodes the same immutable predecessor-set
    content on every trap at a control-flow-constrained site, and both
    the key (``bytes``) and the value (``frozenset``) are immutable, so
    caching is observationally pure.
    """
    if len(content) % 4:
        raise EncodeError(f"predecessor set length {len(content)} not a multiple of 4")
    return frozenset(
        struct.unpack_from("<I", content, i)[0] for i in range(0, len(content), 4)
    )
