"""The authentication record: the ASYS trap ABI.

The installer appends one record per rewritten call site to the
read-only ``.authdata`` section and rewrites the call site to load the
record's address into ``r7`` before trapping.  §3.2's "five additional
arguments" map onto the record fields:

====== ======================= =========================================
offset field                   §3.2 argument
====== ======================= =========================================
0      polDes (u32)            policy descriptor
4      blockID (u32)           basic block of the current call
8      predSetPtr (u32)        predecessor-set authenticated string
12     lbPtr (u32)             pointer to lastBlock + lbMAC policy state
16     callMAC (16 bytes)      the call MAC
====== ======================= =========================================

Extension fields follow when the descriptor enables them (§5): one
pattern-AS pointer per pattern-constrained parameter (ascending index),
then ``fdMask``/``fdAllowedPtr`` for capability tracking.  Proof hints
for patterns are runtime values and travel in ``r8`` instead (a pointer
to ``[count, v0, v1, ...]`` words), since they change per call.

The record lives in attacker-readable, attacker-*writable*-adjacent
memory — its integrity comes entirely from the call MAC, which covers
every field through the encoded policy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto import MAC_SIZE
from repro.cpu.memory import Memory, MemoryFault
from repro.policy.descriptor import MAX_PARAMS, PolicyDescriptor

#: The fixed fields: polDes, blockID, predSetPtr, lbPtr.
RECORD_HEAD = struct.Struct("<IIII")
#: Offsets of the fields the installer relocates and signs.
PREDSET_PTR_OFFSET = 8
LASTBLOCK_PTR_OFFSET = 12
CALL_MAC_OFFSET = RECORD_HEAD.size
CORE_SIZE = CALL_MAC_OFFSET + MAC_SIZE  # fixed fields + call MAC


@dataclass
class AuthRecord:
    descriptor: PolicyDescriptor
    block_id: int
    predset_ptr: int
    lastblock_ptr: int
    call_mac: bytes
    pattern_ptrs: tuple[int, ...] = ()
    fd_mask: int = 0
    fd_allowed_ptr: int = 0

    def pack(self) -> bytes:
        out = RECORD_HEAD.pack(
            int(self.descriptor),
            self.block_id,
            self.predset_ptr,
            self.lastblock_ptr,
        )
        out += self.call_mac
        for ptr in self.pattern_ptrs:
            out += struct.pack("<I", ptr)
        if self.descriptor.capability_tracked:
            out += struct.pack("<II", self.fd_mask, self.fd_allowed_ptr)
        return out

    @property
    def size(self) -> int:
        size = CORE_SIZE + 4 * len(self.pattern_ptrs)
        if self.descriptor.capability_tracked:
            size += 8
        return size

    def pattern_ptr_offset(self, position: int) -> int:
        """Offset of the ``position``-th pattern-AS pointer."""
        return CORE_SIZE + 4 * position

    @property
    def fd_allowed_ptr_offset(self) -> int:
        """Offset of ``fdAllowedPtr`` (capability-tracked records)."""
        return self.pattern_ptr_offset(len(self.pattern_ptrs)) + 4


#: The fixed fields and the call MAC, as one read.
_CORE = struct.Struct(f"<IIII{MAC_SIZE}s")
#: ``_WORDS[n]`` reads ``n`` extension words: one pattern pointer per
#: pattern parameter, then ``fdMask`` and ``fdAllowedPtr``.
_WORDS = tuple(struct.Struct(f"<{n}I") for n in range(MAX_PARAMS + 3))


def read_auth_record(memory: Memory, address: int) -> AuthRecord:
    """Parse the record at ``address`` in guest memory.

    Raises :class:`repro.cpu.memory.MemoryFault` on bad pointers; the
    caller (the trap handler) converts that into a fail-stop."""
    bits, block_id, predset_ptr, lastblock_ptr, call_mac = _CORE.unpack(
        memory.read(address, CORE_SIZE, force=True)
    )
    descriptor = PolicyDescriptor(bits)
    patterns = len(descriptor.pattern_params())
    count = patterns + 2 if descriptor.capability_tracked else patterns
    words = ()
    if count:
        cursor = address + CORE_SIZE
        try:
            words = _WORDS[count].unpack(memory.read(cursor, 4 * count, force=True))
        except MemoryFault:
            # The words run off the record's region: read them one by
            # one, which faults at the first unreadable word, or reads
            # on into an adjacent region.
            words = tuple(
                memory.read_u32(cursor + 4 * i, force=True) for i in range(count)
            )
    fd_mask, fd_allowed_ptr = words[patterns:] or (0, 0)
    return AuthRecord(
        descriptor=descriptor,
        block_id=block_id,
        predset_ptr=predset_ptr,
        lastblock_ptr=lastblock_ptr,
        call_mac=call_mac,
        pattern_ptrs=words[:patterns],
        fd_mask=fd_mask,
        fd_allowed_ptr=fd_allowed_ptr,
    )


#: The policy-state blob in ``.polstate``: lastBlock (u32) + lbMAC.
POLSTATE = struct.Struct(f"<I{MAC_SIZE}s")
POLSTATE_SIZE = POLSTATE.size
#: lastBlock alone: the head of the polstate blob.
LASTBLOCK = struct.Struct("<I")
#: What the memory-checker MAC covers: lastBlock (u32) plus the kernel's
#: per-process counter (u64), the replay nonce.
STATE_PAYLOAD = struct.Struct("<IQ")


def pack_policy_state(last_block: int, lb_mac: bytes) -> bytes:
    return POLSTATE.pack(last_block, lb_mac)


def read_policy_state(memory: Memory, address: int) -> tuple[int, bytes]:
    return POLSTATE.unpack(memory.read(address, POLSTATE_SIZE, force=True))


def state_mac_payload(last_block: int, counter: int) -> bytes:
    """The memory-checker MAC's input (see :data:`STATE_PAYLOAD`)."""
    return STATE_PAYLOAD.pack(last_block & 0xFFFFFFFF, counter & 0xFFFFFFFFFFFFFFFF)
