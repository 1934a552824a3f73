"""Process memory: a sparse set of protected regions.

Regions are mapped with read/write/execute protections derived from the
binary's section flags.  User-mode accesses are permission-checked; the
kernel (and the attack harness, which models memory corruption already
achieved through an application bug) can bypass checks with
``force=True`` — precisely mirroring the paper's threat model, where
the attacker controls application memory but not kernel state.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field

PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4

#: Granularity of the execution engines' code-invalidation indexes
#: (the translation cache's page->blocks map keys addresses by
#: ``address >> PAGE_SHIFT``).  Purely a cache granularity: regions
#: themselves need not be page-aligned.
PAGE_SHIFT = 12


class MemoryFault(Exception):
    """An access violation: unmapped address or protection mismatch."""

    def __init__(self, address: int, kind: str):
        super().__init__(f"memory fault: {kind} at {address:#010x}")
        self.address = address
        self.kind = kind


@dataclass
class Region:
    start: int
    data: bytearray
    prot: int
    name: str = ""
    #: Monotonic write counter.  Every mutation of ``data`` (stores,
    #: forced kernel writes, brk growth) bumps it, which lets callers
    #: memoize *reads* of this region and detect staleness exactly —
    #: the kernel's authenticated-string parse cache, the VM's decode
    #: cache, and the threaded engine's basic-block translation cache
    #: all rely on this.
    version: int = 0
    #: Pre-mutation observers: callables ``(address, size)`` invoked
    #: *before* a canonical write or resize changes ``data``.  The
    #: threaded engine's translation caches register themselves here so
    #: chained/fused code is dropped while the old bytes are still
    #: readable (pre-image invalidation).  A fork-shared region carries
    #: the watchers of every process that compiled code from it, which
    #: is what keeps cross-process invalidation coherent.
    watchers: list = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.start + len(self.data)

    def store(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``: the one canonical write, shared
        by :meth:`Memory.write` and the verifier thunks' polstate
        commit.  The watchers run while the old bytes are still
        readable, then the bytes change and the version is bumped.  The
        caller has already checked bounds and protection."""
        if self.watchers:
            address = self.start + offset
            for watcher in self.watchers:
                watcher(address, len(data))
        self.data[offset : offset + len(data)] = data
        self.version += 1


class Memory:
    """Sparse 32-bit address space."""

    def __init__(self) -> None:
        self._regions: list[Region] = []  # sorted by start
        self._starts: list[int] = []

    # -- mapping -------------------------------------------------------

    def map_region(
        self, start: int, size: int, prot: int, name: str = "", data: bytes = b""
    ) -> Region:
        if size <= 0:
            raise ValueError(f"cannot map empty region {name!r}")
        if len(data) > size:
            raise ValueError(f"region {name!r}: data larger than size")
        end = start + size
        if start < 0 or end > 0x1_0000_0000:
            raise ValueError(f"region {name!r} outside 32-bit address space")
        for region in self._regions:
            if start < region.end and region.start < end:
                raise ValueError(
                    f"region {name!r} [{start:#x},{end:#x}) overlaps "
                    f"{region.name!r} [{region.start:#x},{region.end:#x})"
                )
        body = bytearray(size)
        body[: len(data)] = data
        region = Region(start=start, data=body, prot=prot, name=name)
        index = bisect_right(self._starts, start)
        self._regions.insert(index, region)
        self._starts.insert(index, start)
        return region

    def adopt_region(self, region: Region) -> Region:
        """Insert an existing :class:`Region` *by reference* — fork's
        copy-on-reference sharing for read-only segments.  Parent and
        child address spaces alias the same object; this is sound for
        non-writable regions because guest stores are permission-checked
        and any forced kernel write would bump ``version`` and so
        invalidate both processes' caches coherently."""
        end = region.end
        for existing in self._regions:
            if region.start < existing.end and existing.start < end:
                raise ValueError(
                    f"adopted region {region.name!r} overlaps {existing.name!r}"
                )
        index = bisect_right(self._starts, region.start)
        self._regions.insert(index, region)
        self._starts.insert(index, region.start)
        return region

    def regions(self) -> list[Region]:
        return list(self._regions)

    def region_at(self, address: int) -> Region:
        index = bisect_right(self._starts, address) - 1
        if index >= 0:
            region = self._regions[index]
            if region.start <= address < region.end:
                return region
        raise MemoryFault(address, "unmapped")

    def find_region(self, name: str) -> Region:
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    def protect(self, start: int, prot: int) -> None:
        """Change protection of the region containing ``start``."""
        self.region_at(start).prot = prot

    def grow_region(self, name: str, new_size: int) -> None:
        """Extend a region in place (used by ``brk``)."""
        region = self.find_region(name)
        if region.watchers:
            # Conservative: treat a resize as touching the whole old
            # extent (brk is rare; shrink can truncate cached code).
            for watcher in region.watchers:
                watcher(region.start, len(region.data))
        region.version += 1
        if new_size < len(region.data):
            del region.data[new_size:]
            return
        index = self._starts.index(region.start)
        if index + 1 < len(self._regions):
            limit = self._regions[index + 1].start - region.start
            if new_size > limit:
                raise MemoryFault(region.start + new_size, "brk collision")
        region.data.extend(bytes(new_size - len(region.data)))

    # -- access --------------------------------------------------------

    def _check(self, region: Region, prot: int, address: int) -> None:
        if region.prot & prot != prot:
            kinds = {PROT_READ: "read", PROT_WRITE: "write", PROT_EXEC: "exec"}
            raise MemoryFault(address, f"protection ({kinds.get(prot, prot)})")

    def read(self, address: int, size: int, force: bool = False) -> bytes:
        region = self.region_at(address)
        if address + size > region.end:
            raise MemoryFault(region.end, "unmapped")
        if not force:
            self._check(region, PROT_READ, address)
        offset = address - region.start
        return bytes(region.data[offset : offset + size])

    def write(self, address: int, data: bytes, force: bool = False) -> None:
        region = self.region_at(address)
        if address + len(data) > region.end:
            raise MemoryFault(region.end, "unmapped")
        if not force:
            self._check(region, PROT_WRITE, address)
        region.store(address - region.start, data)

    def flip_bit(self, address: int, bit: int, force: bool = False) -> None:
        """Flip one bit of the byte at ``address`` (the fault-injection
        battery's single-event-upset model).  Routed through ``write``
        so region watchers and the write-version counter fire exactly
        as they would for any other store — a flipped bit must never be
        able to sneak past the caches' staleness guards."""
        value = self.read(address, 1, force)[0]
        self.write(address, bytes([value ^ (1 << (bit & 7))]), force)

    def read_u32(self, address: int, force: bool = False) -> int:
        return struct.unpack("<I", self.read(address, 4, force))[0]

    def write_u32(self, address: int, value: int, force: bool = False) -> None:
        self.write(address, struct.pack("<I", value & 0xFFFFFFFF), force)

    def read_u8(self, address: int, force: bool = False) -> int:
        return self.read(address, 1, force)[0]

    def write_u8(self, address: int, value: int, force: bool = False) -> None:
        self.write(address, bytes([value & 0xFF]), force)

    def read_cstring(self, address: int, max_len: int = 4096, force: bool = False) -> bytes:
        """Read a NUL-terminated string; raises MemoryFault if it runs
        off the end of mapped memory or exceeds ``max_len``."""
        out = bytearray()
        cursor = address
        while len(out) < max_len:
            byte = self.read(cursor, 1, force)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        raise MemoryFault(address, f"unterminated string (>{max_len} bytes)")

    def executable(self, address: int) -> bool:
        try:
            region = self.region_at(address)
        except MemoryFault:
            return False
        return bool(region.prot & PROT_EXEC)
