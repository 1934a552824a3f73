"""Linking: turn a relocatable SEF binary into a loadable memory image.

The linker assigns each allocatable section a virtual address (sections
are laid out in a fixed order starting at the load base, each aligned to
a page) and then applies every relocation by patching absolute 32-bit
addresses into the section bytes.  The result — a
:class:`LoadedImage` — is what the simulated kernel's ``execve`` maps
into a fresh address space.

The image records the final address of every symbol.  The installer
relies on this to compute policy contents (call sites, authenticated
string addresses, the ``lastBlock`` address) and re-links after
rewriting, because SVM32 policies — like the paper's — embed absolute
addresses and therefore fix the load layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.binfmt.binary import BinaryFormatError, SefBinary

DEFAULT_BASE = 0x08048000
PAGE_SIZE = 0x1000

#: The guest stack the VM maps below ``STACK_TOP``.  A linked image and
#: the one-page heap the kernel maps after it must end below it.
STACK_TOP = 0x0C000000
STACK_SIZE = 0x40000
STACK_BOTTOM = STACK_TOP - STACK_SIZE

#: Layout order; unknown sections are appended alphabetically after these.
_SECTION_ORDER = [
    ".text",
    ".rodata",
    ".data",
    ".authstr",
    ".authdata",
    ".polstate",
    ".bss",
]


def _page_align(address: int) -> int:
    return (address + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


@dataclass
class LoadedSegment:
    """One mapped section: final address, bytes, and protection flags."""

    name: str
    vaddr: int
    data: bytes
    flags: int
    size: int  # may exceed len(data) for nobits sections


@dataclass
class LoadedImage:
    """A fully linked, position-dependent program image."""

    entry: int
    segments: list[LoadedSegment]
    symbol_addresses: dict[str, int]
    metadata: dict[str, str] = field(default_factory=dict)
    base: int = DEFAULT_BASE

    @property
    def end(self) -> int:
        """One past the highest mapped address (initial program break)."""
        return max(seg.vaddr + seg.size for seg in self.segments)

    def segment(self, name: str) -> LoadedSegment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment {name!r} in image")

    def address_of(self, symbol: str) -> int:
        try:
            return self.symbol_addresses[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not present in image") from None


def assign_addresses(binary: SefBinary, base: int = DEFAULT_BASE) -> dict[str, int]:
    """Compute the virtual base address of each section."""
    ordered = [name for name in _SECTION_ORDER if name in binary.sections]
    ordered += sorted(set(binary.sections) - set(ordered))
    addresses: dict[str, int] = {}
    cursor = base
    for name in ordered:
        section = binary.sections[name]
        cursor = _page_align(cursor)
        if section.align > 1:
            cursor = (cursor + section.align - 1) & ~(section.align - 1)
        addresses[name] = cursor
        cursor += section.size
    return addresses


def link(binary: SefBinary, base: int = DEFAULT_BASE) -> LoadedImage:
    """Assign addresses, apply relocations, and produce a LoadedImage.

    An image that could not be mapped is a format error here, before
    anything is allocated: a section alignment that is not a power of
    two (sections would overlap), or an extent that reaches the stack."""
    binary.validate()
    for section in binary.sections.values():
        if section.align & (section.align - 1):
            raise BinaryFormatError(
                f"section {section.name!r} alignment {section.align} is not a power of 2"
            )
    section_bases = assign_addresses(binary, base)
    end = max(
        (section_bases[name] + section.size for name, section in binary.sections.items()),
        default=base,
    )
    if _page_align(end) + PAGE_SIZE > STACK_BOTTOM:
        raise BinaryFormatError(
            f"image extent {end:#x} reaches the stack at {STACK_BOTTOM:#x}"
        )

    symbol_addresses = {
        name: section_bases[sym.section] + sym.offset
        for name, sym in binary.symbols.items()
    }

    patched: dict[str, bytearray] = {
        name: bytearray(section.data) for name, section in binary.sections.items()
    }
    for reloc in binary.relocations:
        target = symbol_addresses[reloc.symbol] + reloc.addend
        if not 0 <= target <= 0xFFFFFFFF:
            raise BinaryFormatError(
                f"relocated address out of range for {reloc.symbol!r}: {target:#x}"
            )
        body = patched[reloc.section]
        body[reloc.offset : reloc.offset + 4] = target.to_bytes(4, "little")

    segments = [
        LoadedSegment(
            name=name,
            vaddr=section_bases[name],
            data=bytes(patched[name]),
            flags=section.flags,
            size=section.size,
        )
        for name, section in binary.sections.items()
    ]
    segments.sort(key=lambda seg: seg.vaddr)

    return LoadedImage(
        entry=symbol_addresses[binary.entry],
        segments=segments,
        symbol_addresses=symbol_addresses,
        metadata=dict(binary.metadata),
        base=base,
    )
