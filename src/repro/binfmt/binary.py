"""The SEF container: sections + symbols + relocations + metadata.

Serialization uses a simple length-prefixed binary layout (magic
``SEF1``).  Metadata is a small string-to-string map used to carry the
program name, OS personality, installer program id, and the
``authenticated`` marker that the kernel checks before admitting a
process (unauthenticated binaries may run only when the kernel's
enforcement mode allows them).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.binfmt.sections import Section
from repro.binfmt.symbols import BIND_GLOBAL, BIND_LOCAL, Relocation, Symbol

MAGIC = b"SEF1"


class BinaryFormatError(ValueError):
    """Raised on malformed SEF bytes or inconsistent binary contents."""


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(data: bytes, offset: int) -> tuple[str, int]:
    if offset + 2 > len(data):
        raise BinaryFormatError("truncated string header")
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    if offset + length > len(data):
        raise BinaryFormatError("truncated string body")
    return data[offset : offset + length].decode("utf-8"), offset + length


@dataclass
class SefBinary:
    """An in-memory SEF object, relocatable until linked."""

    entry: str = "_start"
    sections: dict[str, Section] = field(default_factory=dict)
    symbols: dict[str, Symbol] = field(default_factory=dict)
    relocations: list[Relocation] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    # -- construction helpers -----------------------------------------

    def add_section(self, section: Section) -> Section:
        if section.name in self.sections:
            raise BinaryFormatError(f"duplicate section {section.name!r}")
        self.sections[section.name] = section
        return section

    def section(self, name: str) -> Section:
        try:
            return self.sections[name]
        except KeyError:
            raise BinaryFormatError(f"no section {name!r}") from None

    def get_or_create_section(self, name: str, **kwargs) -> Section:
        if name in self.sections:
            return self.sections[name]
        return self.add_section(Section.named(name, **kwargs))

    def define_symbol(
        self,
        name: str,
        section: str,
        offset: int,
        binding: str = BIND_LOCAL,
    ) -> Symbol:
        if name in self.symbols:
            raise BinaryFormatError(f"duplicate symbol {name!r}")
        if section not in self.sections:
            raise BinaryFormatError(f"symbol {name!r} in unknown section {section!r}")
        symbol = Symbol(name, section, offset, binding)
        self.symbols[name] = symbol
        return symbol

    def add_relocation(self, relocation: Relocation) -> None:
        if relocation.section not in self.sections:
            raise BinaryFormatError(
                f"relocation against unknown section {relocation.section!r}"
            )
        self.relocations.append(relocation)

    def relocations_for(self, section: str) -> dict[int, Relocation]:
        """Relocations of one section indexed by offset."""
        return {r.offset: r for r in self.relocations if r.section == section}

    def validate(self) -> None:
        """Check internal consistency; raises :class:`BinaryFormatError`."""
        if self.entry not in self.symbols:
            raise BinaryFormatError(f"entry symbol {self.entry!r} undefined")
        for symbol in self.symbols.values():
            section = self.section(symbol.section)
            if symbol.offset > section.size:
                raise BinaryFormatError(
                    f"symbol {symbol.name!r} offset {symbol.offset} outside "
                    f"section {section.name!r} (size {section.size})"
                )
        for reloc in self.relocations:
            if reloc.symbol not in self.symbols:
                raise BinaryFormatError(
                    f"relocation references undefined symbol {reloc.symbol!r}"
                )
            section = self.section(reloc.section)
            if section.nobits:
                raise BinaryFormatError(
                    f"relocation in nobits section {section.name!r}"
                )
            if reloc.offset + 4 > section.size:
                raise BinaryFormatError(
                    f"relocation at {reloc.section}+{reloc.offset} outside section"
                )

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        self.validate()
        out = bytearray()
        out += MAGIC
        out += _pack_str(self.entry)
        out += struct.pack("<H", len(self.metadata))
        for key in sorted(self.metadata):
            out += _pack_str(key)
            out += _pack_str(self.metadata[key])
        out += struct.pack("<H", len(self.sections))
        for section in self.sections.values():
            out += _pack_str(section.name)
            out += struct.pack(
                "<BBII",
                section.flags,
                1 if section.nobits else 0,
                section.reserve,
                len(section.data),
            )
            out += struct.pack("<H", section.align)
            out += bytes(section.data)
        out += struct.pack("<I", len(self.symbols))
        for symbol in self.symbols.values():
            out += _pack_str(symbol.name)
            out += _pack_str(symbol.section)
            out += struct.pack("<IB", symbol.offset, 1 if symbol.binding == BIND_GLOBAL else 0)
        out += struct.pack("<I", len(self.relocations))
        for reloc in self.relocations:
            out += _pack_str(reloc.section)
            out += _pack_str(reloc.symbol)
            out += struct.pack("<Ii", reloc.offset, reloc.addend)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SefBinary":
        """Parse SEF bytes.  Malformed input of any kind — truncated
        fields, bad UTF-8, inconsistent sections or symbols — raises
        :class:`BinaryFormatError`, never another exception type."""
        try:
            return cls._parse(data)
        except BinaryFormatError:
            raise
        except (struct.error, ValueError) as err:  # UnicodeDecodeError too
            raise BinaryFormatError(f"malformed SEF binary: {err}") from err

    @classmethod
    def _parse(cls, data: bytes) -> "SefBinary":
        if data[:4] != MAGIC:
            raise BinaryFormatError("bad magic: not a SEF binary")
        offset = 4
        entry, offset = _unpack_str(data, offset)
        binary = cls(entry=entry)
        (n_meta,) = struct.unpack_from("<H", data, offset)
        offset += 2
        for _ in range(n_meta):
            key, offset = _unpack_str(data, offset)
            value, offset = _unpack_str(data, offset)
            binary.metadata[key] = value
        (n_sections,) = struct.unpack_from("<H", data, offset)
        offset += 2
        for _ in range(n_sections):
            name, offset = _unpack_str(data, offset)
            flags, nobits, reserve, data_len = struct.unpack_from("<BBII", data, offset)
            offset += 10
            (align,) = struct.unpack_from("<H", data, offset)
            offset += 2
            body = bytearray(data[offset : offset + data_len])
            offset += data_len
            binary.add_section(
                Section(
                    name=name,
                    flags=flags,
                    data=body,
                    nobits=bool(nobits),
                    reserve=reserve,
                    align=align,
                )
            )
        (n_symbols,) = struct.unpack_from("<I", data, offset)
        offset += 4
        for _ in range(n_symbols):
            name, offset = _unpack_str(data, offset)
            section, offset = _unpack_str(data, offset)
            sym_offset, binding = struct.unpack_from("<IB", data, offset)
            offset += 5
            binary.define_symbol(
                name,
                section,
                sym_offset,
                BIND_GLOBAL if binding else BIND_LOCAL,
            )
        (n_relocs,) = struct.unpack_from("<I", data, offset)
        offset += 4
        for _ in range(n_relocs):
            section, offset = _unpack_str(data, offset)
            symbol, offset = _unpack_str(data, offset)
            rel_offset, addend = struct.unpack_from("<Ii", data, offset)
            offset += 8
            binary.relocations.append(
                Relocation(section=section, offset=rel_offset, symbol=symbol, addend=addend)
            )
        binary.validate()
        return binary
