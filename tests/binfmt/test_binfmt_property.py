"""Property tests over the binary container: serialization fidelity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binfmt import BinaryFormatError, Relocation, SefBinary
from repro.binfmt.symbols import BIND_GLOBAL, BIND_LOCAL

_NAME = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127),
    min_size=1,
    max_size=12,
)


@st.composite
def binaries(draw):
    binary = SefBinary()
    text = binary.get_or_create_section(".text")
    n_insns = draw(st.integers(min_value=1, max_value=8))
    text.append(bytes(8 * n_insns))
    binary.define_symbol("_start", ".text", 0, BIND_GLOBAL)

    data = binary.get_or_create_section(".data")
    blob = draw(st.binary(max_size=64))
    data.append(blob)

    names = draw(st.lists(_NAME, max_size=4, unique=True))
    for index, name in enumerate(names):
        if name == "_start":
            continue
        section = draw(st.sampled_from([".text", ".data"]))
        limit = binary.sections[section].size
        offset = draw(st.integers(min_value=0, max_value=max(0, limit)))
        binding = draw(st.sampled_from([BIND_LOCAL, BIND_GLOBAL]))
        binary.define_symbol(name, section, offset, binding)

    symbols = list(binary.symbols)
    n_relocs = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_relocs):
        target = draw(st.sampled_from(symbols))
        offset = draw(st.integers(min_value=0, max_value=8 * n_insns - 4))
        addend = draw(st.integers(min_value=-128, max_value=128))
        binary.add_relocation(Relocation(".text", offset, target, addend))

    metadata_keys = draw(st.lists(_NAME, max_size=3, unique=True))
    for key in metadata_keys:
        binary.metadata[key] = draw(_NAME)
    return binary


class TestSerializationProperties:
    @settings(max_examples=60, deadline=None)
    @given(binary=binaries())
    def test_round_trip_identity(self, binary):
        blob = binary.to_bytes()
        restored = SefBinary.from_bytes(blob)
        assert restored.to_bytes() == blob

    @settings(max_examples=60, deadline=None)
    @given(binary=binaries())
    def test_round_trip_preserves_structure(self, binary):
        restored = SefBinary.from_bytes(binary.to_bytes())
        assert restored.entry == binary.entry
        assert set(restored.sections) == set(binary.sections)
        assert restored.symbols == binary.symbols
        assert restored.relocations == binary.relocations
        assert restored.metadata == binary.metadata

    @settings(max_examples=40, deadline=None)
    @given(binary=binaries())
    def test_linking_is_deterministic(self, binary):
        from repro.binfmt import link

        first = link(binary)
        second = link(binary)
        assert first.symbol_addresses == second.symbol_addresses
        assert [s.data for s in first.segments] == [s.data for s in second.segments]


class TestMalformedBytes:
    """Hostile SEF bytes must surface only as :class:`BinaryFormatError`
    (the kernel maps exactly that error to ``EACCES``)."""

    @settings(max_examples=200, deadline=None)
    @given(
        binary=binaries(),
        edits=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_mutated_bytes_raise_only_format_errors(self, binary, edits):
        blob = bytearray(binary.to_bytes())
        for position, value in edits:
            blob[position % len(blob)] = value
        try:
            SefBinary.from_bytes(bytes(blob))
        except BinaryFormatError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(binary=binaries(), cut=st.integers(min_value=0))
    def test_truncated_bytes_raise_only_format_errors(self, binary, cut):
        blob = binary.to_bytes()
        with pytest.raises(BinaryFormatError):
            SefBinary.from_bytes(blob[: cut % len(blob)])
