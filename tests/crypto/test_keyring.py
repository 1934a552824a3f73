"""The key model: the installer/kernel trust boundary."""

import pytest

from repro.crypto import Key


class TestKey:
    def test_generate_produces_distinct_keys(self):
        assert Key.generate().material != Key.generate().material

    def test_from_passphrase_is_deterministic(self):
        assert Key.from_passphrase("asc").material == Key.from_passphrase("asc").material

    def test_from_passphrase_differs_by_passphrase(self):
        assert Key.from_passphrase("a").material != Key.from_passphrase("b").material

    def test_repr_hides_material(self):
        key = Key.from_passphrase("secret")
        assert key.material.hex() not in repr(key)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Key(material=b"short")
