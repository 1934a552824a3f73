"""The MAC key of the installer/kernel trust model.

The paper's threat model (§3.1): the MAC key is specified at
installation time, is accessible *only* to the trusted installer and to
the kernel, and it is computationally infeasible for an attacker to
forge a tag without it.  Applications carry policies and MACs in plain
text but never the key.  Nothing in :mod:`repro.cpu` or the application
address space can reach a :class:`Key`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

KEY_SIZE = 16


@dataclass(frozen=True)
class Key:
    """An opaque 16-byte AES-CMAC key.

    ``repr`` deliberately omits the material so keys never leak into
    logs or audit records.
    """

    material: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.material) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(self.material)}")

    @classmethod
    def generate(cls) -> "Key":
        return cls(material=os.urandom(KEY_SIZE))

    @classmethod
    def from_passphrase(cls, passphrase: str) -> "Key":
        """Deterministic key derivation for reproducible experiments."""
        digest = hashlib.sha256(passphrase.encode("utf-8")).digest()
        return cls(material=digest[:KEY_SIZE])
