"""Cryptographic substrate for authenticated system calls.

The paper's prototype links Brian Gladman's combined AES
encryption/authentication library into the kernel and uses the
AES-CBC-OMAC (OMAC1, a.k.a. CMAC) message authentication code, which
produces 128-bit tags.  This package provides the same construction:

- :mod:`repro.crypto.aes` -- the AES-128 block cipher (FIPS-197), three
  ways: a byte-cell reference, a pure-Python T-table cipher, and the
  block of OpenSSL's libcrypto, which CPython already maps for
  :mod:`hashlib`, reached through :mod:`ctypes`.  The libcrypto block is
  the default wherever it gives FIPS-197's known answers, the table
  cipher otherwise; no package outside the standard library is needed.
- :mod:`repro.crypto.cmac` -- OMAC1/CMAC over AES (RFC 4493 compatible).
- :mod:`repro.crypto.fastmac` -- a drop-in HMAC-SHA256-based MAC,
  truncated to 128 bits, that most unit tests use to save host time.
  The fault, conformance and attack batteries and perfbench run on
  AES-CMAC instead, the provider the kernel ships with.  The *simulated
  cycle cost* charged by the kernel is identical for both providers, so
  benchmark tables are unaffected by the choice.
- :mod:`repro.crypto.keyring` -- key generation and the installer/kernel
  key-sharing model (the key is available only to the installer and the
  kernel, never to applications).
"""

from repro.crypto.aes import AES, NativeAES, TableAES
from repro.crypto.cmac import AesCmac, CmacState, MAC_SIZE
from repro.crypto.fastmac import FastMac
from repro.crypto.keyring import Key, KeyRing, MacProvider, mac_provider_for_key

__all__ = [
    "AES",
    "AesCmac",
    "CmacState",
    "FastMac",
    "Key",
    "KeyRing",
    "MAC_SIZE",
    "MacProvider",
    "NativeAES",
    "TableAES",
    "mac_provider_for_key",
]
