"""repro: Authenticated System Calls, reproduced.

A from-scratch reproduction of *"System Call Monitoring Using
Authenticated System Calls"* (Rajagopalan, Hiltunen, Jim, Schlichting;
DSN 2005 / IEEE TDSC 2006) on a fully simulated substrate: the SVM32
ISA and VM, a relocatable binary format, a PLTO-style binary rewriting
toolkit, a Unix-like kernel with an in-memory VFS, and AES-CMAC.

Quickstart::

    from repro import Key, Kernel, assemble, install

    key = Key.generate()
    binary = assemble(my_program_source, metadata={"program": "demo"})
    installed = install(binary, key)          # the trusted installer
    kernel = Kernel(key=key)                  # the same machine key
    result = kernel.run(installed.binary)     # every call is checked
    assert not result.killed

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table.
"""

from repro.asm import AsmBuilder, assemble
from repro.binfmt import SefBinary, link
from repro.crypto import AesCmac, Key
from repro.installer import InstalledProgram, InstallerOptions, install
from repro.kernel import CostModel, EnforcementMode, Kernel, RunResult, Vfs
from repro.policy import MetaPolicy, Pattern, PolicyDescriptor, ProgramPolicy

__version__ = "1.0.0"

__all__ = [
    "AesCmac",
    "AsmBuilder",
    "CostModel",
    "EnforcementMode",
    "InstalledProgram",
    "InstallerOptions",
    "Kernel",
    "Key",
    "MetaPolicy",
    "Pattern",
    "PolicyDescriptor",
    "ProgramPolicy",
    "RunResult",
    "SefBinary",
    "Vfs",
    "assemble",
    "install",
    "link",
    "__version__",
]
