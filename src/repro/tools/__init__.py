"""Command-line tools: the administrator-facing surface.

``python -m repro.tools <command>`` exposes the workflow the paper's
security administrator would run:

- ``assemble``  — SVM32 assembly source -> relocatable ``.sef`` binary
- ``install``   — run the trusted installer over a ``.sef`` binary
- ``objdump``   — disassemble a binary (symbolic listing)
- ``policy``    — print the generated policies for a binary
- ``run``       — execute a binary under the checking kernel
- ``attacks``   — run the §4.1/§5.5 attack battery

Keys are derived from a passphrase (``--key``) so the installer and the
kernel invocation can share one.
"""

from repro.tools.cli import main

__all__ = ["main"]
