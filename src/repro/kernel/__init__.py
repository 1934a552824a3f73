"""The simulated operating system kernel.

Stands in for the paper's modified Linux kernel.  The pieces:

- :mod:`repro.kernel.vfs` -- an in-memory Unix-like filesystem with
  directories, permissions, and symlinks (symlinks matter for the §5.4
  filename-normalization discussion).
- :mod:`repro.kernel.syscalls` -- the system call table (80+ calls with
  Linux-flavoured numbers and errno conventions; each row also gives
  the call's arity, argument kinds and fd effect) and its handlers.
- :mod:`repro.kernel.process` -- processes: pid, cwd, fd table, brk,
  and the in-kernel authentication counter (the memory-checker nonce).
- :mod:`repro.kernel.kernel` -- the kernel object and its software
  trap handler.  The paper's entire kernel modification is 248 lines
  added to the trap handler plus a crypto library; our equivalents are
  :mod:`repro.kernel.auth` and :mod:`repro.crypto`.
- :mod:`repro.kernel.costs` -- the deterministic cycle-cost model,
  calibrated so unmodified system calls reproduce Table 4's baseline
  column.
- :mod:`repro.kernel.verifierjit` -- the per-process verification fast
  path: compiled per-site verifier thunks, guarded by region write
  versions (see DESIGN.md "Performance architecture").
- :mod:`repro.kernel.audit` -- the audit log of kills, blocks and
  alerts.  Counters are not kept here: each kernel's one
  :class:`~repro.obs.MetricsRegistry` (``Kernel.metrics``) holds every
  one, fast-path hits and misses included.
"""

from repro.kernel.errors import Errno
from repro.kernel.vfs import Vfs, VfsError
from repro.kernel.costs import CostModel
from repro.kernel.kernel import EnforcementMode, Kernel, RunResult
from repro.kernel.verifierjit import SiteThunk, VerifierJit

__all__ = [
    "CostModel",
    "EnforcementMode",
    "Errno",
    "Kernel",
    "RunResult",
    "SiteThunk",
    "VerifierJit",
    "Vfs",
    "VfsError",
]
