"""Process model: pid, cwd, fd table, brk, and the auth counter."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.kernel.errors import Errno
from repro.kernel.vfs import Inode, VfsError
from repro.policy.capability import CapabilityTable

if TYPE_CHECKING:
    from repro.kernel.verifierjit import VerifierJit

MAX_FDS = 256

#: Where a fresh image's anonymous mmap allocations start.
MMAP_BASE = 0x40000000

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_ACCMODE = 3
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000


@dataclass
class FileDescription:
    """An open file: inode + offset + flags (one entry per fd)."""

    inode: Optional[Inode]  # None for special fds (sockets, std streams)
    flags: int
    offset: int = 0
    path: str = ""
    kind: str = "file"  # "file" | "console" | "socket" | "dir" | "pipe"
    #: Kernel pipe object for kind == "pipe"; endpoint refcounts drive
    #: writer-close EOF and reader-close EPIPE.
    pipe: Optional["Pipe"] = None  # noqa: F821 - sched.pipe, no import cycle
    #: Kernel socket object for kind == "socket"; refcounted like pipe
    #: endpoints so the peer's EOF/EPIPE-analog accounting stays exact
    #: across dup/fork (the POSIX open-file-description model).
    sock: Optional["Socket"] = None  # noqa: F821 - net.socket, no import cycle

    @property
    def readable(self) -> bool:
        return self.flags & O_ACCMODE in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return self.flags & O_ACCMODE in (O_WRONLY, O_RDWR)

    def dup(self) -> "FileDescription":
        """Duplicate for dup/dup2/fcntl(F_DUPFD)/fork, retaining the
        pipe/socket endpoint so EOF/EPIPE accounting stays exact."""
        if self.pipe is not None:
            self.pipe.retain(self.writable)
        if self.sock is not None:
            self.sock.retain()
        return FileDescription(
            inode=self.inode,
            flags=self.flags,
            offset=self.offset,
            path=self.path,
            kind=self.kind,
            pipe=self.pipe,
            sock=self.sock,
        )

    def release(self) -> None:
        """Drop this description's claim on shared kernel objects."""
        if self.pipe is not None:
            self.pipe.release(self.writable)
        if self.sock is not None:
            self.sock.release()


@dataclass
class Process:
    """Kernel-side state for one running program: the one per-process
    record.  Load and fork create it, in-place execve resets its
    per-image fields, and exit tears down its thunk partition, so each
    of them touches this object and nothing keyed by pid."""

    pid: int
    name: str
    cwd: str = "/"
    fds: dict[int, FileDescription] = field(default_factory=dict)
    brk: int = 0
    initial_brk: int = 0
    #: The per-process counter of the §3.2 online memory checker.  It is
    #: kernel-resident — the one piece of policy state an attacker can
    #: never touch — and acts as the replay nonce for lastBlock/lbMAC.
    auth_counter: int = 0
    #: Whether the image was produced by the trusted installer (carries
    #: the "authenticated" metadata marker).
    authenticated: bool = False
    stdout: bytearray = field(default_factory=bytearray)
    stderr: bytearray = field(default_factory=bytearray)
    stdin: bytes = b""
    stdin_offset: int = 0
    #: What the process sent on unconnected sockets (the diagnostic
    #: sink of ``write``/``sendto``); capped like stdout.
    network: bytearray = field(default_factory=bytearray)
    #: Signal dispositions recorded by sigaction (number -> handler addr).
    signal_handlers: dict[int, int] = field(default_factory=dict)
    #: §5.3 capability tracking: live fds per producing call site.
    capabilities: CapabilityTable = field(default_factory=CapabilityTable)
    #: Next anonymous mmap address.
    mmap_cursor: int = MMAP_BASE
    #: Bytes mapped with mmap so far (bounded by ``MAX_MMAP_BYTES``).
    mmap_bytes: int = 0
    #: The compiled per-site verifier thunks of the current image (None
    #: with the fast path off, and after exit).
    jit: Optional["VerifierJit"] = None

    def __post_init__(self) -> None:
        if not self.fds:
            self.fds[0] = FileDescription(None, O_RDONLY, kind="console", path="<stdin>")
            self.fds[1] = FileDescription(None, O_WRONLY, kind="console", path="<stdout>")
            self.fds[2] = FileDescription(None, O_WRONLY, kind="console", path="<stderr>")

    def allocate_fd(self, description: FileDescription) -> int:
        for fd in range(MAX_FDS):
            if fd not in self.fds:
                self.fds[fd] = description
                return fd
        raise VfsError(Errno.EMFILE)

    def fd(self, number: int) -> FileDescription:
        try:
            return self.fds[number]
        except KeyError:
            raise VfsError(Errno.EBADF) from None

    def close_fd(self, number: int) -> None:
        if number not in self.fds:
            raise VfsError(Errno.EBADF)
        self.fds.pop(number).release()
