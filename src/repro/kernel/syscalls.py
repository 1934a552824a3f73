"""The system call table and implementations.

Numbers follow the Linux i386 table where a call exists there; the
handful of OpenBSD-flavoured calls the paper's Table 2 mentions
(``__syscall``, ``getdirentries``, ``fstatfs``, ``sysconf``) get stable
numbers of our own.  All calls use the Linux ABI convention: the result
is a non-negative value on success and ``-errno`` on failure.

:data:`SYSCALLS` is the one description of that ABI: each call's
number, arity, output, fd and string arguments, and fd effect.  The
installer's argument classification (§4.1, Table 3), its fd dataflow
and the kernel's capability table (§5.3), and Systrace's path calls
all read it.

Handlers receive a :class:`SyscallContext` and are responsible for
reading pointer arguments out of guest memory (raising ``EFAULT`` on
bad pointers, as a real kernel's ``copy_from_user`` would).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.cpu.memory import MemoryFault
from repro.cpu.vm import VM, ProcessExit
from repro.kernel.costs import CYCLES_PER_SECOND
from repro.kernel.errors import Errno
from repro.kernel.process import (
    O_ACCMODE,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_TRUNC,
    FileDescription,
    Process,
)
from repro.kernel.net import (
    AF_INET,
    AF_UNIX,
    SHUT_RD,
    SHUT_RDWR,
    SHUT_WR,
    SOCK_DGRAM,
    SOCK_STREAM,
    SendOnShutdown,
)
from repro.kernel.sched.blocking import WouldBlock
from repro.kernel.sched.pipe import BrokenPipe, Pipe
from repro.kernel.vfs import VfsError

class FdEffect(Enum):
    """What a call does to the fds a process holds (§5.3)."""

    #: r0 is a new fd: the installer follows it from the producing site
    #: to the sites that use it, and the kernel grants it to that site.
    NEW_FD = "new-fd"
    #: The call revokes its fd argument (arg 0).
    REVOKES = "revokes"


@dataclass(frozen=True)
class SyscallSpec:
    """One call of the simulated OS's ABI: one row of :data:`SYSCALLS`."""

    name: str
    number: int
    #: Argument count (r1..r6).
    nargs: int
    #: Output-only argument indices: the kernel writes through the
    #: pointer (Table 3's ``o/p`` column; never constrained).
    outputs: frozenset = frozenset()
    #: Arguments that are file descriptors returned by earlier calls
    #: (§5.3 capability-tracking candidates).
    fd_args: frozenset = frozenset()
    #: Arguments that are NUL-terminated string/path pointers (AS
    #: candidates).
    string_args: frozenset = frozenset()
    fd_effect: Optional[FdEffect] = None


def _call(name, number, nargs, out=(), fd=(), string=(), effect=None) -> SyscallSpec:
    return SyscallSpec(
        name, number, nargs, frozenset(out), frozenset(fd), frozenset(string), effect
    )


#: The syscall table of the simulated OS, one row per call: name,
#: number, arity, output args, fd args, string args and fd effect.
#: ``pipe`` has no fd effect: its r0 is 0, and its two fds come back
#: through memory, which neither the installer's dataflow nor the
#: kernel's capability table follows.
SYSCALLS: dict[str, SyscallSpec] = {
    spec.name: spec
    for spec in (
        _call("exit", 1, 1),
        _call("fork", 2, 0),
        _call("read", 3, 3, out=(1,), fd=(0,)),
        _call("write", 4, 3, fd=(0,)),
        _call("open", 5, 3, string=(0,), effect=FdEffect.NEW_FD),
        _call("close", 6, 1, fd=(0,), effect=FdEffect.REVOKES),
        _call("unlink", 10, 1, string=(0,)),
        _call("execve", 11, 3, string=(0,)),
        _call("chdir", 12, 1, string=(0,)),
        _call("time", 13, 1, out=(0,)),
        _call("chmod", 15, 2, string=(0,)),
        _call("lseek", 19, 3, fd=(0,)),
        _call("getpid", 20, 0),
        _call("getuid", 24, 0),
        _call("access", 33, 2, string=(0,)),
        _call("kill", 37, 2),
        _call("rename", 38, 2, string=(0, 1)),
        _call("mkdir", 39, 2, string=(0,)),
        _call("rmdir", 40, 1, string=(0,)),
        _call("dup", 41, 1, fd=(0,), effect=FdEffect.NEW_FD),
        _call("pipe", 42, 1, out=(0,)),
        _call("brk", 45, 1),
        _call("geteuid", 49, 0),
        _call("ioctl", 54, 3, fd=(0,)),
        _call("fcntl", 55, 3, fd=(0,)),
        _call("umask", 60, 1),
        _call("dup2", 63, 2, fd=(0, 1), effect=FdEffect.NEW_FD),
        _call("getppid", 64, 0),
        _call("sigaction", 67, 3, out=(2,)),
        _call("gettimeofday", 78, 2, out=(0, 1)),
        _call("symlink", 83, 2, string=(0, 1)),
        _call("readlink", 85, 3, out=(1,), string=(0,)),
        _call("mmap", 90, 6, fd=(4,)),
        _call("munmap", 91, 2),
        _call("socket", 97, 3, effect=FdEffect.NEW_FD),
        _call("fstatfs", 100, 2, out=(1,), fd=(0,)),
        _call("stat", 106, 2, out=(1,), string=(0,)),
        _call("fstat", 108, 2, out=(1,), fd=(0,)),
        _call("uname", 122, 1, out=(0,)),
        _call("sendto", 133, 6, fd=(0,)),
        _call("writev", 146, 3, fd=(0,)),
        _call("nanosleep", 162, 2, out=(1,)),
        _call("getdirentries", 196, 4, out=(1, 3), fd=(0,)),
        # The OpenBSD indirect syscall: arg 0 is the real number; the
        # rest are opaque (they belong to the inner call).
        _call("__syscall", 198, 6),
        _call("sysconf", 199, 1),
        _call("madvise", 219, 3),
        # Additional common Unix calls (simple semantics, present so
        # that large program profiles — screen needs 67 distinct calls
        # — have a realistic namespace to draw from).
        _call("link", 9, 2, string=(0, 1)),
        _call("alarm", 27, 1),
        _call("utime", 30, 2, string=(0,)),
        _call("sync", 36, 0),
        _call("times", 43, 1, out=(0,)),
        _call("getgid", 47, 0),
        _call("getegid", 50, 0),
        _call("setuid", 23, 1),
        _call("setgid", 46, 1),
        _call("getpgrp", 65, 0),
        _call("setsid", 66, 0),
        _call("sigprocmask", 126, 3, out=(2,)),
        _call("getrlimit", 76, 2, out=(1,)),
        _call("setrlimit", 75, 2),
        _call("getrusage", 77, 2, out=(1,)),
        _call("truncate", 92, 2, string=(0,)),
        _call("ftruncate", 93, 2, fd=(0,)),
        _call("fchmod", 94, 2, fd=(0,)),
        _call("fchown", 95, 3, fd=(0,)),
        _call("chown", 182, 3, string=(0,)),
        _call("getcwd", 183, 2, out=(0,)),
        _call("fchdir", 300, 1, fd=(0,)),
        _call("flock", 143, 2, fd=(0,)),
        _call("fsync", 118, 1, fd=(0,)),
        _call("select", 142, 5, out=(1, 2, 3)),
        _call("poll", 168, 3, out=(0,)),
        _call("mprotect", 125, 3),
        _call("getpriority", 96, 2),
        _call("setpriority", 98, 3),
        _call("statfs", 99, 2, out=(1,), string=(0,)),
        _call("getgroups", 80, 2, out=(1,)),
        _call("sched_yield", 158, 0),
        _call("wait4", 114, 4, out=(1, 3)),
        _call("mlock", 150, 2),
        _call("munlock", 151, 2),
        _call("readv", 145, 3, out=(1,), fd=(0,)),
        _call("spawn", 400, 2, string=(0,)),
        # Loopback networking (kernel/net/).  Stable numbers of our own
        # in the 4xx space: the Linux i386 table multiplexes these
        # behind socketcall(102), which the paper's per-site policies
        # could not distinguish — separate numbers give each call its
        # own policy row.  Addresses are NUL-terminated strings, so a
        # constant bind/connect target is an authenticated string
        # parameter: the name a server listens on (and the name a
        # client dials) is part of the signed per-site policy.
        _call("bind", 401, 3, fd=(0,), string=(1,)),
        _call("listen", 402, 2, fd=(0,)),
        _call("accept", 403, 3, out=(1, 2), fd=(0,), effect=FdEffect.NEW_FD),
        _call("connect", 404, 3, fd=(0,), string=(1,)),
        _call("send", 405, 4, fd=(0,)),
        _call("recv", 406, 4, out=(1,), fd=(0,)),
        _call("recvfrom", 407, 6, out=(1, 4, 5), fd=(0,)),
        _call("shutdown", 408, 2, fd=(0,)),
    )
}

SYSCALL_NUMBERS: dict[str, int] = {name: spec.number for name, spec in SYSCALLS.items()}
SYSCALL_NAMES: dict[int, str] = {spec.number: name for name, spec in SYSCALLS.items()}
assert len(SYSCALL_NAMES) == len(SYSCALLS), "duplicate syscall numbers"


def syscall_spec(number: int) -> SyscallSpec:
    """The table row for ``number``; a number the table lacks reads as
    a call of six opaque arguments."""
    name = SYSCALL_NAMES.get(number)
    if name is None:
        return SyscallSpec(f"syscall#{number}", number, 6)
    return SYSCALLS[name]

SEEK_SET, SEEK_CUR, SEEK_END = 0, 1, 2
F_DUPFD, F_GETFL, F_SETFL = 0, 3, 4

MAX_RW = 1 << 20  # single-call transfer cap, a sanity bound
#: Largest regular file a guest write, truncate or ftruncate may leave
#: behind; one that would end past it fails with EFBIG and changes
#: nothing, so one trap cannot make the host allocate gigabytes.  The
#: largest file the tests, batteries and full-scale benchmarks write
#: is 262,906 bytes, so 16 MiB leaves them 64x headroom.  The output
#: the kernel holds for a process (console stdout and stderr, the
#: unconnected-socket sink) is capped the same way, per buffer.
MAX_FILE_SIZE = 1 << 24
#: Most bytes one process may map with ``mmap`` (page-rounded sizes,
#: summed since its image was loaded, inherited across fork).
#: ``munmap`` frees nothing, so nothing is credited back; a call that
#: would pass the cap fails with ENOMEM and changes nothing.  The
#: largest total any test, battery or benchmark maps is 8 KiB, so
#: 16 MiB leaves them 2048x headroom.
MAX_MMAP_BYTES = 1 << 24
PAGE = 0x1000


class SyscallContext:
    """Everything a handler needs, bundled.  Every dispatch builds one,
    blocked-dispatch retries included, so it is a slotted class the
    kernel constructs positionally."""

    __slots__ = ("kernel", "process", "vm", "name", "args", "transferred", "retry")

    def __init__(
        self,
        kernel: "Kernel",  # noqa: F821 - forward ref, avoids an import cycle
        process: Process,
        vm: VM,
        name: str,
        args: tuple[int, ...],
        retry: bool = False,
    ):
        self.kernel = kernel
        self.process = process
        self.vm = vm
        self.name = name
        self.args = args
        #: Bytes moved for per-byte cost accounting (read/write family).
        self.transferred = 0
        #: True when the scheduler is re-running a dispatch that
        #: blocked; handlers with once-only side effects (yield,
        #: tracing) key on it.
        self.retry = retry

    # -- guest memory helpers -------------------------------------------

    def read_string(self, address: int, max_len: int = 4096) -> bytes:
        try:
            return self.vm.memory.read_cstring(address, max_len, force=True)
        except MemoryFault:
            raise VfsError(Errno.EFAULT) from None

    def read_path(self, address: int) -> str:
        return self.read_string(address).decode("utf-8", "surrogateescape")

    def read_buffer(self, address: int, size: int) -> bytes:
        try:
            return self.vm.memory.read(address, size, force=True)
        except MemoryFault:
            raise VfsError(Errno.EFAULT) from None

    def write_buffer(self, address: int, data: bytes) -> None:
        # Memory.write bumps Region.version, which is what the VM's
        # decode cache and the threaded engine's block guards key on —
        # kernel writes into guest code invalidate translations without
        # any explicit notification.
        try:
            self.vm.memory.write(address, data, force=True)
        except MemoryFault:
            raise VfsError(Errno.EFAULT) from None


Handler = Callable[[SyscallContext], int]
_HANDLERS: dict[str, Handler] = {}


def syscall(name: str) -> Callable[[Handler], Handler]:
    def register(handler: Handler) -> Handler:
        if name in _HANDLERS:
            raise ValueError(f"duplicate syscall handler {name!r}")
        _HANDLERS[name] = handler
        return handler

    return register


def dispatch(ctx: SyscallContext) -> int:
    """Run the handler for ``ctx.name``; map errors to -errno."""
    tracer = ctx.kernel.tracer
    if tracer is not None and not ctx.retry:
        tracer.record(ctx)
    handler = _HANDLERS.get(ctx.name)
    if handler is None:
        return Errno.ENOSYS.as_result()
    try:
        result = handler(ctx)
    except VfsError as err:
        return err.errno.as_result()
    return result & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# process & identity
# ---------------------------------------------------------------------------


@syscall("exit")
def _exit(ctx: SyscallContext) -> int:
    raise ProcessExit(ctx.args[0] & 0xFF)


@syscall("getpid")
def _getpid(ctx: SyscallContext) -> int:
    return ctx.process.pid


@syscall("fork")
def _fork(ctx: SyscallContext) -> int:
    return ctx.kernel.fork_process(ctx)


@syscall("getppid")
def _getppid(ctx: SyscallContext) -> int:
    scheduler = ctx.kernel._scheduler
    if scheduler is not None:
        task = scheduler.tasks.get(ctx.process.pid)
        if task is not None and task.parent_pid is not None:
            return task.parent_pid
    return 1


@syscall("getuid")
def _getuid(ctx: SyscallContext) -> int:
    return 1000


@syscall("geteuid")
def _geteuid(ctx: SyscallContext) -> int:
    return 1000


@syscall("umask")
def _umask(ctx: SyscallContext) -> int:
    return 0o022


@syscall("kill")
def _kill(ctx: SyscallContext) -> int:
    pid, sig = ctx.args[0], ctx.args[1]
    if pid == ctx.process.pid:
        if sig == 0:
            return 0
        raise ProcessExit(128 + (sig & 0x7F), killed=True, reason=f"signal {sig}")
    # Cross-process delivery: the target is terminated at its next
    # schedule point (or wake poll, if blocked).
    scheduler = ctx.kernel._scheduler
    if sig == 0:
        target = scheduler.tasks.get(pid)
        if target is not None and target.alive:
            return 0
        return Errno.ESRCH.as_result()
    if scheduler.post_signal(pid, sig):
        return 0
    return Errno.ESRCH.as_result()


@syscall("sigaction")
def _sigaction(ctx: SyscallContext) -> int:
    signum, handler_addr = ctx.args[0], ctx.args[1]
    if not 1 <= signum <= 64:
        return Errno.EINVAL.as_result()
    ctx.process.signal_handlers[signum] = handler_addr
    return 0


# ---------------------------------------------------------------------------
# time
# ---------------------------------------------------------------------------


@syscall("time")
def _time(ctx: SyscallContext) -> int:
    now = ctx.kernel.current_time(ctx.vm)
    if ctx.args and ctx.args[0]:
        ctx.write_buffer(ctx.args[0], struct.pack("<I", now))
    return now


@syscall("gettimeofday")
def _gettimeofday(ctx: SyscallContext) -> int:
    seconds, micros = ctx.kernel.current_timeofday(ctx.vm)
    if ctx.args[0]:
        ctx.write_buffer(ctx.args[0], struct.pack("<II", seconds, micros))
    return 0


@syscall("nanosleep")
def _nanosleep(ctx: SyscallContext) -> int:
    if not ctx.args[0]:
        return Errno.EFAULT.as_result()
    # The request is honoured by charging the requested time as cycles
    # (capped so a hostile timespec cannot stall a benchmark run).
    raw = ctx.read_buffer(ctx.args[0], 8)
    seconds, nanos = struct.unpack("<II", raw)
    cycles = min(seconds * CYCLES_PER_SECOND + nanos, 10_000_000)
    ctx.vm.cycles += cycles
    return 0


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


@syscall("open")
def _open(ctx: SyscallContext) -> int:
    path = ctx.read_path(ctx.args[0])
    flags = ctx.args[1]
    mode = ctx.args[2] if len(ctx.args) > 2 else 0o644
    vfs = ctx.kernel.vfs
    process = ctx.process
    if flags & O_CREAT:
        inode = vfs.create_file(
            path, mode, cwd=process.cwd, exclusive=bool(flags & O_EXCL)
        )
    else:
        inode = vfs.resolve(path, cwd=process.cwd)
    if inode.is_dir and flags & O_ACCMODE != 0:
        return Errno.EISDIR.as_result()
    if flags & O_TRUNC and inode.is_file:
        inode.data.clear()
    description = FileDescription(
        inode=inode,
        flags=flags,
        offset=len(inode.data) if (flags & O_APPEND and inode.is_file) else 0,
        path=vfs.normalize(path, process.cwd),
        kind="dir" if inode.is_dir else "file",
    )
    return process.allocate_fd(description)


@syscall("close")
def _close(ctx: SyscallContext) -> int:
    ctx.process.close_fd(ctx.args[0])
    return 0


@syscall("read")
def _read(ctx: SyscallContext) -> int:
    fd, buf, count = ctx.args[0], ctx.args[1], min(ctx.args[2], MAX_RW)
    description = ctx.process.fd(fd)
    if not description.readable:
        return Errno.EBADF.as_result()
    if description.kind == "console":
        data = ctx.process.stdin[
            ctx.process.stdin_offset : ctx.process.stdin_offset + count
        ]
        ctx.process.stdin_offset += len(data)
    elif description.kind == "socket":
        sock = description.sock
        if sock is not None and sock.conn is not None:
            data = sock.conn.recv(sock.side, count)
        elif (
            sock is not None
            and sock.type == SOCK_DGRAM
            and sock.address is not None
        ):
            _, data = ctx.kernel.net.recv_dgram(sock, count)
        else:
            data = b""  # unconnected legacy sink: immediate EOF
    elif description.kind == "pipe":
        assert description.pipe is not None
        data = description.pipe.read(count) if count else b""
    else:
        inode = description.inode
        assert inode is not None
        if inode.is_dir:
            return Errno.EISDIR.as_result()
        data = bytes(inode.data[description.offset : description.offset + count])
        description.offset += len(data)
    if data:
        ctx.write_buffer(buf, data)
    ctx.transferred = len(data)
    return len(data)


@syscall("write")
def _write(ctx: SyscallContext) -> int:
    fd, buf, count = ctx.args[0], ctx.args[1], min(ctx.args[2], MAX_RW)
    data = ctx.read_buffer(buf, count)
    return _do_write(ctx, fd, data)


def _do_write(ctx: SyscallContext, fd: int, data: bytes) -> int:
    description = ctx.process.fd(fd)
    if not description.writable:
        return Errno.EBADF.as_result()
    if description.kind == "console":
        target = ctx.process.stdout if fd != 2 else ctx.process.stderr
        return _append_output(ctx, target, data)
    elif description.kind == "socket":
        sock = description.sock
        if sock is not None and sock.conn is not None:
            return _conn_send(ctx, sock, data)
        return _append_output(ctx, ctx.process.network, data)
    elif description.kind == "pipe":
        assert description.pipe is not None
        try:
            written = description.pipe.write(data)
        except BrokenPipe:
            return Errno.EPIPE.as_result()
        ctx.transferred = written
        return written
    else:
        inode = description.inode
        assert inode is not None
        end = description.offset + len(data)
        if end > MAX_FILE_SIZE:
            return Errno.EFBIG.as_result()
        if end > len(inode.data):
            inode.data.extend(bytes(end - len(inode.data)))
        inode.data[description.offset : end] = data
        description.offset = end
    ctx.transferred = len(data)
    return len(data)


def _append_output(ctx: SyscallContext, sink: bytearray, data: bytes) -> int:
    """Append a write to output the kernel holds for the process; one
    that would take ``sink`` past :data:`MAX_FILE_SIZE` is EFBIG and
    appends nothing."""
    if len(sink) + len(data) > MAX_FILE_SIZE:
        return Errno.EFBIG.as_result()
    sink.extend(data)
    ctx.transferred = len(data)
    return len(data)


@syscall("writev")
def _writev(ctx: SyscallContext) -> int:
    fd, iov, iovcnt = ctx.args[0], ctx.args[1], ctx.args[2]
    if iovcnt > 64:
        return Errno.EINVAL.as_result()
    gathered = bytearray()
    for i in range(iovcnt):
        base, length = struct.unpack("<II", ctx.read_buffer(iov + 8 * i, 8))
        gathered += ctx.read_buffer(base, min(length, MAX_RW))
    return _do_write(ctx, fd, bytes(gathered))


@syscall("lseek")
def _lseek(ctx: SyscallContext) -> int:
    fd, offset, whence = ctx.args[0], ctx.args[1], ctx.args[2]
    description = ctx.process.fd(fd)
    if description.kind != "file" or description.inode is None:
        return Errno.ESPIPE.as_result()
    signed = offset - 0x1_0000_0000 if offset & 0x8000_0000 else offset
    if whence == SEEK_SET:
        new = signed
    elif whence == SEEK_CUR:
        new = description.offset + signed
    elif whence == SEEK_END:
        new = len(description.inode.data) + signed
    else:
        return Errno.EINVAL.as_result()
    if new < 0:
        return Errno.EINVAL.as_result()
    description.offset = new
    return new


@syscall("dup")
def _dup(ctx: SyscallContext) -> int:
    description = ctx.process.fd(ctx.args[0])
    return ctx.process.allocate_fd(description.dup())


@syscall("dup2")
def _dup2(ctx: SyscallContext) -> int:
    old, new = ctx.args[0], ctx.args[1]
    description = ctx.process.fd(old)
    if old == new:
        return new
    if new in ctx.process.fds:
        # The implicit close of the displaced fd must release its pipe
        # endpoint (POSIX dup2 semantics).
        ctx.process.close_fd(new)
    ctx.process.fds[new] = description.dup()
    return new


@syscall("fcntl")
def _fcntl(ctx: SyscallContext) -> int:
    fd, cmd = ctx.args[0], ctx.args[1]
    description = ctx.process.fd(fd)
    if cmd == F_GETFL:
        return description.flags
    if cmd == F_SETFL:
        description.flags = (description.flags & O_ACCMODE) | (
            ctx.args[2] & ~O_ACCMODE
        )
        return 0
    if cmd == F_DUPFD:
        return ctx.process.allocate_fd(description.dup())
    return Errno.EINVAL.as_result()


@syscall("ioctl")
def _ioctl(ctx: SyscallContext) -> int:
    ctx.process.fd(ctx.args[0])  # EBADF check
    return 0


# ---------------------------------------------------------------------------
# namespace
# ---------------------------------------------------------------------------


@syscall("unlink")
def _unlink(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.unlink(ctx.read_path(ctx.args[0]), cwd=ctx.process.cwd)
    return 0


@syscall("mkdir")
def _mkdir(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.mkdir(
        ctx.read_path(ctx.args[0]), ctx.args[1] & 0o7777, cwd=ctx.process.cwd
    )
    return 0


@syscall("rmdir")
def _rmdir(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.rmdir(ctx.read_path(ctx.args[0]), cwd=ctx.process.cwd)
    return 0


@syscall("rename")
def _rename(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.rename(
        ctx.read_path(ctx.args[0]), ctx.read_path(ctx.args[1]), cwd=ctx.process.cwd
    )
    return 0


@syscall("chdir")
def _chdir(ctx: SyscallContext) -> int:
    path = ctx.read_path(ctx.args[0])
    inode = ctx.kernel.vfs.resolve(path, cwd=ctx.process.cwd)
    if not inode.is_dir:
        return Errno.ENOTDIR.as_result()
    ctx.process.cwd = ctx.kernel.vfs.normalize(path, ctx.process.cwd)
    return 0


@syscall("chmod")
def _chmod(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.chmod(
        ctx.read_path(ctx.args[0]), ctx.args[1] & 0o7777, cwd=ctx.process.cwd
    )
    return 0


@syscall("access")
def _access(ctx: SyscallContext) -> int:
    path = ctx.read_path(ctx.args[0])
    if ctx.kernel.vfs.exists(path, cwd=ctx.process.cwd):
        return 0
    return Errno.ENOENT.as_result()


@syscall("symlink")
def _symlink(ctx: SyscallContext) -> int:
    target = ctx.read_path(ctx.args[0])
    linkpath = ctx.read_path(ctx.args[1])
    ctx.kernel.vfs.symlink(target, linkpath, cwd=ctx.process.cwd)
    return 0


@syscall("readlink")
def _readlink(ctx: SyscallContext) -> int:
    path = ctx.read_path(ctx.args[0])
    buf, size = ctx.args[1], ctx.args[2]
    target = ctx.kernel.vfs.readlink(path, cwd=ctx.process.cwd).encode()
    data = target[:size]
    ctx.write_buffer(buf, data)
    return len(data)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

_STAT_SIZE = 32


def _pack_stat(inode) -> bytes:
    return struct.pack(
        "<IIIIIIII",
        inode.ino,
        inode.file_type_bits | inode.mode,
        inode.size,
        inode.nlink,
        0,
        0,
        0,
        0,
    )


@syscall("stat")
def _stat(ctx: SyscallContext) -> int:
    inode = ctx.kernel.vfs.resolve(ctx.read_path(ctx.args[0]), cwd=ctx.process.cwd)
    ctx.write_buffer(ctx.args[1], _pack_stat(inode))
    return 0


@syscall("fstat")
def _fstat(ctx: SyscallContext) -> int:
    from repro.kernel.vfs import S_IFCHR, S_IFIFO, S_IFSOCK

    description = ctx.process.fd(ctx.args[0])
    if description.inode is None:
        # Synthesize a stat for inode-less descriptors with an honest
        # file type: S_IFSOCK for sockets, S_IFIFO for kernel pipes,
        # and the historical character device for consoles.
        if description.kind == "socket":
            mode = S_IFSOCK | 0o666
        elif description.kind == "pipe":
            mode = S_IFIFO | 0o600
        else:
            mode = S_IFCHR | 0o666
        ctx.write_buffer(ctx.args[1], struct.pack("<IIIIIIII", 1, mode, 0, 1, 0, 0, 0, 0))
        return 0
    ctx.write_buffer(ctx.args[1], _pack_stat(description.inode))
    return 0


@syscall("fstatfs")
def _fstatfs(ctx: SyscallContext) -> int:
    ctx.process.fd(ctx.args[0])  # EBADF check
    # f_type, f_bsize, f_blocks, f_bfree
    ctx.write_buffer(ctx.args[1], struct.pack("<IIII", 0x53454631, PAGE, 65536, 32768))
    return 0


@syscall("getdirentries")
def _getdirentries(ctx: SyscallContext) -> int:
    fd, buf, nbytes = ctx.args[0], ctx.args[1], ctx.args[2]
    description = ctx.process.fd(fd)
    if description.kind != "dir" or description.inode is None:
        return Errno.ENOTDIR.as_result()
    names = sorted(description.inode.entries)
    out = bytearray()
    index = description.offset
    while index < len(names):
        encoded = names[index].encode() + b"\x00"
        record = struct.pack("<IH", description.inode.entries[names[index]].ino, len(encoded)) + encoded
        if len(out) + len(record) > nbytes:
            break
        out += record
        index += 1
    if index == description.offset and index < len(names):
        return Errno.EINVAL.as_result()  # buffer too small for one entry
    description.offset = index
    ctx.write_buffer(buf, bytes(out))
    ctx.transferred = len(out)
    return len(out)


@syscall("uname")
def _uname(ctx: SyscallContext) -> int:
    fields = [
        b"SVM32",
        b"linux",
        b"2.4.20-asc",
        b"#1 2005",
        b"svm32",
    ]
    blob = b"".join(name.ljust(32, b"\x00") for name in fields)
    ctx.write_buffer(ctx.args[0], blob)
    return 0


@syscall("sysconf")
def _sysconf(ctx: SyscallContext) -> int:
    known = {0: 4096, 1: 256, 2: 100}  # PAGESIZE, OPEN_MAX, CLK_TCK
    return known.get(ctx.args[0], Errno.EINVAL.as_result())


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


@syscall("brk")
def _brk(ctx: SyscallContext) -> int:
    request = ctx.args[0]
    process = ctx.process
    if request == 0 or request < process.initial_brk:
        return process.brk
    try:
        ctx.vm.memory.grow_region("[heap]", request - process.initial_brk)
    except (MemoryFault, KeyError):
        return process.brk
    process.brk = request
    return process.brk


@syscall("mmap")
def _mmap(ctx: SyscallContext) -> int:
    length = ctx.args[1]
    fd = ctx.args[4] if len(ctx.args) > 4 else 0xFFFFFFFF
    if length == 0:
        return Errno.EINVAL.as_result()
    process = ctx.process
    description = None
    if fd != 0xFFFFFFFF and fd < 0x8000_0000:
        description = process.fd(fd)  # EBADF before anything is mapped
    size = (length + PAGE - 1) & ~(PAGE - 1)
    base = process.mmap_cursor
    if base + size > 0x1_0000_0000 or process.mmap_bytes + size > MAX_MMAP_BYTES:
        return Errno.ENOMEM.as_result()  # past the address space or the cap
    process.mmap_cursor = base + size + PAGE
    process.mmap_bytes += size
    from repro.cpu.memory import PROT_READ, PROT_WRITE

    region = ctx.vm.memory.map_region(
        base, size, PROT_READ | PROT_WRITE, name=f"[mmap:{base:#x}]"
    )
    if description is not None:
        if description.inode is not None and description.inode.is_file:
            content = bytes(description.inode.data[:size])
            region.data[: len(content)] = content
            region.version += 1
    return base


@syscall("munmap")
def _munmap(ctx: SyscallContext) -> int:
    # Regions are leaked rather than unmapped; fine for program lifetimes.
    return 0


@syscall("madvise")
def _madvise(ctx: SyscallContext) -> int:
    return 0


# ---------------------------------------------------------------------------
# sockets (kernel/net/: deterministic loopback stream + datagram stack)
# ---------------------------------------------------------------------------

#: socket() protocol numbers accepted per type (0 = default).
_STREAM_PROTOCOLS = (0, 6)  # IPPROTO_TCP
_DGRAM_PROTOCOLS = (0, 17)  # IPPROTO_UDP


def _sock_of(ctx: SyscallContext, fd: int):
    """The kernel Socket behind ``fd`` (ENOTSOCK for anything else)."""
    description = ctx.process.fd(fd)
    if description.kind != "socket" or description.sock is None:
        raise VfsError(Errno.ENOTSOCK)
    return description.sock


def _read_sockaddr(ctx: SyscallContext, address: int) -> str:
    """Socket addresses are NUL-terminated ASCII strings, so constant
    addresses in ``.rodata`` become installer-authenticated string
    parameters of the bind/connect site (see kernel/net/socket.py)."""
    if address == 0:
        raise VfsError(Errno.EFAULT)
    return ctx.read_string(address, max_len=256).decode("utf-8", "surrogateescape")


def _write_sockaddr(ctx: SyscallContext, addr_out: int, len_out: int, name: str) -> None:
    """Fill an (address, length) output pair, truncating to the guest's
    declared capacity (``*len_out`` on entry, u32)."""
    encoded = name.encode("utf-8", "surrogateescape") + b"\x00"
    if addr_out:
        capacity = len(encoded)
        if len_out:
            (declared,) = struct.unpack("<I", ctx.read_buffer(len_out, 4))
            capacity = min(capacity, declared)
        if capacity:
            ctx.write_buffer(addr_out, encoded[:capacity])
    if len_out:
        ctx.write_buffer(len_out, struct.pack("<I", len(encoded)))


@syscall("socket")
def _socket(ctx: SyscallContext) -> int:
    from repro.kernel.process import O_RDWR

    domain, type_, protocol = ctx.args[0], ctx.args[1], ctx.args[2]
    if domain not in (AF_UNIX, AF_INET):
        return Errno.EAFNOSUPPORT.as_result()
    if type_ == SOCK_STREAM:
        allowed = _STREAM_PROTOCOLS
    elif type_ == SOCK_DGRAM:
        allowed = _DGRAM_PROTOCOLS
    else:
        return Errno.EPROTONOSUPPORT.as_result()
    if protocol not in allowed:
        return Errno.EPROTONOSUPPORT.as_result()
    sock = ctx.kernel.net.create(domain, type_)
    return ctx.process.allocate_fd(
        FileDescription(None, O_RDWR, kind="socket", path="<socket>", sock=sock)
    )


@syscall("bind")
def _bind(ctx: SyscallContext) -> int:
    sock = _sock_of(ctx, ctx.args[0])
    address = _read_sockaddr(ctx, ctx.args[1])
    ctx.kernel.net.bind(sock, address)
    return 0


@syscall("listen")
def _listen(ctx: SyscallContext) -> int:
    sock = _sock_of(ctx, ctx.args[0])
    ctx.kernel.net.listen(sock, ctx.args[1])
    return 0


@syscall("connect")
def _connect(ctx: SyscallContext) -> int:
    sock = _sock_of(ctx, ctx.args[0])
    address = _read_sockaddr(ctx, ctx.args[1])
    rec = ctx.kernel.obs
    if rec.enabled:
        rec.begin("net-connect", "net")
        try:
            ctx.kernel.net.connect(sock, address)
        finally:
            rec.end()
    else:
        ctx.kernel.net.connect(sock, address)
    return 0


@syscall("accept")
def _accept(ctx: SyscallContext) -> int:
    from repro.kernel.process import O_RDWR

    sock = _sock_of(ctx, ctx.args[0])
    rec = ctx.kernel.obs
    if rec.enabled:
        rec.begin("net-accept", "net")
        try:
            child = ctx.kernel.net.accept(sock)
        finally:
            rec.end()
    else:
        child = ctx.kernel.net.accept(sock)
    fd = ctx.process.allocate_fd(
        FileDescription(None, O_RDWR, kind="socket", path="<socket>", sock=child)
    )
    # The peer "name" is the deterministic connection ident — clients
    # are usually unbound, so there is no client address to report.
    _write_sockaddr(ctx, ctx.args[1], ctx.args[2], f"conn:{child.conn.ident}")
    return fd


def _conn_send(ctx: SyscallContext, sock, data: bytes) -> int:
    try:
        written = sock.conn.send(sock.side, data)
    except SendOnShutdown:
        return Errno.EPIPE.as_result()
    ctx.kernel.metrics.inc("net.bytes_sent", written)
    ctx.transferred = written
    return written


@syscall("send")
def _send(ctx: SyscallContext) -> int:
    fd, buf, count = ctx.args[0], ctx.args[1], min(ctx.args[2], MAX_RW)
    sock = _sock_of(ctx, fd)
    data = ctx.read_buffer(buf, count)
    if sock.conn is not None:
        return _conn_send(ctx, sock, data)
    if sock.type == SOCK_DGRAM and sock.peer_address:
        written = ctx.kernel.net.send_dgram(sock, sock.peer_address, data)
        ctx.transferred = written
        return written
    return Errno.ENOTCONN.as_result()


@syscall("recv")
def _recv(ctx: SyscallContext) -> int:
    fd, buf, count = ctx.args[0], ctx.args[1], min(ctx.args[2], MAX_RW)
    sock = _sock_of(ctx, fd)
    if sock.conn is not None:
        data = sock.conn.recv(sock.side, count)
    elif sock.type == SOCK_DGRAM and sock.address is not None:
        _, data = ctx.kernel.net.recv_dgram(sock, count)
    else:
        return Errno.ENOTCONN.as_result()
    if data:
        ctx.write_buffer(buf, data)
        ctx.kernel.metrics.inc("net.bytes_received", len(data))
    ctx.transferred = len(data)
    return len(data)


@syscall("sendto")
def _sendto(ctx: SyscallContext) -> int:
    fd, buf, count = ctx.args[0], ctx.args[1], min(ctx.args[2], MAX_RW)
    description = ctx.process.fd(fd)
    if description.kind != "socket":
        return Errno.EINVAL.as_result()
    data = ctx.read_buffer(buf, count)
    sock = description.sock
    if sock is not None:
        if sock.conn is not None:
            # Connected stream: the destination (if any) is ignored.
            return _conn_send(ctx, sock, data)
        dest = ctx.args[4]
        if sock.type == SOCK_DGRAM and (dest or sock.peer_address):
            address = (
                _read_sockaddr(ctx, dest) if dest else sock.peer_address
            )
            written = ctx.kernel.net.send_dgram(sock, address, data)
            ctx.transferred = written
            return written
        if sock.type == SOCK_STREAM and dest:
            return Errno.ENOTCONN.as_result()
    # Unconnected, no destination: the pre-net diagnostic sink (bytes
    # land in process.network), kept for the Table 3 profile workloads.
    return _append_output(ctx, ctx.process.network, data)


@syscall("recvfrom")
def _recvfrom(ctx: SyscallContext) -> int:
    fd, buf, count = ctx.args[0], ctx.args[1], min(ctx.args[2], MAX_RW)
    sock = _sock_of(ctx, fd)
    if sock.conn is not None:
        data = sock.conn.recv(sock.side, count)
        source = sock.peer_address or f"conn:{sock.conn.ident}"
    elif sock.type == SOCK_DGRAM and sock.address is not None:
        source, data = ctx.kernel.net.recv_dgram(sock, count)
    else:
        return Errno.ENOTCONN.as_result()
    if data:
        ctx.write_buffer(buf, data)
        ctx.kernel.metrics.inc("net.bytes_received", len(data))
    _write_sockaddr(ctx, ctx.args[4], ctx.args[5], source)
    ctx.transferred = len(data)
    return len(data)


@syscall("shutdown")
def _shutdown(ctx: SyscallContext) -> int:
    sock = _sock_of(ctx, ctx.args[0])
    how = ctx.args[1]
    if how not in (SHUT_RD, SHUT_WR, SHUT_RDWR):
        return Errno.EINVAL.as_result()
    if sock.conn is None:
        return Errno.ENOTCONN.as_result()
    sock.conn.shutdown(sock.side, how)
    return 0


@syscall("pipe")
def _pipe(ctx: SyscallContext) -> int:
    """A kernel pipe object: FIFO buffer with reference-counted read
    and write endpoints (writer-close EOF, reader-close EPIPE).  The
    fd API is unchanged from the old file-backed fake."""
    from repro.kernel.process import O_RDONLY, O_WRONLY

    channel = Pipe(ident=ctx.kernel.allocate_pipe_ident())
    read_end = FileDescription(None, O_RDONLY, kind="pipe", path="<pipe>", pipe=channel)
    channel.retain(writer=False)
    write_end = FileDescription(None, O_WRONLY, kind="pipe", path="<pipe>", pipe=channel)
    channel.retain(writer=True)
    read_fd = ctx.process.allocate_fd(read_end)
    write_fd = ctx.process.allocate_fd(write_end)
    ctx.write_buffer(ctx.args[0], struct.pack("<II", read_fd, write_fd))
    return 0


# ---------------------------------------------------------------------------
# program execution & indirection
# ---------------------------------------------------------------------------


def _read_argv(ctx: SyscallContext, table: int) -> list:
    """Read a NULL-terminated array of string pointers from the guest."""
    argv = []
    cursor = table
    for _ in range(64):
        try:
            pointer = ctx.vm.memory.read_u32(cursor, force=True)
        except MemoryFault:
            raise VfsError(Errno.EFAULT) from None
        if pointer == 0:
            break
        argv.append(ctx.read_path(pointer))
        cursor += 4
    return argv


@syscall("execve")
def _execve(ctx: SyscallContext) -> int:
    """True image replacement: raises ImageReplaced on success, so
    execve never returns to the old image."""
    path = ctx.read_path(ctx.args[0])
    argv = _read_argv(ctx, ctx.args[1]) if ctx.args[1] else []
    ctx.kernel.exec_replace(ctx, path, argv)
    raise AssertionError("unreachable")  # pragma: no cover


@syscall("spawn")
def _spawn(ctx: SyscallContext) -> int:
    """posix_spawn-style child execution: the child runs as its own
    task and its pid is returned for wait4 to collect.  The
    enforcement-mode rules of execve apply to the target binary."""
    path = ctx.read_path(ctx.args[0])
    argv = _read_argv(ctx, ctx.args[1]) if ctx.args[1] else []
    return ctx.kernel.spawn_process(ctx, path, argv)


@syscall("__syscall")
def ___syscall(ctx: SyscallContext) -> int:
    """OpenBSD-style generic indirect system call: the real syscall
    number is the first argument and the remaining arguments shift
    left.  This is how the OpenBSD personality's libc invokes mmap,
    which is what produces the Table 2 ``__syscall``/``mmap`` policy
    asymmetry."""
    real_number = ctx.args[0]
    real_name = SYSCALL_NAMES.get(real_number)
    if real_name is None or real_name == "__syscall":
        return Errno.ENOSYS.as_result()
    inner = SyscallContext(
        kernel=ctx.kernel,
        process=ctx.process,
        vm=ctx.vm,
        name=real_name,
        args=ctx.args[1:] + (0,),
    )
    result = dispatch(inner)
    ctx.transferred = inner.transferred
    return result


# ---------------------------------------------------------------------------
# the long tail: simple calls that round out the namespace
# ---------------------------------------------------------------------------


@syscall("link")
def _link(ctx: SyscallContext) -> int:
    old = ctx.read_path(ctx.args[0])
    new = ctx.read_path(ctx.args[1])
    node = ctx.kernel.vfs.resolve(old, cwd=ctx.process.cwd)
    if node.is_dir:
        return Errno.EPERM.as_result()
    _, parent, name = ctx.kernel.vfs._walk(new, ctx.process.cwd)
    if name in parent.entries:
        return Errno.EEXIST.as_result()
    parent.entries[name] = node
    node.nlink += 1
    return 0


@syscall("alarm")
def _alarm(ctx: SyscallContext) -> int:
    return 0


@syscall("utime")
def _utime(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.resolve(ctx.read_path(ctx.args[0]), cwd=ctx.process.cwd)
    return 0


@syscall("sync")
def _sync(ctx: SyscallContext) -> int:
    return 0


@syscall("times")
def _times(ctx: SyscallContext) -> int:
    ticks = ctx.vm.cycles // (CYCLES_PER_SECOND // 100)
    if ctx.args[0]:
        ctx.write_buffer(ctx.args[0], struct.pack("<IIII", ticks, 0, 0, 0))
    return ticks & 0x7FFFFFFF


@syscall("getgid")
def _getgid(ctx: SyscallContext) -> int:
    return 1000


@syscall("getegid")
def _getegid(ctx: SyscallContext) -> int:
    return 1000


@syscall("setuid")
def _setuid(ctx: SyscallContext) -> int:
    return 0 if ctx.args[0] == 1000 else Errno.EPERM.as_result()


@syscall("setgid")
def _setgid(ctx: SyscallContext) -> int:
    return 0 if ctx.args[0] == 1000 else Errno.EPERM.as_result()


@syscall("getpgrp")
def _getpgrp(ctx: SyscallContext) -> int:
    return ctx.process.pid


@syscall("setsid")
def _setsid(ctx: SyscallContext) -> int:
    return ctx.process.pid


@syscall("sigprocmask")
def _sigprocmask(ctx: SyscallContext) -> int:
    if ctx.args[2]:
        ctx.write_buffer(ctx.args[2], struct.pack("<I", 0))
    return 0


@syscall("getrlimit")
def _getrlimit(ctx: SyscallContext) -> int:
    if not ctx.args[1]:
        return Errno.EFAULT.as_result()
    ctx.write_buffer(ctx.args[1], struct.pack("<II", 0x7FFFFFFF, 0x7FFFFFFF))
    return 0


@syscall("setrlimit")
def _setrlimit(ctx: SyscallContext) -> int:
    return 0


@syscall("getrusage")
def _getrusage(ctx: SyscallContext) -> int:
    if ctx.args[1]:
        seconds, micros = ctx.kernel.current_timeofday(ctx.vm)
        ctx.write_buffer(ctx.args[1], struct.pack("<IIII", 0, micros, 0, 0))
    return 0


def _resize(data: bytearray, length: int) -> int:
    """Cut or zero-extend a file's bytes to ``length`` (truncate and
    ftruncate); past :data:`MAX_FILE_SIZE` it is EFBIG, unchanged."""
    if length > MAX_FILE_SIZE:
        return Errno.EFBIG.as_result()
    if length < len(data):
        del data[length:]
    else:
        data.extend(bytes(length - len(data)))
    return 0


@syscall("truncate")
def _truncate(ctx: SyscallContext) -> int:
    node = ctx.kernel.vfs.resolve(ctx.read_path(ctx.args[0]), cwd=ctx.process.cwd)
    if not node.is_file:
        return Errno.EISDIR.as_result()
    return _resize(node.data, ctx.args[1])


@syscall("ftruncate")
def _ftruncate(ctx: SyscallContext) -> int:
    description = ctx.process.fd(ctx.args[0])
    if description.inode is None or not description.inode.is_file:
        return Errno.EINVAL.as_result()
    return _resize(description.inode.data, ctx.args[1])


@syscall("fchmod")
def _fchmod(ctx: SyscallContext) -> int:
    description = ctx.process.fd(ctx.args[0])
    if description.inode is None:
        return Errno.EINVAL.as_result()
    description.inode.mode = ctx.args[1] & 0o7777
    return 0


@syscall("fchown")
def _fchown(ctx: SyscallContext) -> int:
    ctx.process.fd(ctx.args[0])
    return 0


@syscall("chown")
def _chown(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.resolve(ctx.read_path(ctx.args[0]), cwd=ctx.process.cwd)
    return 0


@syscall("getcwd")
def _getcwd(ctx: SyscallContext) -> int:
    buf, size = ctx.args[0], ctx.args[1]
    cwd = ctx.process.cwd.encode() + b"\x00"
    if len(cwd) > size:
        return Errno.ERANGE.as_result()
    ctx.write_buffer(buf, cwd)
    return len(cwd)


@syscall("fchdir")
def _fchdir(ctx: SyscallContext) -> int:
    description = ctx.process.fd(ctx.args[0])
    if description.kind != "dir":
        return Errno.ENOTDIR.as_result()
    ctx.process.cwd = description.path or "/"
    return 0


@syscall("flock")
def _flock(ctx: SyscallContext) -> int:
    ctx.process.fd(ctx.args[0])
    return 0


@syscall("fsync")
def _fsync(ctx: SyscallContext) -> int:
    ctx.process.fd(ctx.args[0])
    return 0


# -- readiness (select/poll over sockets, pipes, console, files) -----------

POLLIN = 0x001
POLLPRI = 0x002
POLLOUT = 0x004
POLLERR = 0x008
POLLHUP = 0x010
POLLNVAL = 0x020


def _fd_readable(ctx: SyscallContext, description: FileDescription) -> bool:
    """Would read() complete without blocking?  EOF counts as ready."""
    if description.kind == "pipe":
        assert description.pipe is not None
        return bool(description.pipe.buffer) or description.pipe.writers <= 0
    if description.kind == "socket":
        sock = description.sock
        return True if sock is None else ctx.kernel.net.recv_ready(sock)
    # Console reads drain stdin then return EOF; files/dirs never block.
    return True


def _fd_writable(ctx: SyscallContext, description: FileDescription) -> bool:
    """Would write() complete without blocking?  An immediate EPIPE
    counts as ready — the guest must get the error, not park."""
    if description.kind == "pipe":
        assert description.pipe is not None
        return description.pipe.space > 0 or description.pipe.readers <= 0
    if description.kind == "socket":
        sock = description.sock
        return True if sock is None else ctx.kernel.net.send_ready(sock)
    return True


def _fd_hangup(ctx: SyscallContext, description: FileDescription) -> bool:
    if description.kind == "pipe":
        assert description.pipe is not None
        return description.pipe.writers <= 0 and not description.pipe.buffer
    if description.kind == "socket":
        sock = description.sock
        if sock is None or sock.conn is None:
            return False
        peer = 1 - sock.side
        return not sock.conn.open_ends[peer] and not sock.conn.buffers[sock.side]
    return False


def _read_fdset(ctx: SyscallContext, address: int, words: int) -> int:
    if address == 0:
        return 0
    raw = ctx.read_buffer(address, words * 4)
    return int.from_bytes(raw, "little")


def _write_fdset(ctx: SyscallContext, address: int, words: int, mask: int) -> None:
    if address:
        ctx.write_buffer(address, mask.to_bytes(words * 4, "little"))


@syscall("select")
def _select(ctx: SyscallContext) -> int:
    """Honest readiness over fd-set bitmaps (32-bit little-endian words).

    The degenerate pre-net form — every set pointer NULL — keeps the old
    stub contract (return ``nfds``), which the Table 3 profile programs
    still exercise.  A NULL timeout pointer blocks until something is
    ready; any non-NULL timeout polls once (the simulated machine has no
    time base, so finite timeouts expire immediately and deterministically).
    """
    from repro.kernel.process import MAX_FDS

    nfds = min(ctx.args[0], MAX_FDS)
    readfds, writefds, exceptfds, timeout = ctx.args[1:5]
    if not (readfds or writefds or exceptfds):
        return ctx.args[0]
    words = (max(nfds, 1) + 31) // 32
    want_read = _read_fdset(ctx, readfds, words)
    want_write = _read_fdset(ctx, writefds, words)
    want_except = _read_fdset(ctx, exceptfds, words)
    ready_read = ready_write = 0
    count = 0
    for fd in range(nfds):
        bit = 1 << fd
        if not ((want_read | want_write | want_except) & bit):
            continue
        description = ctx.process.fd(fd)  # EBADF on stale set bits
        if want_read & bit and _fd_readable(ctx, description):
            ready_read |= bit
            count += 1
        if want_write & bit and _fd_writable(ctx, description):
            ready_write |= bit
            count += 1
    if count == 0 and timeout == 0:
        raise WouldBlock("select")
    _write_fdset(ctx, readfds, words, ready_read)
    _write_fdset(ctx, writefds, words, ready_write)
    _write_fdset(ctx, exceptfds, words, 0)
    return count


@syscall("poll")
def _poll(ctx: SyscallContext) -> int:
    """Honest poll over an array of ``struct pollfd`` (fd:i32,
    events:u16, revents:u16).  The degenerate pre-net form (NULL array)
    keeps the old stub contract.  ``timeout`` semantics match select:
    0 polls once, negative blocks, positive expires immediately."""
    fds_ptr, nfds, timeout = ctx.args[0], ctx.args[1], ctx.args[2]
    if fds_ptr == 0:
        return nfds
    if nfds == 0:
        return 0
    if nfds > 256:
        return Errno.EINVAL.as_result()
    raw = bytearray(ctx.read_buffer(fds_ptr, nfds * 8))
    count = 0
    for index in range(nfds):
        fd, events, _ = struct.unpack_from("<iHH", raw, index * 8)
        revents = 0
        if fd >= 0:
            if fd not in ctx.process.fds:
                revents = POLLNVAL
            else:
                description = ctx.process.fds[fd]
                if events & POLLIN and _fd_readable(ctx, description):
                    revents |= POLLIN
                if events & POLLOUT and _fd_writable(ctx, description):
                    revents |= POLLOUT
                if _fd_hangup(ctx, description):
                    revents |= POLLHUP
        if revents:
            count += 1
        struct.pack_into("<iHH", raw, index * 8, fd, events, revents)
    blocking_forever = timeout & 0x8000_0000  # negative: wait indefinitely
    if count == 0 and blocking_forever:
        raise WouldBlock("poll")
    ctx.write_buffer(fds_ptr, bytes(raw))
    return count


@syscall("mprotect")
def _mprotect(ctx: SyscallContext) -> int:
    """Change protection of the region containing the address.  Guest
    PROT_* bits match the simulator's (1=read, 2=write, 4=exec)."""
    address, _length, prot = ctx.args[0], ctx.args[1], ctx.args[2]
    if prot & ~0x7:
        return Errno.EINVAL.as_result()
    try:
        ctx.vm.memory.protect(address, prot & 0x7)
    except MemoryFault:
        return Errno.ENOMEM.as_result()
    ctx.vm._decode_cache.clear()
    return 0


@syscall("getpriority")
def _getpriority(ctx: SyscallContext) -> int:
    return 20  # nice 0, Linux getpriority encoding


@syscall("setpriority")
def _setpriority(ctx: SyscallContext) -> int:
    return 0


@syscall("statfs")
def _statfs(ctx: SyscallContext) -> int:
    ctx.kernel.vfs.resolve(ctx.read_path(ctx.args[0]), cwd=ctx.process.cwd)
    ctx.write_buffer(ctx.args[1], struct.pack("<IIII", 0x53454631, PAGE, 65536, 32768))
    return 0


@syscall("getgroups")
def _getgroups(ctx: SyscallContext) -> int:
    if ctx.args[0] >= 1 and ctx.args[1]:
        ctx.write_buffer(ctx.args[1], struct.pack("<I", 1000))
    return 1


@syscall("sched_yield")
def _sched_yield(ctx: SyscallContext) -> int:
    if not ctx.retry:
        # Park once, watching nothing: the very next wake poll
        # completes the call (the retry path returns 0 below),
        # re-queueing the caller at the tail of the run queue — a real
        # yield, not a no-op.
        ctx.kernel.metrics.inc("sched.yields")
        raise WouldBlock("yield")
    return 0


def _encode_wstatus(task) -> int:
    """POSIX wait-status encoding: termination signal in the low 7
    bits for killed processes, exit status in bits 8-15 otherwise."""
    if task.killed:
        return (task.exit_status - 128) & 0x7F
    return (task.exit_status & 0xFF) << 8


@syscall("wait4")
def _wait4(ctx: SyscallContext) -> int:
    scheduler = ctx.kernel._scheduler
    pid_arg = ctx.args[0]
    status_ptr = ctx.args[1]
    options = ctx.args[2]
    pid_spec = pid_arg - 0x1_0000_0000 if pid_arg & 0x8000_0000 else pid_arg
    found = scheduler.find_zombie(ctx.process.pid, pid_spec)
    if found is None:
        return Errno.ECHILD.as_result()
    if found == "waiting":
        if options & 1:  # WNOHANG
            return 0
        raise WouldBlock(f"wait:{pid_spec}", scheduler.child_changes)
    from repro.kernel.sched.scheduler import TaskState

    if status_ptr:
        ctx.write_buffer(status_ptr, struct.pack("<I", _encode_wstatus(found)))
    found.state = TaskState.REAPED
    ctx.kernel.metrics.inc("sched.zombies_reaped")
    return found.pid


@syscall("mlock")
def _mlock(ctx: SyscallContext) -> int:
    return 0


@syscall("munlock")
def _munlock(ctx: SyscallContext) -> int:
    return 0


@syscall("readv")
def _readv(ctx: SyscallContext) -> int:
    fd, iov, iovcnt = ctx.args[0], ctx.args[1], ctx.args[2]
    if iovcnt > 64:
        return Errno.EINVAL.as_result()
    total = 0
    for i in range(iovcnt):
        base, length = struct.unpack("<II", ctx.read_buffer(iov + 8 * i, 8))
        inner = SyscallContext(
            kernel=ctx.kernel, process=ctx.process, vm=ctx.vm,
            name="read", args=(fd, base, length, 0, 0, 0),
            retry=ctx.retry,
        )
        try:
            result = dispatch(inner)
        except WouldBlock:
            if total:
                # Data already consumed (a pipe drained mid-vector):
                # return the partial count instead of blocking, so a
                # retry can never re-read bytes the guest already has.
                break
            raise
        if result >= 0xFFFFF001:
            return result
        total += result
        if result < length:
            break
    ctx.transferred = total
    return total
