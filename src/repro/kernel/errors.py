"""Errno values; system calls return ``-errno`` on failure (Linux ABI)."""

from __future__ import annotations

from enum import IntEnum, unique


@unique
class Errno(IntEnum):
    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EINTR = 4
    EIO = 5
    EBADF = 9
    ECHILD = 10
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    EBUSY = 16
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    EFBIG = 27
    ENOSPC = 28
    ESPIPE = 29
    EROFS = 30
    EMLINK = 31
    EPIPE = 32
    ERANGE = 34
    ENOSYS = 38
    ENOTEMPTY = 39
    ELOOP = 40
    ENAMETOOLONG = 36
    ENOTSOCK = 88
    EDESTADDRREQ = 89
    EPROTONOSUPPORT = 93
    EOPNOTSUPP = 95
    EAFNOSUPPORT = 97
    EADDRINUSE = 98
    ENETDOWN = 100
    ECONNRESET = 104
    EISCONN = 106
    ENOTCONN = 107
    ECONNREFUSED = 111

    def as_result(self) -> int:
        """The value a failing syscall places in ``r0`` (two's complement)."""
        return (-int(self)) & 0xFFFFFFFF


def is_error(result: int) -> bool:
    """Linux convention: results in [-4095, -1] (mod 2^32) are errors."""
    return result >= 0xFFFFF001


def errno_of(result: int) -> Errno:
    if not is_error(result):
        raise ValueError(f"result {result:#x} is not an error")
    return Errno(0x1_0000_0000 - result)
