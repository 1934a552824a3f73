"""Kernel pipe objects.

A :class:`Pipe` is a bounded FIFO byte buffer shared between file
descriptions.  Reader/writer endpoints are reference-counted so that
``dup``/``fork`` keep the EOF and EPIPE semantics right: a read on an
empty pipe returns 0 (EOF) only once *every* write end is closed, and a
write with no read ends left raises EPIPE.

Blocking is expressed with :class:`~repro.kernel.sched.blocking.WouldBlock`
and resolved by the scheduler: a wake poll retries the call, and a wait
no task can ever satisfy completes with ``-EAGAIN``.
"""

from __future__ import annotations

from .blocking import WouldBlock

#: Kernel pipe capacity, matching the classic 64 KiB Linux default.
PIPE_CAPACITY = 65536


class Pipe:
    """A FIFO byte channel with reference-counted endpoints."""

    def __init__(self, ident: int, capacity: int = PIPE_CAPACITY):
        self.ident = ident
        self.capacity = capacity
        self.buffer = bytearray()
        self.readers = 0
        self.writers = 0

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"Pipe(ident={self.ident}, buffered={len(self.buffer)}, "
            f"readers={self.readers}, writers={self.writers})"
        )

    @property
    def space(self) -> int:
        return self.capacity - len(self.buffer)

    def retain(self, writer: bool) -> None:
        if writer:
            self.writers += 1
        else:
            self.readers += 1

    def release(self, writer: bool) -> None:
        if writer:
            self.writers -= 1
        else:
            self.readers -= 1

    def read(self, count: int) -> bytes:
        """Drain up to ``count`` bytes.

        Empty pipe: EOF (``b""``) once all writers are gone, otherwise
        block.
        """
        if not self.buffer:
            if self.writers <= 0:
                return b""
            raise WouldBlock(f"pipe:{self.ident}:read")
        data = bytes(self.buffer[:count])
        del self.buffer[: len(data)]
        return data

    def write(self, data: bytes) -> int:
        """Append what fits of ``data``; returns bytes accepted.

        Raises ``BrokenPipe`` when no readers remain and blocks on a
        full pipe.  A partial write returns the short count and the
        guest is expected to loop.
        """
        if self.readers <= 0:
            raise BrokenPipe(self.ident)
        if self.space <= 0:
            raise WouldBlock(f"pipe:{self.ident}:write")
        accepted = data[: self.space]
        self.buffer.extend(accepted)
        return len(accepted)


class BrokenPipe(Exception):
    """Write on a pipe with no remaining read ends."""

    def __init__(self, ident: int):
        super().__init__(f"broken pipe {ident}")
        self.ident = ident
