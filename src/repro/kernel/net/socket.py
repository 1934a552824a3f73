"""The loopback socket model: sockets, stream connections, datagrams.

Everything here is deterministic by construction: socket idents come
from a per-kernel counter, the port table is a plain dict keyed by
``(type, address)`` strings, accept queues and datagram queues are
FIFO, and there is no notion of time — blocking is expressed with
:class:`~repro.kernel.sched.blocking.WouldBlock` and resolved by the
scheduler's FIFO wake poll, exactly like pipes.  Two runs with the
same programs and timeslice therefore produce identical connection
orders, transfer sizes, and interleavings on every engine config.

Addresses are NUL-terminated ASCII strings (e.g. ``"echo:7777"``)
rather than packed ``sockaddr`` structs: a constant address in
``.rodata`` becomes an installer-authenticated string parameter of the
``bind``/``connect`` call site, which is the point of the exercise —
the *name a server listens on* is part of its signed policy.

Stream semantics mirror the kernel pipe object (bounded buffer,
refcounted ends, writer-close EOF, reader-close EPIPE analog) but per
direction: a :class:`Connection` is two bounded byte queues, one per
flow direction, with per-side close and shutdown flags.  A wait that no
process can ever satisfy (say, a lone process reading its own empty
connection) completes with ``-EAGAIN``, as it does for pipes.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.kernel.errors import Errno
from repro.kernel.sched.blocking import WouldBlock
from repro.kernel.vfs import VfsError

#: Address/protocol families (Linux numbering).
AF_UNIX = 1
AF_INET = 2

#: Socket types.
SOCK_STREAM = 1
SOCK_DGRAM = 2

#: shutdown() directions.
SHUT_RD = 0
SHUT_WR = 1
SHUT_RDWR = 2

#: Per-direction stream buffer capacity.  Smaller than the 64 KiB pipe
#: so netserver-scale request streams actually exercise the
#: full-buffer -> park -> drain -> wake path under a scheduler.
SOCK_CAPACITY = 16384

#: Hard ceiling on listen() backlogs (SOMAXCONN analog).
MAX_BACKLOG = 64

#: Bounded datagram queue depth for bound SOCK_DGRAM sockets.
DGRAM_QUEUE_MAX = 64


class SendOnShutdown(Exception):
    """Send on a connection whose outbound direction is gone (local
    SHUT_WR, or the peer closed/SHUT_RD its receive side) — the EPIPE
    analog, mirroring :class:`~repro.kernel.sched.pipe.BrokenPipe`."""

    def __init__(self, ident: int):
        super().__init__(f"send on shut-down connection {ident}")
        self.ident = ident


class ConnectionReset(Exception):
    """Receive on a connection torn down with unread inbound data
    discarded (peer closed while we had not drained)."""

    def __init__(self, ident: int):
        super().__init__(f"connection {ident} reset")
        self.ident = ident


class Connection:
    """One established stream: two bounded FIFO byte queues.

    ``buffers[i]`` holds bytes flowing *toward* side ``i``.  Side 0 is
    the connecting client, side 1 the accepted server end.  Close and
    shutdown are per side; data queued before a close stays deliverable
    (TCP-like graceful close), after which the reader sees EOF.
    """

    def __init__(self, ident: int, capacity: int = SOCK_CAPACITY):
        self.ident = ident
        self.capacity = capacity
        self.buffers = (bytearray(), bytearray())
        self.open_ends = [True, True]
        self.rd_shutdown = [False, False]
        self.wr_shutdown = [False, False]

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"Connection(ident={self.ident}, "
            f"c2s={len(self.buffers[1])}, s2c={len(self.buffers[0])}, "
            f"open={self.open_ends})"
        )

    def space_toward(self, side: int) -> int:
        return self.capacity - len(self.buffers[side])

    def send(self, side: int, data: bytes) -> int:
        """Queue what fits of ``data`` toward the peer; returns bytes
        accepted.  A full buffer blocks (the guest loops on the short
        count for the remainder)."""
        peer = 1 - side
        if self.wr_shutdown[side] or not self.open_ends[side]:
            raise SendOnShutdown(self.ident)
        if not self.open_ends[peer] or self.rd_shutdown[peer]:
            raise SendOnShutdown(self.ident)
        space = self.space_toward(peer)
        if space <= 0:
            raise WouldBlock(f"sock:{self.ident}:send")
        accepted = data[:space]
        self.buffers[peer].extend(accepted)
        return len(accepted)

    def recv(self, side: int, count: int) -> bytes:
        """Drain up to ``count`` bytes flowing toward ``side``.

        Empty queue: EOF (``b""``) once the peer can never send again
        (closed or SHUT_WR), otherwise block.
        """
        if self.rd_shutdown[side]:
            return b""
        buffer = self.buffers[side]
        if not buffer:
            peer = 1 - side
            if not self.open_ends[peer] or self.wr_shutdown[peer]:
                return b""
            raise WouldBlock(f"sock:{self.ident}:recv")
        data = bytes(buffer[:count])
        del buffer[: len(data)]
        return data

    def shutdown(self, side: int, how: int) -> None:
        if how in (SHUT_RD, SHUT_RDWR):
            self.rd_shutdown[side] = True
            self.buffers[side].clear()
        if how in (SHUT_WR, SHUT_RDWR):
            self.wr_shutdown[side] = True

    def close(self, side: int) -> None:
        """Final close of one side: unread inbound data is discarded;
        in-flight outbound data stays deliverable to the peer."""
        self.open_ends[side] = False
        self.buffers[side].clear()

    # -- readiness (select/poll) ---------------------------------------

    def recv_ready(self, side: int) -> bool:
        if self.rd_shutdown[side] or self.buffers[side]:
            return True
        peer = 1 - side
        return not self.open_ends[peer] or self.wr_shutdown[peer]

    def send_ready(self, side: int) -> bool:
        peer = 1 - side
        if self.wr_shutdown[side]:
            return True  # send would fail immediately: that is "ready"
        if not self.open_ends[peer] or self.rd_shutdown[peer]:
            return True
        return self.space_toward(peer) > 0


class ListenQueue:
    """A listening socket's bounded accept backlog (FIFO)."""

    def __init__(self, ident: int, address: str, backlog: int):
        self.ident = ident
        self.address = address
        self.backlog = max(1, min(backlog, MAX_BACKLOG))
        self.pending: deque[Connection] = deque()
        self.open = True

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"ListenQueue(ident={self.ident}, address={self.address!r}, "
            f"pending={len(self.pending)}/{self.backlog})"
        )


class Socket:
    """Kernel-side socket object shared by duplicated descriptors.

    ``dup``/``fork`` share one :class:`Socket` via ``refs`` (the POSIX
    open-file-description model); the underlying endpoint is torn down
    only when the last descriptor goes away.
    """

    def __init__(self, stack: "NetStack", ident: int, domain: int, type: int):
        self.stack = stack
        self.ident = ident
        self.domain = domain
        self.type = type
        self.refs = 1
        #: Bound local address, once bind() has claimed it.
        self.address: Optional[str] = None
        #: Default peer address for connected datagram sockets.
        self.peer_address: Optional[str] = None
        #: Listening state (stream only).
        self.listener: Optional[ListenQueue] = None
        #: Established stream endpoint (and which side we are).
        self.conn: Optional[Connection] = None
        self.side: int = 0
        #: FIFO of (source address, payload) for bound datagram sockets.
        self.dgrams: deque = deque()
        self.closed = False

    def __repr__(self):  # pragma: no cover - debug aid
        kind = (
            "listen" if self.listener is not None
            else "conn" if self.conn is not None
            else "fresh"
        )
        return f"Socket(ident={self.ident}, {kind}, refs={self.refs})"

    @property
    def connected(self) -> bool:
        return self.conn is not None

    @property
    def listening(self) -> bool:
        return self.listener is not None

    def retain(self) -> None:
        self.refs += 1

    def release(self) -> None:
        self.refs -= 1
        if self.refs <= 0 and not self.closed:
            self.closed = True
            self.stack._teardown(self)


class NetStack:
    """Per-kernel loopback network state: the port table and counters.

    One namespace per socket type: a stream listener and a bound
    datagram socket may share an address string without conflict,
    matching TCP/UDP port independence.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        #: (type, address) -> bound Socket (listener or dgram receiver).
        self.ports: dict[tuple, Socket] = {}
        self._next_ident = 0

    # -- bookkeeping ---------------------------------------------------

    def _ident(self) -> int:
        self._next_ident += 1
        return self._next_ident

    def _inc(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # -- socket lifecycle ----------------------------------------------

    def create(self, domain: int, type: int) -> Socket:
        sock = Socket(self, self._ident(), domain, type)
        self._inc("net.sockets_created")
        return sock

    def _teardown(self, sock: Socket) -> None:
        """Last descriptor gone: free the port, reset the backlog, or
        close our side of the connection (peer sees EOF / EPIPE)."""
        if sock.address is not None:
            key = (sock.type, sock.address)
            if self.ports.get(key) is sock:
                del self.ports[key]
        if sock.listener is not None:
            sock.listener.open = False
            # Connections the server never accepted: close the server
            # side so parked clients wake to EOF instead of hanging.
            while sock.listener.pending:
                sock.listener.pending.popleft().close(1)
        if sock.conn is not None:
            sock.conn.close(sock.side)
        sock.dgrams.clear()
        self._inc("net.sockets_closed")

    # -- naming --------------------------------------------------------

    def bind(self, sock: Socket, address: str) -> None:
        if sock.connected or sock.listening or sock.address is not None:
            raise VfsError(Errno.EINVAL)
        if not address:
            raise VfsError(Errno.EINVAL)
        key = (sock.type, address)
        if key in self.ports:
            raise VfsError(Errno.EADDRINUSE)
        self.ports[key] = sock
        sock.address = address
        self._inc("net.binds")

    def listen(self, sock: Socket, backlog: int) -> None:
        if sock.type != SOCK_STREAM:
            raise VfsError(Errno.EOPNOTSUPP)
        if sock.connected:
            raise VfsError(Errno.EINVAL)
        if sock.address is None:
            # No ephemeral auto-bind: a listener's name must be a real
            # (policy-visible) address supplied via bind().
            raise VfsError(Errno.EDESTADDRREQ)
        if sock.listener is None:
            sock.listener = ListenQueue(sock.ident, sock.address, backlog)
            self._inc("net.listens")
        else:
            sock.listener.backlog = max(1, min(backlog, MAX_BACKLOG))

    # -- stream establishment ------------------------------------------

    def connect(self, sock: Socket, address: str) -> None:
        """Establish a stream to ``address`` (handshake completes at
        connect time; accept() later hands the server its side, as with
        a real SYN queue).  A full backlog blocks the connector."""
        if sock.listening:
            raise VfsError(Errno.EINVAL)
        if sock.type == SOCK_DGRAM:
            sock.peer_address = address  # default destination only
            return
        if sock.connected:
            raise VfsError(Errno.EISCONN)
        target = self.ports.get((SOCK_STREAM, address))
        if target is None or target.listener is None or not target.listener.open:
            self._inc("net.connect_refused")
            raise VfsError(Errno.ECONNREFUSED)
        queue = target.listener
        if len(queue.pending) >= queue.backlog:
            raise WouldBlock(f"sock:{queue.ident}:connect")
        conn = Connection(self._ident())
        sock.conn = conn
        sock.side = 0
        sock.peer_address = address
        queue.pending.append(conn)
        self._inc("net.connections")

    def accept(self, sock: Socket) -> Socket:
        if sock.listener is None:
            raise VfsError(Errno.EINVAL)
        queue = sock.listener
        if not queue.pending:
            raise WouldBlock(f"sock:{queue.ident}:accept")
        conn = queue.pending.popleft()
        child = Socket(self, self._ident(), sock.domain, sock.type)
        child.conn = conn
        child.side = 1
        child.address = sock.address
        self._inc("net.accepts")
        return child

    # -- datagrams -----------------------------------------------------

    def send_dgram(self, sock: Socket, address: str, data: bytes) -> int:
        target = self.ports.get((SOCK_DGRAM, address))
        if target is None:
            raise VfsError(Errno.ECONNREFUSED)
        if len(target.dgrams) >= DGRAM_QUEUE_MAX:
            raise WouldBlock(f"sock:{target.ident}:dgram")
        target.dgrams.append((sock.address or "", bytes(data)))
        self._inc("net.dgrams_sent")
        self._inc("net.bytes_sent", len(data))
        return len(data)

    def recv_dgram(self, sock: Socket, count: int):
        """Pop one datagram: returns (source address, payload truncated
        to ``count``).  Datagram boundaries are preserved; excess bytes
        of a truncated datagram are discarded (POSIX SOCK_DGRAM)."""
        if not sock.dgrams:
            raise WouldBlock(f"sock:{sock.ident}:recvfrom")
        source, payload = sock.dgrams.popleft()
        self._inc("net.dgrams_received")
        return (source, payload[:count])

    # -- readiness (select/poll over sockets) --------------------------

    def recv_ready(self, sock: Socket) -> bool:
        if sock.listener is not None:
            return bool(sock.listener.pending) or not sock.listener.open
        if sock.conn is not None:
            return sock.conn.recv_ready(sock.side)
        if sock.type == SOCK_DGRAM and sock.address is not None:
            return bool(sock.dgrams)
        return True  # unconnected legacy sink: read returns EOF now

    def send_ready(self, sock: Socket) -> bool:
        if sock.listener is not None:
            return False
        if sock.conn is not None:
            return sock.conn.send_ready(sock.side)
        return True  # sink / datagram: a send never waits on a buffer
