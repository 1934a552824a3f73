"""The loopback socket primitives, exercised directly (no guest).

Mirrors tests/kernel/sched/test_pipes.py: construct Connection /
ListenQueue / NetStack objects by hand and pin the exact blocking,
EOF, shutdown, and teardown semantics the syscall layer and the
scheduler rely on.
"""

import pytest

from repro.kernel.errors import Errno
from repro.kernel.net.socket import (
    AF_INET,
    DGRAM_QUEUE_MAX,
    MAX_BACKLOG,
    SHUT_RD,
    SHUT_RDWR,
    SHUT_WR,
    SOCK_DGRAM,
    SOCK_STREAM,
    Connection,
    ListenQueue,
    NetStack,
    SendOnShutdown,
    Socket,
)
from repro.kernel.sched.blocking import WouldBlock
from repro.kernel.vfs import VfsError


def _errno(excinfo) -> Errno:
    return excinfo.value.errno


class TestConnection:
    def test_roundtrip_both_directions(self):
        conn = Connection(ident=1)
        assert conn.send(0, b"to-server") == 9
        assert conn.recv(1, 64) == b"to-server"
        assert conn.send(1, b"to-client") == 9
        assert conn.recv(0, 64) == b"to-client"

    def test_recv_respects_count_and_keeps_remainder(self):
        conn = Connection(ident=1)
        conn.send(0, b"abcdef")
        assert conn.recv(1, 4) == b"abcd"
        assert conn.recv(1, 4) == b"ef"

    def test_blocking_send_on_full_buffer_raises_wouldblock(self):
        conn = Connection(ident=7, capacity=4)
        assert conn.send(0, b"xxxx") == 4
        with pytest.raises(WouldBlock) as excinfo:
            conn.send(0, b"y")
        assert excinfo.value.wait == "sock:7:send"

    def test_blocking_send_takes_partial_fill(self):
        # Short counts, not splits across records: the guest loops.
        conn = Connection(ident=1, capacity=4)
        conn.send(0, b"ab")
        assert conn.send(0, b"cdEFG") == 2
        assert bytes(conn.buffers[1]) == b"abcd"

    def test_blocking_recv_on_empty_raises_wouldblock(self):
        conn = Connection(ident=9)
        with pytest.raises(WouldBlock) as excinfo:
            conn.recv(0, 8)
        assert excinfo.value.wait == "sock:9:recv"

    def test_peer_close_drains_inflight_then_eof(self):
        conn = Connection(ident=1)
        conn.send(0, b"last")
        conn.close(0)
        assert conn.recv(1, 64) == b"last"
        # Graceful close: once drained, EOF instead of blocking.
        assert conn.recv(1, 64) == b""

    def test_peer_shut_wr_is_eof_for_reader(self):
        conn = Connection(ident=1)
        conn.shutdown(0, SHUT_WR)
        assert conn.recv(1, 8) == b""

    def test_send_after_own_shut_wr_raises(self):
        conn = Connection(ident=3)
        conn.shutdown(0, SHUT_WR)
        with pytest.raises(SendOnShutdown):
            conn.send(0, b"x")

    def test_send_to_closed_peer_raises(self):
        conn = Connection(ident=3)
        conn.close(1)
        with pytest.raises(SendOnShutdown):
            conn.send(0, b"x")

    def test_send_to_peer_with_shut_rd_raises(self):
        conn = Connection(ident=3)
        conn.shutdown(1, SHUT_RD)
        with pytest.raises(SendOnShutdown):
            conn.send(0, b"x")

    def test_shut_rd_discards_buffered_inbound(self):
        conn = Connection(ident=1)
        conn.send(0, b"stale")
        conn.shutdown(1, SHUT_RD)
        assert conn.recv(1, 64) == b""

    def test_shut_rdwr_sets_both_directions(self):
        conn = Connection(ident=1)
        conn.shutdown(0, SHUT_RDWR)
        assert conn.rd_shutdown[0] and conn.wr_shutdown[0]

    def test_close_discards_own_unread_but_outbound_survives(self):
        conn = Connection(ident=1)
        conn.send(0, b"from-client")
        conn.send(1, b"to-client")
        conn.close(0)  # client gone: its unread inbound is dropped
        assert not conn.buffers[0]
        assert conn.recv(1, 64) == b"from-client"

    def test_recv_readiness_transitions(self):
        conn = Connection(ident=1)
        assert not conn.recv_ready(1)
        conn.send(0, b"x")
        assert conn.recv_ready(1)
        conn.recv(1, 8)
        assert not conn.recv_ready(1)
        conn.close(0)
        assert conn.recv_ready(1)  # EOF counts as readable

    def test_send_readiness_tracks_space_and_errors(self):
        conn = Connection(ident=1, capacity=2)
        assert conn.send_ready(0)
        conn.send(0, b"ab")
        assert not conn.send_ready(0)
        conn.recv(1, 2)
        assert conn.send_ready(0)
        conn.close(1)
        # An immediate EPIPE analog counts as "ready": the guest must
        # get the error, not park.
        assert conn.send_ready(0)


class TestListenQueue:
    def test_backlog_clamped_to_somaxconn(self):
        assert ListenQueue(1, "svc", 10_000).backlog == MAX_BACKLOG

    def test_backlog_floor_is_one(self):
        assert ListenQueue(1, "svc", 0).backlog == 1
        assert ListenQueue(1, "svc", -3).backlog == 1


class TestNetStack:
    def _listener(self, stack, address="svc:echo", backlog=4):
        server = stack.create(AF_INET, SOCK_STREAM)
        stack.bind(server, address)
        stack.listen(server, backlog)
        return server

    def test_connect_accept_send_recv(self):
        stack = NetStack()
        server = self._listener(stack)
        client = stack.create(AF_INET, SOCK_STREAM)
        stack.connect(client, "svc:echo")
        child = stack.accept(server)
        assert child.side == 1 and client.side == 0
        assert child.conn is client.conn
        client.conn.send(client.side, b"ping")
        assert child.conn.recv(child.side, 8) == b"ping"

    def test_bind_claims_port_and_rejects_reuse(self):
        stack = NetStack()
        self._listener(stack, "svc:one")
        other = stack.create(AF_INET, SOCK_STREAM)
        with pytest.raises(VfsError) as excinfo:
            stack.bind(other, "svc:one")
        assert _errno(excinfo) == Errno.EADDRINUSE

    def test_stream_and_dgram_namespaces_are_independent(self):
        stack = NetStack()
        self._listener(stack, "svc:shared")
        dgram = stack.create(AF_INET, SOCK_DGRAM)
        stack.bind(dgram, "svc:shared")  # no conflict: TCP/UDP analog
        assert (SOCK_DGRAM, "svc:shared") in stack.ports

    def test_bind_empty_or_double_is_einval(self):
        stack = NetStack()
        sock = stack.create(AF_INET, SOCK_STREAM)
        with pytest.raises(VfsError) as excinfo:
            stack.bind(sock, "")
        assert _errno(excinfo) == Errno.EINVAL
        stack.bind(sock, "svc:a")
        with pytest.raises(VfsError) as excinfo:
            stack.bind(sock, "svc:b")
        assert _errno(excinfo) == Errno.EINVAL

    def test_listen_requires_stream_and_bound_address(self):
        stack = NetStack()
        dgram = stack.create(AF_INET, SOCK_DGRAM)
        with pytest.raises(VfsError) as excinfo:
            stack.listen(dgram, 4)
        assert _errno(excinfo) == Errno.EOPNOTSUPP
        unbound = stack.create(AF_INET, SOCK_STREAM)
        with pytest.raises(VfsError) as excinfo:
            stack.listen(unbound, 4)
        assert _errno(excinfo) == Errno.EDESTADDRREQ

    def test_connect_without_listener_is_refused(self):
        stack = NetStack()
        client = stack.create(AF_INET, SOCK_STREAM)
        with pytest.raises(VfsError) as excinfo:
            stack.connect(client, "svc:ghost")
        assert _errno(excinfo) == Errno.ECONNREFUSED

    def test_connect_twice_is_eisconn(self):
        stack = NetStack()
        self._listener(stack)
        client = stack.create(AF_INET, SOCK_STREAM)
        stack.connect(client, "svc:echo")
        with pytest.raises(VfsError) as excinfo:
            stack.connect(client, "svc:echo")
        assert _errno(excinfo) == Errno.EISCONN

    def test_connect_on_listener_is_einval(self):
        stack = NetStack()
        server = self._listener(stack)
        with pytest.raises(VfsError) as excinfo:
            stack.connect(server, "svc:echo")
        assert _errno(excinfo) == Errno.EINVAL

    def test_full_backlog_parks_blocking_connector(self):
        stack = NetStack()
        server = self._listener(stack, backlog=1)
        first = stack.create(AF_INET, SOCK_STREAM)
        stack.connect(first, "svc:echo")
        second = stack.create(AF_INET, SOCK_STREAM)
        with pytest.raises(WouldBlock) as excinfo:
            stack.connect(second, "svc:echo")
        assert excinfo.value.wait == f"sock:{server.listener.ident}:connect"
        # accept drains the queue; the retried connect then succeeds.
        stack.accept(server)
        stack.connect(second, "svc:echo")
        assert second.connected

    def test_accept_semantics(self):
        stack = NetStack()
        server = self._listener(stack)
        not_listening = stack.create(AF_INET, SOCK_STREAM)
        with pytest.raises(VfsError) as excinfo:
            stack.accept(not_listening)
        assert _errno(excinfo) == Errno.EINVAL
        with pytest.raises(WouldBlock) as excinfo:
            stack.accept(server)
        assert excinfo.value.wait == f"sock:{server.listener.ident}:accept"

    def test_accept_order_is_fifo(self):
        stack = NetStack()
        server = self._listener(stack)
        clients = []
        for _ in range(3):
            client = stack.create(AF_INET, SOCK_STREAM)
            stack.connect(client, "svc:echo")
            clients.append(client)
        accepted = [stack.accept(server) for _ in range(3)]
        assert [a.conn for a in accepted] == [c.conn for c in clients]

    def test_release_frees_port_for_rebinding(self):
        stack = NetStack()
        server = self._listener(stack, "svc:re")
        server.release()
        assert (SOCK_STREAM, "svc:re") not in stack.ports
        self._listener(stack, "svc:re")  # no EADDRINUSE

    def test_refcount_defers_teardown_to_last_release(self):
        stack = NetStack()
        server = self._listener(stack, "svc:re")
        server.retain()  # fork/dup analog: shared open file description
        server.release()
        assert (SOCK_STREAM, "svc:re") in stack.ports
        server.release()
        assert (SOCK_STREAM, "svc:re") not in stack.ports

    def test_listener_teardown_closes_unaccepted_connections(self):
        stack = NetStack()
        server = self._listener(stack)
        client = stack.create(AF_INET, SOCK_STREAM)
        stack.connect(client, "svc:echo")
        server.release()
        # The never-accepted connection reads EOF, and a parked client
        # would wake to it instead of hanging.
        assert client.conn.recv(client.side, 8) == b""
        with pytest.raises(VfsError) as excinfo:
            dialer = stack.create(AF_INET, SOCK_STREAM)
            stack.connect(dialer, "svc:echo")
        assert _errno(excinfo) == Errno.ECONNREFUSED

    def test_dgram_delivery_carries_source_address(self):
        stack = NetStack()
        receiver = stack.create(AF_INET, SOCK_DGRAM)
        stack.bind(receiver, "svc:a")
        sender = stack.create(AF_INET, SOCK_DGRAM)
        stack.bind(sender, "svc:b")
        assert stack.send_dgram(sender, "svc:a", b"hello") == 5
        assert stack.recv_dgram(receiver, 64) == ("svc:b", b"hello")

    def test_dgram_truncation_preserves_boundaries(self):
        stack = NetStack()
        receiver = stack.create(AF_INET, SOCK_DGRAM)
        stack.bind(receiver, "svc:a")
        sender = stack.create(AF_INET, SOCK_DGRAM)
        stack.send_dgram(sender, "svc:a", b"0123456789")
        stack.send_dgram(sender, "svc:a", b"next")
        # Truncated datagram: excess bytes discarded, not re-queued.
        assert stack.recv_dgram(receiver, 4) == ("", b"0123")
        assert stack.recv_dgram(receiver, 64) == ("", b"next")

    def test_dgram_to_unbound_address_is_refused(self):
        stack = NetStack()
        sender = stack.create(AF_INET, SOCK_DGRAM)
        with pytest.raises(VfsError) as excinfo:
            stack.send_dgram(sender, "svc:ghost", b"x")
        assert _errno(excinfo) == Errno.ECONNREFUSED

    def test_dgram_queue_is_bounded_for_blocking_senders(self):
        stack = NetStack()
        receiver = stack.create(AF_INET, SOCK_DGRAM)
        stack.bind(receiver, "svc:a")
        sender = stack.create(AF_INET, SOCK_DGRAM)
        for _ in range(DGRAM_QUEUE_MAX):
            stack.send_dgram(sender, "svc:a", b"x")
        with pytest.raises(WouldBlock) as excinfo:
            stack.send_dgram(sender, "svc:a", b"x")
        assert excinfo.value.wait == f"sock:{receiver.ident}:dgram"

    def test_empty_dgram_queue_blocks_or_returns_nothing(self):
        # An empty queue blocks; a drained one blocks again rather than
        # returning an empty datagram.
        stack = NetStack()
        receiver = stack.create(AF_INET, SOCK_DGRAM)
        stack.bind(receiver, "svc:a")
        with pytest.raises(WouldBlock):
            stack.recv_dgram(receiver, 8)
        stack.send_dgram(receiver, "svc:a", b"x")
        assert stack.recv_dgram(receiver, 8) == ("svc:a", b"x")
        with pytest.raises(WouldBlock):
            stack.recv_dgram(receiver, 8)

    def test_readiness_over_stack_objects(self):
        stack = NetStack()
        server = self._listener(stack)
        assert not stack.recv_ready(server)  # empty accept queue
        assert not stack.send_ready(server)  # listeners never send
        client = stack.create(AF_INET, SOCK_STREAM)
        stack.connect(client, "svc:echo")
        assert stack.recv_ready(server)  # pending connection
        child = stack.accept(server)
        assert not stack.recv_ready(child)
        assert stack.send_ready(child)

    def test_socket_idents_are_deterministic(self):
        a, b = NetStack(), NetStack()
        for stack in (a, b):
            self._listener(stack)
            client = stack.create(AF_INET, SOCK_STREAM)
            stack.connect(client, "svc:echo")
        assert a._next_ident == b._next_ident
        assert isinstance(a.create(AF_INET, SOCK_STREAM), Socket)
