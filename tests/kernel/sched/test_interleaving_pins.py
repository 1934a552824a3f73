"""Pinned interleavings of every blocking program shape.

Each program below parks at least one task on one kind of wait — a
pipe, a connection direction, a listen queue, a datagram queue, the
child table, a multi-fd ``select``/``poll`` or ``sched_yield`` — and is
woken by another task's change to that object.  The pins are sha256
digests of ``repr(scheduler.interleaving)`` and of every task's
``(pid, exit status, kill flag, cycles)``.  They were recorded with a
wake poll that retried every blocked call before every slice; the wake
rule (a blocked call is retried only once an object it waits on has
changed) must reproduce every one of them exactly, because a retry it
skips is one that could not have completed.  The perfbench-shaped
netserver test also counts the poll's retries: each one wakes a task.
"""

import hashlib
import re

import pytest

from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.kernel.sched import ProcessBlocked
from repro.workloads.multiproc import build_server
from repro.workloads.netserver import build_netserver
from tests.kernel.sched.conftest import guest_binary
from tests.kernel.sched.test_socket_lifecycle import (
    ACCEPT_WAKEUP_BODY,
    ACCEPT_WAKEUP_SYSCALLS,
    NAME_DATA,
)

KEY = Key.from_passphrase("interleaving-pins")
TIMESLICE = 200

FAIL = """
fail:
    li r1, 77
    call sys_exit
"""

DATA = """
.section .rodata
name:
    .asciz "svc:pin"
dname:
    .asciz "svc:dgram"
msg:
    .asciz "abcdefg"
.section .data
pfd:
    .word 0
    .word 0
wstatus:
    .word 0
fdset:
    .word 0
pollfds:
    .word 3
    .word 1
    .word 5
    .word 1
.section .bss
buf:
    .space 4096
"""


def _delay(label: str, trips: int = 400) -> str:
    """A spin loop long enough to span a few timeslices."""
    return f"""
    li r9, {trips}
{label}:
    subi r9, r9, 1
    cmpi r9, 0
    bgt {label}
"""


def _socket(kind: int) -> str:
    return f"""
    li r1, 2
    li r2, {kind}
    li r3, 0
    call sys_socket
    cmpi r0, 0
    blt fail
"""


def _listener(backlog: int) -> str:
    """The listening stream socket as fd 3."""
    return _socket(1) + f"""
    cmpi r0, 3
    bne fail
    li r1, 3
    li r2, name
    li r3, 0
    call sys_bind
    cmpi r0, 0
    bne fail
    li r1, 3
    li r2, {backlog}
    call sys_listen
    cmpi r0, 0
    bne fail
"""


def _call(name: str, *args, expect=None) -> str:
    """Load r1.. with ``args`` (constants, symbols or registers), call
    ``name``, and bail to fail: unless r0 equals ``expect`` (or, with
    no expectation, is non-negative)."""
    loads = "".join(
        f"    {'mov' if re.fullmatch(r'r[0-9]+', str(arg)) else 'li'} r{i}, {arg}\n"
        for i, arg in enumerate(args, 1)
    )
    check = (
        "    cmpi r0, 0\n    blt fail\n" if expect is None
        else f"    cmpi r0, {expect}\n    bne fail\n"
    )
    return loads + f"    call sys_{name}\n" + check


FORK = """
    call sys_fork
    cmpi r0, 0
    beq child
    blt fail
"""

REAP = _call("wait4", "0xFFFFFFFF", "wstatus", 0, 0)

EXIT0 = """
    li r1, 0
    call sys_exit
"""

EXIT3 = """
    li r1, 3
    call sys_exit
"""


def _loop(label: str, trips: int, body: str) -> str:
    """``body`` ``trips`` times, counted in r13."""
    return f"""
    li r13, {trips}
{label}:
""" + body + f"""
    subi r13, r13, 1
    cmpi r13, 0
    bgt {label}
"""


#: The child's stream connection: a fresh socket in r12, dialled.
DIAL = _socket(1) + "    mov r12, r0\n" + _call("connect", "r12", "name", 0, expect=0)

#: name -> (body, syscalls, wait kinds the run must park on).  A pipe
#: made first is fds 3 (read) and 4 (write).
PROGRAMS = {
    "pipe-read": (
        _call("pipe", "pfd", expect=0) + FORK
        + _call("read", 3, "buf", 4, expect=4)
        + REAP + EXIT0
        + "child:\n" + _delay("delay") + _call("write", 4, "msg", 4, expect=4)
        + EXIT3,
        ["pipe", "fork", "read", "write", "wait4"],
        (":read",),
    ),
    "pipe-write-full": (
        # 17 writes of 4 KiB: the 17th finds the 64 KiB pipe full.
        _call("pipe", "pfd", expect=0) + FORK
        + _loop("wloop", 17, _call("write", 4, "buf", 4096, expect=4096))
        + REAP + EXIT0
        + "child:\n" + _delay("delay", 900)
        + _loop("rloop", 17, _call("read", 3, "buf", 4096, expect=4096))
        + EXIT3,
        ["pipe", "fork", "read", "write", "wait4"],
        (":write",),
    ),
    "accept": (
        _listener(4) + FORK
        + _call("accept", 3, 0, 0)
        + REAP + EXIT0
        + "child:\n" + _call("close", 3, expect=0) + _delay("delay") + DIAL
        + EXIT3,
        ["socket", "bind", "listen", "connect", "accept", "close", "fork",
         "wait4"],
        (":accept",),
    ),
    "connect-full-backlog": (
        # Our own connection (fd 4) fills a backlog of one, so the
        # child's connect parks until the first accept pops it.
        _listener(1) + _socket(1) + _call("connect", 4, "name", 0, expect=0)
        + FORK + _delay("delay")
        + _call("accept", 3, 0, 0) + _call("accept", 3, 0, 0)
        + REAP + EXIT0
        + "child:\n" + DIAL + EXIT3,
        ["socket", "bind", "listen", "connect", "accept", "fork", "wait4"],
        (":connect",),
    ),
    "listen-raises-backlog": (
        # As above, but a second listen makes room instead of an
        # accept, and nothing else touches the queue for a while.
        _listener(1) + _socket(1) + _call("connect", 4, "name", 0, expect=0)
        + FORK + _delay("delay")
        + _call("listen", 3, 4, expect=0) + _delay("delay2")
        + _call("accept", 3, 0, 0) + _call("accept", 3, 0, 0)
        + REAP + EXIT0
        + "child:\n" + DIAL + EXIT3,
        ["socket", "bind", "listen", "connect", "accept", "fork", "wait4"],
        (":connect",),
    ),
    "conn-send-full": (
        # Five 4 KiB sends into a 16 KiB direction: the fifth parks
        # until the server end's recv drains.
        _listener(4) + _socket(1) + _call("connect", 4, "name", 0, expect=0)
        + _call("accept", 3, 0, 0, expect=5) + FORK
        + _call("close", 4, expect=0) + _delay("delay", 900)
        + _loop("rloop", 5, _call("recv", 5, "buf", 4096, 0, expect=4096))
        + REAP + EXIT0
        + "child:\n" + _call("close", 3, expect=0) + _call("close", 5, expect=0)
        + _loop("sloop", 5, _call("send", 4, "buf", 4096, 0, expect=4096))
        + EXIT3,
        ["socket", "bind", "listen", "connect", "accept", "send", "recv",
         "close", "fork", "wait4"],
        (":send",),
    ),
    "dgram-send-full": (
        # 65 datagrams into a queue of 64: the last send parks until
        # the receiver's first recvfrom.
        _socket(2) + _call("bind", 3, "dname", expect=0) + FORK
        + _delay("delay", 900)
        + _loop("rloop", 65, _call("recvfrom", 3, "buf", 16, 0, 0, 0, expect=4))
        + REAP + EXIT0
        + "child:\n" + _socket(2) + "    mov r12, r0\n"
        + _loop("sloop", 65, _call("sendto", "r12", "msg", 4, 0, "dname", 0, expect=4))
        + EXIT3,
        ["socket", "bind", "sendto", "recvfrom", "fork", "wait4"],
        (":dgram",),
    ),
    "recvfrom": (
        _socket(2) + _call("bind", 3, "dname", expect=0) + FORK
        + _call("recvfrom", 3, "buf", 16, 0, 0, 0, expect=4)
        + REAP + EXIT0
        + "child:\n" + _delay("delay") + _socket(2) + "    mov r12, r0\n"
        + _call("sendto", "r12", "msg", 4, 0, "dname", 0, expect=4)
        + EXIT3,
        ["socket", "bind", "sendto", "recvfrom", "fork", "wait4"],
        (":recvfrom",),
    ),
    "wait4": (
        FORK + REAP
        + "    li r9, wstatus\n    ld r1, [r9+0]\n    shri r1, r1, 8\n"
        + "    cmpi r1, 5\n    bne fail\n" + EXIT0
        + "child:\n" + _delay("delay") + "    li r1, 5\n    call sys_exit\n",
        ["fork", "wait4"],
        ("wait:",),
    ),
    "select-pipe-socket": (
        # fds: 3/4 = the pipe, 5 = the listener.  The first select is
        # woken by a pipe write, the second by a connect.
        _call("pipe", "pfd", expect=0) + _socket(1)
        + _call("bind", 5, "name", expect=0) + _call("listen", 5, 4, expect=0)
        + FORK
        + "    li r9, fdset\n    li r10, 0x28\n    st r10, [r9+0]\n"
        + _call("select", 6, "fdset", 0, 0, 0, expect=1)
        + "    li r9, fdset\n    ld r10, [r9+0]\n    cmpi r10, 0x08\n    bne fail\n"
        + _call("read", 3, "buf", 1, expect=1)
        + "    li r9, fdset\n    li r10, 0x28\n    st r10, [r9+0]\n"
        + _call("select", 6, "fdset", 0, 0, 0, expect=1)
        + "    li r9, fdset\n    ld r10, [r9+0]\n    cmpi r10, 0x20\n    bne fail\n"
        + _call("accept", 5, 0, 0)
        + REAP + EXIT0
        + "child:\n" + _delay("delay") + _call("write", 4, "msg", 1, expect=1)
        + _delay("delay2") + DIAL + EXIT3,
        ["pipe", "socket", "bind", "listen", "connect", "accept", "read",
         "write", "select", "fork", "wait4"],
        ("select",),
    ),
    "poll-pipe-socket": (
        # The same shape through poll: {3, POLLIN} and {5, POLLIN}.
        _call("pipe", "pfd", expect=0) + _socket(1)
        + _call("bind", 5, "name", expect=0) + _call("listen", 5, 4, expect=0)
        + FORK
        + _call("poll", "pollfds", 2, "0xFFFFFFFF", expect=1)
        + _call("read", 3, "buf", 1, expect=1)
        + _call("poll", "pollfds", 2, "0xFFFFFFFF", expect=1)
        + _call("accept", 5, 0, 0)
        + REAP + EXIT0
        + "child:\n" + _delay("delay") + _call("write", 4, "msg", 1, expect=1)
        + _delay("delay2") + DIAL + EXIT3,
        ["pipe", "socket", "bind", "listen", "connect", "accept", "read",
         "write", "poll", "fork", "wait4"],
        ("poll",),
    ),
    "sched-yield": (
        FORK + _loop("ploop", 6, _call("sched_yield", expect=0) + _delay("pspin", 30))
        + REAP + EXIT0
        + "child:\n" + _loop("cloop", 6, _call("sched_yield", expect=0)
                             + _delay("cspin", 30))
        + EXIT3,
        ["sched_yield", "fork", "wait4"],
        ("yield",),
    ),
}

#: name -> (sha256 of the interleaving, sha256 of the task outcomes)
PINS = {
    "accept": (
        "39eae86ed2eeef062c2e2542389e09677eb6d046e257ff49a9d406341f494783",
        "1e8b54d81a27c967f259483af55ddb5370e843e19d81d0c8a330d95bc3f7e146",
    ),
    "conn-send-full": (
        "2187e491d6e3460d8c644e60d43a68d03296a5f6aee9dadeceab078a39638c38",
        "ff716c76fa7de1187e474498c7e1f0ed56b3ab6b31642d0d65a216bd0964e8a2",
    ),
    "connect-full-backlog": (
        "a9cfbf79fab88eb74c459df51d257bcee0fc0982dfe13480bdcec9056f6bca5d",
        "b1b3556fcbe0d3cf6e5be79687dc6c4d706a2732e86c4751caa9a4bbfa1bfb3f",
    ),
    "dgram-send-full": (
        "97532154237856e954ddcdeafe62d9c8dfcde370c625042c7ab69c23bde2a86d",
        "1f72534602c90a9f1d5b420f6f99cff003be2c4d8b5132e22a2e5f88fce618ce",
    ),
    "listen-raises-backlog": (
        "8c9a9ba7f03bb456130bc0ff042438edec1e55c2e2b05fac6cbb7372bb19eea1",
        "0ea3cf053f5d20b3940cada4dfeeb904ae4eb53d7e511f110912ea3c62eb320e",
    ),
    "pipe-read": (
        "f2d2e77989754dda0e179725f62a3272af78670341e5697e5f3dcd6cf4e037f4",
        "7ab6007d9c11ecb7652c63f840460c350de78c6d57d2f18ccd7ad64d1fd100a2",
    ),
    "pipe-write-full": (
        "bc22e7d7f4e420393c30d35a4f50c5ec41298d5669a1b3d4aca6bb155d654b09",
        "ea6d49ffedd5b58cdee15bddcfb55cccafb0546e1cc7e42f9fbc1d5f804aed81",
    ),
    "poll-pipe-socket": (
        "3e468416c8727306c3ce5406d1fe0672a088289dfec637349db8f463eb110244",
        "c98ea7ad95f205b4b274e02a7c39402d46a2d8a29b7bfbcdc462817d3306c664",
    ),
    "recvfrom": (
        "3e53ed5145f476051b836ee66b9afebd934a626cbc1e92312aa23fa59cb2e26c",
        "c23a47aa2598c7a2c2d9883060020622bdb11f76de4ade15a73ed560906472c6",
    ),
    "sched-yield": (
        "54c162d5962713866a52e685b3eebe75b7b60e9a0eb136affbf6de7f69335fd9",
        "43c82f7499d9c4c89b9067736b92a124aa9234610ebb5e7f4143ff4a5d233243",
    ),
    "select-pipe-socket": (
        "c38fee6b3d92b945b2b6b3699f001ebc2656f26f2325b8da01b26cb6a6669b1d",
        "0f1876520bea96eda05177d620547b9604e961650624e5db21f44c3defbe9a6c",
    ),
    "wait4": (
        "d2629a71ace1b3a8f60753c8e11cb6e585e1d3819f4f633d92786347bdaa3b3c",
        "4418cda2236ed64b24dccaa2382da71eac097a88ed0bf692e4c4aefaf270fcd6",
    ),
    "multiproc": (
        "46b705b3ed0304dfa47c7bb790f22ea9a413f56b18ce9c28c19220afd54cad01",
        "49c0026abad914424f4190218f3d97b8d1e98dfd922e64a74d7536538fa0e6de",
    ),
    "socket-lifecycle": (
        "4da175b41614d83af0b42d94737246e7faf15d6cc4bb053006ad89533bb705b4",
        "f7d6b9318bcb42dc906da857b85bb103dbcc7634b007da7f3e9364e7831c34fd",
    ),
    "netserver-4x8": (
        "85123c72df47de64f2cbfc055c228d8c2853b911f5ac1549c7d47d978ccfd575",
        "2d0bc32dd8ae251288033efd23ed086bc7df00c6c9963bff3b03259cbb6fae84",
    ),
    "netserver-4x255": (
        "a090d9504f61b3b12a76a8dc3602f6e61931f7bb579d74a1693d44b4f6f4b1f5",
        "73568a554e15acb16d38712ea66c95ba720a118724fef0fae0374bd61a590dab",
    ),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("ascii")).hexdigest()


def _run(kernel, binary, timeslice):
    """Run ``binary`` scheduled; returns (pins, waits parked on, tasks)."""
    waits = []
    dispatch = kernel._dispatch

    def spied(*args, **kwargs):
        try:
            return dispatch(*args, **kwargs)
        except ProcessBlocked as blocked:
            waits.append(blocked.wait)
            raise

    kernel._dispatch = spied
    scheduler = kernel.run_many([binary], timeslice=timeslice).scheduler
    tasks = [scheduler.tasks[pid] for pid in sorted(scheduler.tasks)]
    outcomes = [
        (task.pid, task.exit_status, task.killed, task.vm.cycles) for task in tasks
    ]
    return (_sha(scheduler.interleaving), _sha(outcomes)), waits, tasks


@pytest.fixture(scope="module")
def netserver_default():
    return install(build_netserver(), KEY).binary


@pytest.fixture(scope="module")
def netserver_bench_shape():
    """perfbench's netserver pass: 4 clients x 255 requests, no spin."""
    return install(build_netserver(clients=4, requests=255, spin=0), KEY).binary


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_wait_kind_program_pinned(name):
    body, syscalls, kinds = PROGRAMS[name]
    binary = guest_binary(body + FAIL, syscalls, data=DATA, name=name)
    pins, waits, tasks = _run(Kernel(), binary, TIMESLICE)
    assert [task.exit_status for task in tasks] == [0] + [
        5 if name == "wait4" else 3
    ] * (len(tasks) - 1)
    for kind in kinds:
        assert any(kind in wait for wait in waits), (kind, waits)
    assert pins == PINS[name]


def test_multiproc_pipe_server_pinned():
    # A timeslice this short parks every worker on its empty pipe.
    pins, waits, tasks = _run(
        Kernel(), build_server(workers=4, requests=16), timeslice=100
    )
    assert tasks[0].exit_status == 0
    assert {wait for wait in waits if wait.startswith("pipe:")} == {
        f"pipe:{ident}:read" for ident in range(1, 5)
    }
    assert pins == PINS["multiproc"]


def test_socket_lifecycle_wakeup_pinned():
    binary = guest_binary(
        ACCEPT_WAKEUP_BODY, ACCEPT_WAKEUP_SYSCALLS, data=NAME_DATA
    )
    pins, waits, tasks = _run(Kernel(), binary, timeslice=150)
    assert [task.exit_status for task in tasks] == [0, 3]
    assert pins == PINS["socket-lifecycle"]


def test_default_netserver_pinned(netserver_default):
    pins, waits, tasks = _run(Kernel(key=KEY), netserver_default, timeslice=5000)
    assert [task.exit_status for task in tasks] == [0, 8, 8, 8, 8]
    assert pins == PINS["netserver-4x8"]


def test_bench_shape_netserver_pinned(netserver_bench_shape):
    """Its interleaving digest is perfbench's pinned
    ``interleaving_sha256`` for the netserver workload.  The pass parks
    2,046 calls, and every retry the wake poll makes wakes one (a poll
    that retried every blocked call made 7,164 retries)."""
    kernel = Kernel(key=KEY)
    pins, waits, tasks = _run(kernel, netserver_bench_shape, timeslice=1500)
    assert [task.exit_status for task in tasks] == [0, 255, 255, 255, 255]
    assert pins == PINS["netserver-4x255"]
    counts = {
        name: kernel.metrics.get(name)
        for name in ("sched.retries", "sched.wakeups", "sched.blocks")
    }
    assert counts == dict.fromkeys(counts, 2046)
