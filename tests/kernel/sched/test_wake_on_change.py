"""The wake rule: a blocked call is retried only once what it waits on
has changed.

A spy on ``Kernel.retry_blocked`` (the one retry entry) watches a
child parked on an object nothing touches while its parent spins
through many slices: the child must be retried zero times, then
retried once, and wake, at the first poll after the parent's change.
A poll that retried every blocked call would have retried the child
before every one of the parent's slices.
"""

import pytest

from repro.kernel import Kernel
from tests.kernel.sched.conftest import run_sched_guest
from tests.kernel.sched.test_interleaving_pins import (
    DATA,
    FAIL,
    FORK,
    REAP,
    _call,
    _delay,
    _listener,
    _socket,
)

#: The parent's spin before it changes the object: about 90 slices.
SPIN = _delay("spin", 3000)

EXIT0 = """
    li r1, 0
    call sys_exit
"""

#: Exit 3 if r0 is 0, else with -r0: the errno a failed call returned.
EXIT_STATUS = """
    cmpi r0, 0
    bne failed
    li r1, 3
    call sys_exit
failed:
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
"""

#: The parent's listener (fd 3) has a backlog of one, which the
#: parent's own connection (fd 4) fills.
FULL_BACKLOG = _listener(1) + _socket(1) + _call("connect", 4, "name", 0, expect=0)

#: The child drops its copy of fd 3 (so the parent's close is the
#: last one) and parks in a connect.
CONNECT_CHILD = "child:\n" + _call("close", 3, expect=0) + _socket(1) + """
    mov r12, r0
    mov r1, r12
    li r2, name
    li r3, 0
    call sys_connect
""" + EXIT_STATUS

DGRAM_RECEIVER = _socket(2) + _call("bind", 3, "dname", expect=0)

#: The child drops its copy of fd 3 and sends 65 datagrams into the
#: parent's queue of 64: the last one parks.
SENDTO_CHILD = "child:\n" + _call("close", 3, expect=0) + _socket(2) + """
    mov r12, r0
    li r13, 65
sloop:
    mov r1, r12
    li r2, msg
    li r3, 4
    li r4, 0
    li r5, dname
    li r6, 0
    call sys_sendto
    cmpi r0, 0
    blt failed
    subi r13, r13, 1
    cmpi r13, 0
    bgt sloop
    li r0, 0
""" + EXIT_STATUS

#: name -> (body, syscalls, the parent's changing call, child status)
CASES = {
    "listen-raises-backlog": (
        FULL_BACKLOG + FORK + SPIN + _call("listen", 3, 4, expect=0)
        + _delay("after", 300)
        + _call("accept", 3, 0, 0) + _call("accept", 3, 0, 0) + REAP + EXIT0
        + CONNECT_CHILD,
        ["socket", "bind", "listen", "connect", "accept", "close", "fork",
         "wait4"],
        "listen",
        3,
    ),
    "listener-close-refuses": (
        FULL_BACKLOG + FORK + SPIN + _call("close", 3, expect=0) + REAP + EXIT0
        + CONNECT_CHILD,
        ["socket", "bind", "listen", "connect", "close", "fork", "wait4"],
        "close",
        111,  # ECONNREFUSED
    ),
    "dgram-recvfrom-drains": (
        DGRAM_RECEIVER + FORK + SPIN
        + _call("recvfrom", 3, "buf", 16, 0, 0, 0, expect=4) + REAP + EXIT0
        + SENDTO_CHILD,
        ["socket", "bind", "sendto", "recvfrom", "close", "fork", "wait4"],
        "recvfrom",
        3,
    ),
    "dgram-receiver-close-refuses": (
        DGRAM_RECEIVER + FORK + SPIN + _call("close", 3, expect=0) + REAP + EXIT0
        + SENDTO_CHILD,
        ["socket", "bind", "sendto", "close", "fork", "wait4"],
        "close",
        111,  # ECONNREFUSED
    ),
}


class _Calls:
    """The kernel's syscall tracer hook: (pid, name, slice index) of
    every first dispatch (retries are not traced)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = []

    def record(self, ctx):
        self.calls.append(
            (ctx.process.pid, ctx.name, len(self.kernel._scheduler.interleaving))
        )


@pytest.mark.parametrize("case", sorted(CASES))
def test_parked_child_is_retried_only_after_the_change(case, monkeypatch):
    body, syscalls, changer, child_status = CASES[case]
    retries = []
    retry = Kernel.retry_blocked

    def spy(kernel, task):
        completed = retry(kernel, task)
        retries.append((task.pid, len(kernel._scheduler.interleaving), completed))
        return completed

    monkeypatch.setattr(Kernel, "retry_blocked", spy)
    kernel = Kernel()
    tracer = kernel.tracer = _Calls(kernel)
    multi = run_sched_guest(kernel, body + FAIL, syscalls, data=DATA, timeslice=100)
    parent, child = (multi.scheduler.tasks[pid] for pid in sorted(multi.scheduler.tasks))
    assert (parent.exit_status, child.exit_status) == (0, child_status)

    blocking_call = "sendto" if "dgram" in case else "connect"
    parked = max(at for pid, name, at in tracer.calls
                 if pid == child.pid and name == blocking_call)
    (changed,) = [at for pid, name, at in tracer.calls
                  if pid == parent.pid and name == changer and at > parked]
    assert changed - parked > 50  # the parent spun through many slices
    # ...and the child was retried once: at the first poll after them.
    assert [(at, ok) for pid, at, ok in retries if pid == child.pid] == [
        (changed + 1, True)
    ]
