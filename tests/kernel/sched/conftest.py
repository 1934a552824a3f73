"""Helpers for multiprogramming tests: run guests under the scheduler."""

import pytest

from repro.asm import assemble
from repro.kernel import Kernel
from repro.workloads.runtime import runtime_source


@pytest.fixture(autouse=True)
def _missed_notify_oracle(shadow_poll):
    """Every scheduler test runs under the shadow poll."""


@pytest.fixture
def kernel():
    return Kernel()


def guest_binary(body: str, syscalls=(), data: str = "", name: str = "guest"):
    """Assemble `_start: <body>` plus the runtime."""
    source = (
        ".section .text\n.global _start\n_start:\n"
        + body
        + "\n"
        + (data + "\n" if data else "")
        + runtime_source("linux", tuple(syscalls) + ("exit",))
    )
    return assemble(source, metadata={"program": name})


def run_sched_guest(
    kernel,
    body: str,
    syscalls=(),
    data: str = "",
    stdin: bytes = b"",
    timeslice: int = 2000,
):
    """Run one guest as the sole top-level task of a scheduled machine
    (it may fork/spawn more).  Returns the MultiRunResult."""
    binary = guest_binary(body, syscalls, data)
    return kernel.run_many([(binary, None, stdin)], timeslice=timeslice)
