"""Property-based end-to-end invariants of installation.

The central soundness property of the paper's conservative approach:
**installation never changes the behaviour of a legitimate program** —
no false alarms, identical outputs, identical syscall sequences — while
adding MAC protection.  Hypothesis generates random little programs and
checks the invariant on each.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.monitor.systrace import SyscallTracer
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("property-tests")

#: Operation menu for generated programs.  Each op is (asm body, stubs).
_WRITE_OP = (
    "    li r1, 1\n    li r2, msg\n    li r3, 3\n    call sys_write\n",
    ("write",),
)
_GETPID_OP = ("    call sys_getpid\n", ("getpid",))
_TIME_OP = ("    li r1, 0\n    call sys_time\n", ("time",))
_BRK_OP = ("    li r1, 0\n    call sys_brk\n", ("brk",))
_OPEN_CLOSE_OP = (
    "    li r1, msg\n    li r2, 0x42\n    li r3, 0x1a4\n    call sys_open\n"
    "    mov r1, r0\n    call sys_close\n",
    ("open", "close"),
)
_UMASK_OP = ("    li r1, 18\n    call sys_umask\n", ("umask",))
_LOOP_OP = (
    "    li r10, 3\n{label}:\n    call sys_getpid\n    subi r10, r10, 1\n"
    "    cmpi r10, 0\n    bgt {label}\n",
    ("getpid",),
)
_BRANCH_OP = (
    "    cmpi r12, 1\n    beq {label}\n    call sys_getpid\n"
    "{label}:\n    call sys_getuid\n",
    ("getpid", "getuid"),
)

_OPS = [_WRITE_OP, _GETPID_OP, _TIME_OP, _BRK_OP, _OPEN_CLOSE_OP,
        _UMASK_OP, _LOOP_OP, _BRANCH_OP]


def _build_program(op_indices):
    body = []
    stubs = {"exit"}
    for serial, index in enumerate(op_indices):
        text, needed = _OPS[index % len(_OPS)]
        body.append(text.format(label=f".gen{serial}"))
        stubs.update(needed)
    source = (
        ".section .text\n.global _start\n_start:\n"
        + "".join(body)
        + "    li r1, 0\n    call sys_exit\n"
        + '.section .rodata\nmsg:\n    .asciz "/tmp/prop-file"\n'
        + runtime_source("linux", tuple(sorted(stubs)))
    )
    return assemble(source, metadata={"program": "generated"})


def _run(binary, tracer=None):
    kernel = Kernel(key=KEY)
    kernel.tracer = tracer
    return kernel.run(binary)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(op_indices=st.lists(st.integers(min_value=0, max_value=7),
                           min_size=1, max_size=10))
def test_installation_preserves_behaviour(op_indices):
    binary = _build_program(op_indices)
    installed = install(binary, KEY)

    raw_trace = SyscallTracer()
    raw = _run(binary, raw_trace)
    auth_trace = SyscallTracer()
    auth = _run(installed.binary, auth_trace)

    # No false alarms, identical observable behaviour.
    assert not auth.killed, auth.kill_reason
    assert auth.exit_status == raw.exit_status == 0
    assert auth.stdout == raw.stdout
    assert auth_trace.calls == raw_trace.calls
    # Authentication costs cycles but never changes the call count.
    assert auth.syscalls == raw.syscalls
    assert auth.cycles > raw.cycles


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(op_indices=st.lists(st.integers(min_value=0, max_value=7),
                           min_size=1, max_size=6),
       flip_byte=st.integers(min_value=0, max_value=10_000))
def test_any_authdata_corruption_fail_stops(op_indices, flip_byte):
    """Flipping any byte of any *loaded* record kills the process (the
    MAC guarantees no silent acceptance).  The flip is applied to the
    mapped image, which is what an attacker's write primitive reaches —
    flips in the file's relocation slots would simply be re-patched by
    the loader."""
    binary = _build_program(op_indices)
    installed = install(binary, KEY)
    kernel = Kernel(key=KEY)
    process, vm = kernel.load(installed.binary)
    region = vm.memory.find_region(".authdata")
    size = installed.binary.section(".authdata").size
    if not size:
        return
    offset = flip_byte % size
    byte = vm.memory.read(region.start + offset, 1, force=True)[0]
    vm.memory.write(region.start + offset, bytes([byte ^ 0x01]), force=True)
    vm.run()
    assert vm.killed


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(op_indices=st.lists(st.integers(min_value=0, max_value=7),
                           min_size=1, max_size=6))
def test_installation_is_idempotent_on_policy(op_indices):
    """Two installs of the same binary produce identical binaries and
    policies (determinism matters for reproducible deployments)."""
    binary = _build_program(op_indices)
    first = install(binary, KEY)
    second = install(binary, KEY)
    assert first.binary.to_bytes() == second.binary.to_bytes()
    assert first.policy.coverage_row() == second.policy.coverage_row()
