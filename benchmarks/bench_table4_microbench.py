"""Table 4: per-system-call cost of authentication.

Methodology mirrors §4.3: each system call is executed 10,000 times in
a tight guest loop; the cycle counter is read with ``rdtsc`` before and
after; the measurement overhead (rdtsc cost 84, loop cost 4) is
reported alongside, and the authenticated binaries are installed
*without* control flow policies, exactly as the paper measured them.

Each authenticated call is measured twice: cold (``fastpath=False``,
every trap pays the full CMAC — the paper's configuration) and cached
(the default kernel, where a compiled per-site verifier turns the
steady-state check into compares against the call it verified).  Both columns are archived so
regressions in either mode are visible.
"""

import pytest

from repro.analysis import format_table
from repro.asm import assemble
from repro.binfmt import link
from repro.installer import InstallerOptions, install
from repro.kernel import Kernel
from repro.workloads.runtime import runtime_source
from benchmarks.conftest import BENCH_KEY, bench_scale

#: Paper's Table 4 (cycles).
PAPER = {
    "getpid()": (1141, 5045),
    "gettimeofday()": (1395, 5703),
    "read(4096)": (7324, 10013),
    "write(4096)": (39479, 40396),
    "brk()": (1155, 5083),
}

RDTSC_COST = 84
LOOP_COST = 4


def _program(syscall: str, iterations: int) -> str:
    setup = {
        "getpid": "",
        "gettimeofday": "",
        "brk": "",
        "read": """
    li r1, path
    li r2, 0x42      ; O_RDWR|O_CREAT
    call sys_open
    mov r14, r0
    mov r1, r14
    li r2, iobuf
    li r3, 4096
    call sys_write
    mov r1, r14
    li r2, 0
    li r3, 0
    call sys_lseek
""",
        "write": """
    li r1, path
    li r2, 0x42      ; O_RDWR|O_CREAT
    call sys_open
    mov r14, r0
""",
    }[syscall]
    args = {
        "getpid": "",
        "gettimeofday": "    li r1, tv\n    li r2, 0\n",
        "brk": "    li r1, 0\n",
        "read": "    mov r1, r14\n    li r2, iobuf\n    li r3, 4096\n",
        "write": "    mov r1, r14\n    li r2, iobuf\n    li r3, 4096\n",
    }[syscall]
    reset = (
        "    mov r1, r14\n    li r2, 0\n    li r3, 0\n    call sys_lseek\n"
        if syscall in ("read", "write")
        else ""
    )
    stubs = {"getpid": ("getpid",), "gettimeofday": ("gettimeofday",),
             "brk": ("brk",), "read": ("open", "write", "read", "lseek"),
             "write": ("open", "read", "write", "lseek")}[syscall]
    return f"""
.section .text
.global _start
_start:
{setup}
    li r13, {iterations}
    rdtsc r11
    li r9, cells
    st r11, [r9+0]
loop:
{args}    call sys_{syscall}
{reset}    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    rdtsc r12
    li r9, cells
    st r12, [r9+4]
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/tmp/bench.dat"
.section .bss
cells:
    .space 8
tv:
    .space 8
iobuf:
    .space 4096
""" + runtime_source("linux", stubs + ("exit",))


def _measure(
    syscall: str, authenticated: bool, iterations: int, fastpath: bool = True
) -> float:
    binary = assemble(
        _program(syscall, iterations), metadata={"program": f"micro-{syscall}"}
    )
    if authenticated:
        # Table 4 measures authenticated calls *without* control flow.
        binary = install(
            binary, BENCH_KEY, InstallerOptions(control_flow=False)
        ).binary
    kernel = Kernel(key=BENCH_KEY, fastpath=fastpath)
    result = kernel.run(binary, max_instructions=200_000_000)
    assert result.ok, result.kill_reason
    hits = kernel.metrics.get("fastpath.hits")
    lookups = hits + kernel.metrics.get("fastpath.misses")
    if authenticated and fastpath:
        assert hits > 0, f"{syscall}: per-site cache never warmed"
    else:
        assert lookups == 0, (syscall, lookups)
    image = link(binary)
    cells = image.address_of("cells")
    start = result.vm.memory.read_u32(cells, force=True)
    end = result.vm.memory.read_u32(cells + 4, force=True)
    total = (end - start) & 0xFFFFFFFF
    per_call = (total - RDTSC_COST) / iterations - LOOP_COST
    # The reset lseek in read/write loops is measurement scaffolding.
    if syscall in ("read", "write"):
        per_call -= _lseek_sequence_cost(authenticated, fastpath)
    # Subtract the invocation scaffolding so the number is the bare
    # system call, as in the paper: the unauthenticated loop calls a
    # stub (CALL+LI+RET = 11 cycles); in the installed binary the stub
    # has been inlined (LI r0 + LI r7 = 2 cycles); plus one cycle per
    # argument-staging instruction.
    n_args = {"getpid": 0, "gettimeofday": 2, "brk": 1, "read": 3, "write": 3}[syscall]
    per_call -= (2 if authenticated else 11) + n_args
    return per_call


_LSEEK_CACHE = {}


def _lseek_sequence_cost(authenticated: bool, fastpath: bool = True) -> float:
    """Cost of the `li;li;li;call lseek...` reset sequence, measured
    with the same machinery so subtraction is exact."""
    key = (authenticated, fastpath)
    if key in _LSEEK_CACHE:
        return _LSEEK_CACHE[key]
    iterations = 200
    source = f"""
.section .text
.global _start
_start:
    li r1, path
    li r2, 0x42      ; O_RDWR|O_CREAT
    call sys_open
    mov r14, r0
    li r13, {iterations}
    rdtsc r11
    li r9, cells
    st r11, [r9+0]
loop:
    mov r1, r14
    li r2, 0
    li r3, 0
    call sys_lseek
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    rdtsc r12
    li r9, cells
    st r12, [r9+4]
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/tmp/bench.dat"
.section .bss
cells:
    .space 8
""" + runtime_source("linux", ("open", "lseek", "exit"))
    binary = assemble(source, metadata={"program": "micro-lseek"})
    if authenticated:
        binary = install(binary, BENCH_KEY, InstallerOptions(control_flow=False)).binary
    kernel = Kernel(key=BENCH_KEY, fastpath=fastpath)
    result = kernel.run(binary)
    assert result.ok
    image = link(binary)
    cells = image.address_of("cells")
    start = result.vm.memory.read_u32(cells, force=True)
    end = result.vm.memory.read_u32(cells + 4, force=True)
    per_call = ((end - start) & 0xFFFFFFFF) / iterations - LOOP_COST - RDTSC_COST / iterations
    _LSEEK_CACHE[key] = per_call
    return per_call


@pytest.mark.benchmark(group="table4")
def test_table4_microbenchmark(benchmark, report):
    iterations = max(100, int(10_000 * bench_scale()))
    rows = []

    def run_suite():
        measured = {}
        for label, syscall in (
            ("getpid()", "getpid"),
            ("gettimeofday()", "gettimeofday"),
            ("read(4096)", "read"),
            ("write(4096)", "write"),
            ("brk()", "brk"),
        ):
            original = _measure(syscall, False, iterations)
            cold = _measure(syscall, True, iterations, fastpath=False)
            fast = _measure(syscall, True, iterations, fastpath=True)
            measured[label] = (original, cold, fast)
        return measured

    measured = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    for label, (paper_orig, paper_auth) in PAPER.items():
        orig, cold, fast = measured[label]
        cold_overhead = 100.0 * (cold - orig) / orig
        fast_overhead = 100.0 * (fast - orig) / orig
        paper_overhead = 100.0 * (paper_auth - paper_orig) / paper_orig
        rows.append([
            label,
            paper_orig, round(orig),
            paper_auth, round(cold), round(fast),
            f"{paper_overhead:.1f}%", f"{cold_overhead:.1f}%",
            f"{fast_overhead:.1f}%",
        ])
    rows.append(["rdtsc cost", 84, RDTSC_COST, 84, RDTSC_COST, RDTSC_COST,
                 "-", "-", "-"])
    rows.append(["loop cost", 4, LOOP_COST, 4, LOOP_COST, LOOP_COST,
                 "-", "-", "-"])

    report(
        "table4_microbench",
        format_table(
            ["System Call", "orig(paper)", "orig(ours)", "auth(paper)",
             "auth(cold)", "auth(cached)", "ovh(paper)", "ovh(cold)",
             "ovh(cached)"],
            rows,
            title=f"Table 4: effect of authentication "
                  f"(cycles/call, {iterations} iterations; cold = "
                  f"--no-fastpath, cached = compiled per-site verifier)",
        ),
    )

    # Shape assertions: baseline calibration is exact; the *cold* check
    # (the paper's configuration) adds a roughly constant ~4k-cycle
    # surcharge, so cheap calls suffer large relative overhead and
    # expensive calls small.
    for label, (paper_orig, _) in PAPER.items():
        assert measured[label][0] == pytest.approx(paper_orig, rel=0.02)
    assert measured["getpid()"][1] - measured["getpid()"][0] > 3000
    getpid_ovh = measured["getpid()"][1] / measured["getpid()"][0]
    write_ovh = measured["write(4096)"][1] / measured["write(4096)"][0]
    assert getpid_ovh > 3.0
    assert write_ovh < 1.2

    # Fast-path assertions: once the per-site cache is warm, the
    # verification surcharge (auth minus baseline) must shrink by at
    # least 3x for the calls whose cost is dominated by the check, and
    # the cached call must still cost more than the unauthenticated one
    # (string MACs and fixed trap work are never cached away).
    for label in ("getpid()", "gettimeofday()", "brk()"):
        orig, cold, fast = measured[label]
        assert fast > orig, f"{label}: cached auth cheaper than baseline"
        speedup = (cold - orig) / (fast - orig)
        assert speedup >= 3.0, (
            f"{label}: verification surcharge speedup {speedup:.2f}x < 3x "
            f"(orig={orig:.0f}, cold={cold:.0f}, cached={fast:.0f})"
        )
