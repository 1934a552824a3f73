"""Ablations for the design choices DESIGN.md calls out, plus the §5
extensions.

1. Control-flow policies on/off: the per-call cost of the ordering
   check (Table 4 measured without; Table 6 ran with).
2. MAC-cost sensitivity: how the surcharge scales if the kernel's AES
   were slower (the paper's cost is dominated by AES-CBC-OMAC).
3. Proof-hint pattern matching (§5.1): kernel work with a hint is one
   linear scan; without it, the kernel would have to search.
4. In-kernel ASC checking vs a user-space policy daemon (§2.3): the
   architectural comparison motivating the whole design.
5. Capability tracking (§5.3): incremental cost of fd checks.
"""

import pytest

from repro.analysis import format_table
from repro.asm import assemble
from repro.installer import InstallerOptions, install
from repro.kernel import CostModel, Kernel
from repro.monitor import SystraceMonitor, train_policy
from repro.policy import Pattern, derive_hint, match_with_hint
from repro.workloads.runtime import runtime_source
from benchmarks.conftest import BENCH_KEY, bench_scale

LOOP_PROGRAM = """
.section .text
.global _start
_start:
    li r13, {iterations}
loop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))


def _cycles_per_call(binary, iterations, kernel=None):
    kernel = kernel or Kernel(key=BENCH_KEY)
    result = kernel.run(binary, max_instructions=200_000_000)
    assert result.ok, result.kill_reason
    return result.cycles / iterations


def _build(iterations):
    return assemble(
        LOOP_PROGRAM.format(iterations=iterations),
        metadata={"program": "ablate"},
    )


@pytest.mark.benchmark(group="ablations")
def test_ablations(benchmark, report):
    iterations = max(200, int(5_000 * bench_scale()))

    def run_suite():
        data = {}
        raw = _build(iterations)
        data["plain"] = _cycles_per_call(raw, iterations)
        no_cf = install(raw, BENCH_KEY, InstallerOptions(control_flow=False))
        data["auth-nocf"] = _cycles_per_call(no_cf.binary, iterations)
        with_cf = install(raw, BENCH_KEY)
        data["auth-cf"] = _cycles_per_call(with_cf.binary, iterations)
        cap = install(
            raw, BENCH_KEY, InstallerOptions(capability_tracking=True)
        )
        data["auth-cap"] = _cycles_per_call(cap.binary, iterations)
        frank = install(raw, BENCH_KEY, InstallerOptions(program_id=7))
        data["auth-progid"] = _cycles_per_call(frank.binary, iterations)

        # Slower-MAC variant (5x the per-block cost).
        slow_costs = CostModel(mac_block_cost=CostModel().mac_block_cost * 5)
        slow_kernel = Kernel(key=BENCH_KEY, costs=slow_costs)
        data["auth-cf-slowmac"] = _cycles_per_call(
            with_cf.binary, iterations, slow_kernel
        )

        # User-space daemon baseline (§2.3).
        policy = train_policy(raw, [["ablate"]])
        monitor = SystraceMonitor(policy, key=BENCH_KEY)
        result = monitor.run(raw, max_instructions=200_000_000)
        assert result.ok
        data["systrace-daemon"] = result.cycles / iterations
        return data

    data = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    rows = [
        ["unmonitored", round(data["plain"]), "-"],
        ["ASC, no control flow (Table 4 config)", round(data["auth-nocf"]),
         f"+{data['auth-nocf'] - data['plain']:.0f}"],
        ["ASC, full policies (Table 6 config)", round(data["auth-cf"]),
         f"+{data['auth-cf'] - data['plain']:.0f}"],
        ["ASC + capability tracking (§5.3)", round(data["auth-cap"]),
         f"+{data['auth-cap'] - data['plain']:.0f}"],
        ["ASC + unique block ids (§5.5)", round(data["auth-progid"]),
         f"+{data['auth-progid'] - data['plain']:.0f}"],
        ["ASC, 5x slower MAC", round(data["auth-cf-slowmac"]),
         f"+{data['auth-cf-slowmac'] - data['plain']:.0f}"],
        ["Systrace-style user-space daemon", round(data["systrace-daemon"]),
         f"+{data['systrace-daemon'] - data['plain']:.0f}"],
    ]
    ablation_table = format_table(
        ["configuration", "cycles/getpid", "surcharge"],
        rows,
        title=f"Ablations: per-call checking cost ({iterations} calls)",
    )

    # §5.1 proof hints: kernel-side verification work vs searching.
    pattern = Pattern.parse("/tmp/{alpha,beta,gamma}*{log,dat}")
    argument = b"/tmp/gammaXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXlog"
    hint = derive_hint(pattern, argument)
    import timeit

    verify_time = timeit.timeit(
        lambda: match_with_hint(pattern, argument, hint), number=2000
    )
    search_time = timeit.timeit(
        lambda: derive_hint(pattern, argument), number=2000
    )
    pattern_table = format_table(
        ["operation", "relative cost"],
        [
            ["kernel verifies with proof hint", "1.0x"],
            ["kernel searches without hint",
             f"{search_time / verify_time:.1f}x"],
        ],
        title="§5.1 proof-hint pattern matching (host-time ratio)",
    )
    report("extensions_ablations", ablation_table + "\n\n" + pattern_table)

    # Shape assertions.
    assert data["plain"] < data["auth-nocf"] < data["auth-cf"]
    assert data["auth-cf"] <= data["auth-cap"]
    # The Frankenstein defense is free at runtime.
    assert abs(data["auth-progid"] - data["auth-cf"]) < 2
    assert data["auth-cf-slowmac"] > data["auth-cf"]
    # The §2.3 claim: in-kernel checking beats the user-space daemon.
    assert data["auth-cf"] < data["systrace-daemon"]
    assert search_time > verify_time
