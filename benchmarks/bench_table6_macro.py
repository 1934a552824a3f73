"""Tables 5 and 6: whole-program overhead of authenticated calls.

Each program in the Table 5 suite runs three times — as a
PLTO-processed unauthenticated binary (the paper's baseline), as a
fully installed binary on a ``--no-fastpath`` kernel (every trap pays
the full CMAC — the paper's configuration, compared against Table 6),
and as the same installed binary on the default kernel, where the
compiled per-site verifiers absorb the steady-state call-MAC work.

Times are reported in scaled seconds (2.4e6 cycles per second; see
repro.workloads.spec).  The runs are deterministic, so the paper's
std-dev columns are identically zero here.
"""

import pytest

from repro.analysis import format_table
from repro.installer import install
from repro.kernel import Kernel
from repro.plto import disassemble, reassemble, run_baseline_passes
from repro.workloads.spec import (
    CYCLES_PER_SCALED_SECOND,
    SPEC_PROGRAMS,
    build_spec_program,
)
from benchmarks.conftest import BENCH_KEY, bench_scale

#: Table 6 (paper): name -> (orig secs, auth secs, overhead %).
PAPER = {
    "gzip-spec": (152.48, 154.63, 1.41),
    "crafty": (107.60, 109.11, 1.40),
    "mcf": (237.48, 239.21, 0.73),
    "vpr": (17.29, 17.49, 1.16),
    "twolf": (391.04, 397.67, 1.70),
    "gcc": (93.01, 94.30, 1.39),
    "vortex": (164.15, 165.53, 0.84),
    "pyramid": (1.01, 1.09, 7.92),
    "gzip": (2.83, 2.86, 1.06),
}


def _baseline(binary):
    unit = disassemble(binary)
    run_baseline_passes(unit)
    return reassemble(unit)


def _run_program(
    name: str, authenticated: bool, iterations: int, fastpath: bool = True
) -> float:
    binary = build_spec_program(name, iterations=iterations)
    if authenticated:
        binary = install(binary, BENCH_KEY).binary
    else:
        binary = _baseline(binary)
    kernel = Kernel(key=BENCH_KEY, fastpath=fastpath)
    result = kernel.run(binary, argv=[name], max_instructions=500_000_000)
    assert result.ok, (name, result.kill_reason)
    return result.cycles


@pytest.mark.benchmark(group="table6")
def test_table5_table6_macro(benchmark, report):
    scale = bench_scale()

    def run_suite():
        measured = {}
        for name, program in SPEC_PROGRAMS.items():
            planned, _ = program.plan()
            iterations = max(2, int(planned * scale))
            base = _run_program(name, False, iterations)
            cold = _run_program(name, True, iterations, fastpath=False)
            fast = _run_program(name, True, iterations, fastpath=True)
            measured[name] = (base, cold, fast, iterations)
        return measured

    measured = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    # Table 5: the suite.
    suite_rows = [
        [name, program.kind, program.description]
        for name, program in SPEC_PROGRAMS.items()
    ]
    table5 = format_table(
        ["Program Name", "Type", "Description"], suite_rows,
        title="Table 5: benchmark suite",
    )

    # Table 6: overheads.
    rows = []
    for name, (paper_orig, paper_auth, paper_ovh) in PAPER.items():
        base, cold, fast, iterations = measured[name]
        base_secs = base / CYCLES_PER_SCALED_SECOND / scale
        cold_secs = cold / CYCLES_PER_SCALED_SECOND / scale
        fast_secs = fast / CYCLES_PER_SCALED_SECOND / scale
        cold_overhead = 100.0 * (cold - base) / base
        fast_overhead = 100.0 * (fast - base) / base
        rows.append([
            name,
            paper_orig, round(base_secs, 2),
            paper_auth, round(cold_secs, 2), round(fast_secs, 2),
            f"{paper_ovh:.2f}%", f"{cold_overhead:.2f}%",
            f"{fast_overhead:.2f}%",
        ])
    table6 = format_table(
        ["Program", "orig(paper)", "orig(ours)", "auth(paper)",
         "auth(cold)", "auth(cached)", "ovh(paper)", "ovh(cold)",
         "ovh(cached)"],
        rows,
        title="Table 6: performance overhead (scaled seconds; cold = "
              "--no-fastpath, cached = compiled per-site verifier; "
              "deterministic, std.dev = 0)",
    )
    report("table5_table6_macro", table5 + "\n\n" + table6)

    # Shape assertions against the *cold* run (the paper's
    # configuration): overheads are modest (< 12%), pyramid is the
    # clear outlier exactly as in the paper, and CPU-bound programs sit
    # in the ~1-2% band.
    overheads = {
        name: 100.0 * (cold - base) / base
        for name, (base, cold, _, _) in measured.items()
    }
    assert max(overheads.values()) == overheads["pyramid"]
    assert overheads["pyramid"] > 3 * overheads["mcf"]
    for name, value in overheads.items():
        if name != "pyramid":
            assert value < 5.0, (name, value)
        assert value > 0.1
    # Within a factor-of-two band of the paper's per-program overheads.
    for name, (_, _, paper_ovh) in PAPER.items():
        assert overheads[name] == pytest.approx(paper_ovh, rel=1.0), name

    # Fast path: caching must never be a pessimization anywhere, and
    # for the syscall-heavy outlier it must recover a meaningful slice
    # of the authentication overhead.  The macro suite installs *with*
    # control flow, whose counter-dependent state MACs are uncacheable
    # by construction (DESIGN.md), so unlike Table 4's >=3x surcharge
    # reduction the recoverable fraction here is bounded by the
    # call-MAC share of the per-trap cost.
    for name, (base, cold, fast, _) in measured.items():
        assert fast <= cold, (name, base, cold, fast)
        assert fast > base, (name, base, cold, fast)
    base, cold, fast, _ = measured["pyramid"]
    recovered = (cold - fast) / (cold - base)
    assert recovered >= 0.2, (base, cold, fast, recovered)
