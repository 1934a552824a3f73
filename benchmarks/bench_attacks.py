"""§4.1 attack experiments + §5.5 Frankenstein, as a regression bench.

The paper's three attack experiments (shellcode, mimicry,
non-control-data) plus the replay and Frankenstein scenarios; each must
land on its documented outcome, and the bench reports the kernel's
fail-stop reason for every one.
"""

import pytest

from repro.analysis import format_table
from repro.attacks import run_all_attacks
from repro.configs import configs_named
from benchmarks.conftest import BENCH_KEY

#: Expected outcome per scenario (True = blocked).
EXPECTED = {
    "shellcode": True,
    "mimicry/call-graph": True,
    "mimicry/call-site": True,
    "non-control-data": True,
    "frankenstein/defended": True,
    "frankenstein/undefended": False,  # the §5.5 vulnerability, by design
    "replay": True,
}


@pytest.mark.benchmark(group="attacks")
def test_attack_battery(benchmark, report):
    # The battery runs under both execution engines; the verdicts and
    # fail-stop reasons are a security property and must not depend on
    # how the CPU is emulated.
    def run_both():
        return {
            config.name: run_all_attacks(BENCH_KEY, config)
            for config in configs_named(["interp", "chained"])
        }

    by_engine = benchmark.pedantic(run_both, rounds=1, iterations=1)
    results = by_engine["chained"]

    rows = []
    for result in results:
        expected = "BLOCKED" if EXPECTED[result.name] else "succeeds"
        actual = "BLOCKED" if result.blocked else "succeeds"
        rows.append([
            result.name, expected, actual,
            (result.kill_reason or "-")[:60],
        ])
    report(
        "attack_battery",
        format_table(
            ["attack", "expected", "measured", "kernel reason"],
            rows,
            title="§4.1 / §5.5 attack experiments "
                  "(identical under both execution engines)",
        ),
    )

    for result in results:
        assert result.blocked == EXPECTED[result.name], result.name
    assert [
        (r.name, r.blocked, r.kill_reason) for r in by_engine["interp"]
    ] == [
        (r.name, r.blocked, r.kill_reason) for r in by_engine["chained"]
    ]
