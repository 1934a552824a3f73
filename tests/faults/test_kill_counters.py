"""``auth.killed.<family>``: every §3.4 kill bumps the counter of its
violation family, once, so the counters alone say why a pid died.

The kills come from the fault battery's own seeded plans (as
``repro faults --count 40`` generates them), each replayed on the
chained config with the kernel it ran on kept for inspection.
"""

from collections import Counter

import pytest

from repro.asm import assemble
from repro.configs import configs_named
from repro.crypto import Key
from repro.faults import harness
from repro.faults.harness import run_workload
from repro.faults.plan import generate_plans
from repro.faults.targets import build_workloads, section_sizes
from repro.kernel import EnforcementMode, Kernel
from repro.kernel.auth import VIOLATION_FAMILIES, violation_family
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("kill-counter-tests")
SEED = 20050926
COUNT = 40
PREFIX = "auth.killed."


def _kill_counters(kernel) -> dict:
    return {name: value for name, value in kernel.metrics if name.startswith(PREFIX)}


def _killed_families(outcome) -> list:
    """The violation family of each killed task of a run, in pid order
    (``None`` for a kill that did not come from the checker)."""
    return [
        violation_family(reason)
        for _status, killed, reason, *_ in outcome.signature
        if killed
    ]


@pytest.fixture(scope="module")
def battery():
    """``(clean runs, faulted runs)``, each a list of ``(plan or None,
    outcome, kernel)``."""
    config = configs_named(["chained"])[0]
    workloads = build_workloads(KEY)
    kernels = []
    make_kernel = harness.make_kernel

    def keeping(*args, **kwargs):
        kernel = make_kernel(*args, **kwargs)
        kernels.append(kernel)
        return kernel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "make_kernel", keeping)
        clean = []
        traps = {}
        for name in ("loop", "victim", "loop-sched", "netserver"):
            outcome = run_workload(KEY, config, workloads, name)
            clean.append((None, outcome, kernels[-1]))
            if name != "loop-sched":
                traps[name] = outcome.traps
        plans = generate_plans(SEED, COUNT, traps, section_sizes(workloads))
        faulted = []
        for plan in plans:
            outcome = run_workload(KEY, config, workloads, plan.workload, plan=plan)
            faulted.append((plan, outcome, kernels[-1]))
    return clean, faulted


def test_accepted_traps_count_no_kill(battery):
    clean, _ = battery
    for _, outcome, kernel in clean:
        assert not outcome.killed
        assert kernel.metrics.get("fastpath.hits") + kernel.metrics.get("fastpath.misses")
        assert _kill_counters(kernel) == {}


def test_each_kill_bumps_its_family_once(battery):
    _, faulted = battery
    for plan, outcome, kernel in faulted:
        families = [family for family in _killed_families(outcome) if family is not None]
        expected = Counter(PREFIX + family for family in families)
        assert _kill_counters(kernel) == dict(expected), (plan, outcome.kill_reason)


def test_the_battery_reaches_every_family_it_attributes(battery):
    _, faulted = battery
    seen: dict = {}
    for plan, outcome, kernel in faulted:
        families = _killed_families(outcome)
        if len(families) == 1 and families[0] is not None:
            # One kill: exactly one counter, at 1.
            assert _kill_counters(kernel) == {PREFIX + families[0]: 1}
            seen.setdefault(families[0], plan.kind)
    assert set(seen) <= set(VIOLATION_FAMILIES)
    assert {"record", "call-mac", "string-auth", "policy-state", "control-flow"} <= set(seen)


def test_an_unauthenticated_binary_counts_as_unauthenticated():
    # The one family the battery's kinds never reach in a checked
    # trap: a legacy binary's first plain SYS under enforcing mode.
    source = (
        ".section .text\n.global _start\n_start:\n    call sys_getpid\n"
        "    li r1, 0\n    call sys_exit\n"
        + runtime_source("linux", ("getpid", "exit"))
    )
    kernel = Kernel(key=KEY, mode=EnforcementMode.ENFORCE)
    result = kernel.run(assemble(source, metadata={"program": "legacy"}))
    assert result.killed
    assert violation_family(result.kill_reason) == "unauthenticated"
    assert _kill_counters(kernel) == {PREFIX + "unauthenticated": 1}
