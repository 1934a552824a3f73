"""The sock-reg-tamper fault kind: netserver-targeted injection.

Pins the networking extension of the fault battery: plan generation
routes the kind onto the netserver workload, the injector's register
flip at an authenticated send/recv trap dies in the call-MAC family
on every engine config, and a focused sweep reaches zero MISSED.
"""

import pytest

from repro.crypto import Key
from repro.faults import run_sweep
from repro.faults.harness import classify, run_workload
from repro.configs import CONFIGS
from repro.faults.plan import (
    ALLOWED_FAMILIES,
    EXPECTATIONS,
    KINDS,
    NET_KINDS,
    FaultPlan,
    generate_plans,
)
from repro.faults.targets import build_workloads
from repro.kernel.auth import violation_family

KEY = Key.from_passphrase("sock-fault-tests", provider="fast-hmac")
INTERP = CONFIGS[0]
CHAINED = CONFIGS[1]


@pytest.fixture(scope="module")
def workloads():
    return build_workloads(KEY)


@pytest.fixture(scope="module")
def references(workloads):
    return {
        config.name: run_workload(KEY, config, workloads, "netserver")
        for config in (INTERP, CHAINED)
    }


class TestPlanGeneration:
    def test_kind_registered_with_expectations(self):
        assert "sock-reg-tamper" in KINDS
        assert NET_KINDS == ("sock-reg-tamper",)
        assert EXPECTATIONS["sock-reg-tamper"] == "detected"
        assert ALLOWED_FAMILIES["sock-reg-tamper"] == {"call-mac"}

    def test_plans_target_the_netserver(self, workloads, references):
        from repro.faults.targets import section_sizes

        traps = {"netserver": references[INTERP.name].traps}
        plans = generate_plans(
            7, 10, traps, section_sizes(workloads),
            kinds=("sock-reg-tamper",),
        )
        assert len(plans) == 10
        for plan in plans:
            assert plan.workload == "netserver"
            assert plan.expected == "detected"
            assert 0 <= plan.trap_index < references[INTERP.name].traps


class TestInjection:
    def test_clean_netserver_references_agree(self, references):
        assert (
            references[INTERP.name].signature[:2]
            == references[CHAINED.name].signature[:2]
        )
        assert references[INTERP.name].traps == references[CHAINED.name].traps

    @pytest.mark.parametrize("config", (INTERP, CHAINED),
                             ids=lambda c: c.name)
    def test_register_flip_dies_as_call_mac(
        self, workloads, references, config
    ):
        plan = FaultPlan(
            fault_id=0, kind="sock-reg-tamper", workload="netserver",
            trap_index=5, bit=6, expected="detected",
        )
        outcome = run_workload(
            KEY, config, workloads, "netserver", plan=plan
        )
        assert outcome.killed
        assert violation_family(outcome.kill_reason) == "call-mac"
        assert classify(plan, references[config.name], outcome) == "detected"

    def test_late_trap_index_also_detected(self, workloads, references):
        # An index beyond the warmup sends lands on a different site
        # (likely a client, or a recv): still must die fail-stop.
        plan = FaultPlan(
            fault_id=1, kind="sock-reg-tamper", workload="netserver",
            trap_index=references[CHAINED.name].traps - 2, bit=3,
            expected="detected",
        )
        outcome = run_workload(
            KEY, config=CHAINED, workloads=workloads,
            workload="netserver", plan=plan,
        )
        assert outcome.killed
        assert violation_family(outcome.kill_reason) == "call-mac"


class TestFocusedSweep:
    def test_zero_missed(self):
        report = run_sweep(
            key=KEY, seed=404, count=4, kinds=("sock-reg-tamper",),
            config_names=("interp", "chained"),
        )
        assert report.ok, report.summary()
        counts = report.by_kind["sock-reg-tamper"]
        assert counts["missed"] == 0
        assert counts["detected"] == 4 * 2
        assert report.traps_by_workload["netserver"] > 0
