"""Per-kind injector behaviour: hand-crafted plans with known outcomes.

These pin the classification semantics the sweep relies on: each
must-detect kind produces a kill in its own violation family, a flip
aimed at provably dead state leaves the run bit-identical, and the
scheduler perturbations never change a per-process result.
"""

import pytest

from repro.crypto import Key
from repro.faults.harness import classify, run_workload
from repro.configs import CONFIGS
from repro.faults.plan import FaultPlan
from repro.faults.targets import build_workloads
from repro.kernel.auth import violation_family

KEY = Key.from_passphrase("fault-injector-tests")
INTERP = CONFIGS[0]
CHAINED = CONFIGS[1]


@pytest.fixture(scope="module")
def workloads():
    return build_workloads(KEY)


@pytest.fixture(scope="module")
def references(workloads):
    return {
        (config.name, name): run_workload(KEY, config, workloads, name)
        for config in (INTERP, CHAINED)
        for name in ("loop", "victim", "loop-sched")
    }


def _fault(plan, workloads, references, config=CHAINED):
    outcome = run_workload(
        KEY, config, workloads, plan.workload, plan=plan
    )
    verdict = classify(
        plan, references[(config.name, plan.workload)], outcome
    )
    return outcome, verdict


def test_mac_flip_dies_as_call_mac(workloads, references):
    plan = FaultPlan(
        fault_id=0, kind="mac-flip", workload="loop",
        trap_index=4, offset=3, bit=5, expected="detected",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert outcome.killed
    assert violation_family(outcome.kill_reason) == "call-mac"
    assert verdict == "detected"


def test_as_flip_detected(workloads, references):
    plan = FaultPlan(
        fault_id=1, kind="as-flip", workload="victim",
        trap_index=1, offset=37, bit=2, expected="detected",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert outcome.killed
    assert verdict == "detected"


def test_mac_transplant_dies_as_call_mac(workloads, references):
    plan = FaultPlan(
        fault_id=2, kind="mac-transplant", workload="loop",
        trap_index=7, offset=1, expected="detected",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert outcome.killed
    assert violation_family(outcome.kill_reason) == "call-mac"
    assert verdict == "detected"


def test_reg_tamper_high_bit_syscall_number(workloads, references):
    # offset ≡ 0 (mod targets) selects r0; bit 30 is outside the
    # 16-bit encoded domain — exactly the truncation hole the checker's
    # domain guard exists for.
    plan = FaultPlan(
        fault_id=3, kind="reg-tamper", workload="loop",
        trap_index=18, offset=0, bit=30, expected="detected",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert outcome.killed
    assert "unauthenticatable syscall number" in outcome.kill_reason
    assert verdict == "detected"


def test_counter_desync_dies_as_policy_state(workloads, references):
    plan = FaultPlan(
        fault_id=4, kind="counter-desync", workload="loop",
        trap_index=9, delta=3, expected="detected",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert outcome.killed
    assert violation_family(outcome.kill_reason) == "policy-state"
    assert verdict == "detected"


def test_lastblock_flip_dies_as_policy_state(workloads, references):
    plan = FaultPlan(
        fault_id=5, kind="lastblock-flip", workload="loop",
        trap_index=2, offset=6, bit=1, expected="detected",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert outcome.killed
    assert violation_family(outcome.kill_reason) == "policy-state"
    assert verdict == "detected"


@pytest.mark.parametrize("config", [INTERP, CHAINED], ids=lambda c: c.name)
def test_trap_replay_dies_as_control_flow(workloads, references, config):
    # Trap 10 is a warm open: its replay presents the open site's own
    # block under a current lbMAC, and the thunk (on chained) must
    # reject it at the predecessor test, as the full check does.
    plan = FaultPlan(
        fault_id=6, kind="trap-replay", workload="loop",
        trap_index=10, expected="detected",
    )
    outcome, verdict = _fault(plan, workloads, references, config=config)
    assert outcome.killed
    assert "control flow violation" in outcome.kill_reason
    assert violation_family(outcome.kill_reason) == "control-flow"
    assert outcome.shadow_disagreements == ()
    assert verdict == "detected"


def test_dead_state_flip_is_benign(workloads, references):
    # The victim's final authenticated trap is execve; a .authdata flip
    # injected at that trap can only be observed if some *later* trap
    # reads the flipped record — and for byte 0 (the read site's
    # polDes, already past) there is none.  The run must be
    # bit-identical, classified benign, NOT silently divergent.
    plan = FaultPlan(
        fault_id=6, kind="record-flip", workload="victim",
        trap_index=2, offset=0, bit=0, section=".authdata", expected="any",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert not outcome.killed
    assert verdict == "benign"


def test_sched_jitter_is_benign(workloads, references):
    plan = FaultPlan(
        fault_id=7, kind="sched-jitter", workload="loop-sched",
        timeslice=37, expected="benign",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert not outcome.killed
    assert verdict == "benign"


def test_sched_preempt_rotation_is_benign(workloads, references):
    plan = FaultPlan(
        fault_id=8, kind="sched-preempt", workload="loop-sched",
        timeslice=3, rotate_every=2, expected="benign",
    )
    outcome, verdict = _fault(plan, workloads, references)
    assert not outcome.killed
    assert verdict == "benign"


def test_detection_is_engine_independent(workloads, references):
    # The same plan must produce the same verdict on the reference
    # interpreter and the chained threaded engine.
    plan = FaultPlan(
        fault_id=9, kind="mac-flip", workload="loop",
        trap_index=10, offset=8, bit=7, expected="detected",
    )
    for config in (INTERP, CHAINED):
        outcome, verdict = _fault(plan, workloads, references, config=config)
        assert verdict == "detected", config.name


def test_misattributed_kill_is_missed(workloads, references):
    # classify() must not accept any kill: a counter desync that
    # somehow died as (say) a pattern violation would be a coverage
    # bug.  Exercise the rule directly with a doctored outcome.
    from repro.faults.harness import RunOutcome

    plan = FaultPlan(
        fault_id=10, kind="counter-desync", workload="loop",
        trap_index=1, delta=1, expected="detected",
    )
    reference = references[(CHAINED.name, "loop")]
    doctored = RunOutcome(
        signature=("x",), killed=True,
        kill_reason="argument 0 does not match pattern",
    )
    assert classify(plan, reference, doctored) == "missed"


def test_swallowed_must_detect_fault_is_missed(workloads, references):
    from repro.faults.harness import RunOutcome

    plan = FaultPlan(
        fault_id=11, kind="mac-flip", workload="loop",
        trap_index=0, expected="detected",
    )
    reference = references[(CHAINED.name, "loop")]
    swallowed = RunOutcome(
        signature=reference.signature, killed=False, kill_reason=""
    )
    assert classify(plan, reference, swallowed) == "missed"
