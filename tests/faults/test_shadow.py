"""The shadow-verify oracle: every thunk-accepted trap is re-run through
the paper's full check on a private copy of the pre-trap state."""

import dataclasses

import pytest

from repro.configs import configs_named
from repro.crypto import Key
from repro.faults import run_sweep
from repro.faults.harness import classify, run_workload
from repro.faults.plan import WARMUP_TRAPS, FaultPlan
from repro.faults.targets import build_workloads
from repro.kernel.auth import AuthViolation, decode_call
from repro.kernel.verifierjit import VerifierJit, _guards

KEY = Key.from_passphrase("shadow-oracle-tests", provider="fast-hmac")
CHAINED, NO_FASTPATH = configs_named(["chained", "no-fastpath"])


@pytest.fixture(scope="module")
def workloads():
    return build_workloads(KEY)


def _path_flip(workloads) -> FaultPlan:
    """Flip one bit of the open site's "/etc/motd" AS content just
    before a warm open trap: "/dtc/motd" makes the open fail quietly
    (the loop ignores its result), so the run's signature alone cannot
    tell a wrongly accepted trap from the clean run."""
    from repro.binfmt import link

    image = link(workloads["loop"].binary)
    offset = image.address_of("path") + 1 - image.segment(".authstr").vaddr
    return FaultPlan(
        fault_id=0, kind="prewarm-flip", workload="loop",
        trap_index=WARMUP_TRAPS, offset=offset, bit=0, section=".authstr",
        expected="any",
    )


def _weak_refresh(self, vm, thunk):
    """A planted bug: a refresh that skips the AS-content comparison."""
    try:
        live = decode_call(vm)
    except AuthViolation:
        return False
    if live.encoded_call != thunk.call.encoded_call:
        return False
    if live.record.call_mac != thunk.call.record.call_mac:
        return False
    thunk.guards = _guards(vm.memory, vm.regs[7], live)
    return True


@pytest.mark.parametrize("workload", ["loop", "victim", "loop-sched", "netserver"])
def test_clean_runs_agree(workloads, workload):
    outcome = run_workload(KEY, CHAINED, workloads, workload)
    # The victim traps at each site once: no thunk ever accepts there.
    assert (outcome.shadow_checked > 0) == (workload != "victim")
    assert outcome.shadow_disagreements == ()
    # No thunks without the fast path, so nothing to shadow.
    assert run_workload(KEY, NO_FASTPATH, workloads, workload).shadow_checked == 0


def test_real_refresh_detects_the_content_flip(workloads):
    plan = _path_flip(workloads)
    reference = run_workload(KEY, CHAINED, workloads, "loop")
    outcome = run_workload(KEY, CHAINED, workloads, "loop", plan=plan)
    assert outcome.shadow_disagreements == ()
    assert classify(plan, reference, outcome) == "detected"
    assert "failed integrity check" in outcome.kill_reason


def test_weakened_refresh_fails_through_the_oracle(workloads, monkeypatch):
    plan = _path_flip(workloads)
    reference = run_workload(KEY, CHAINED, workloads, "loop")
    monkeypatch.setattr(VerifierJit, "_refresh", _weak_refresh)
    outcome = run_workload(KEY, CHAINED, workloads, "loop", plan=plan)
    assert not outcome.killed
    assert any("full check rejects" in line for line in outcome.shadow_disagreements)
    assert classify(plan, reference, outcome) == "missed"
    # The signature alone would have passed the run as benign.
    blind = dataclasses.replace(outcome, shadow_disagreements=())
    assert classify(plan, reference, blind) == "benign"


def test_weakened_refresh_fails_the_sweep(monkeypatch):
    monkeypatch.setattr(VerifierJit, "_refresh", _weak_refresh)
    report = run_sweep(
        key=KEY, seed=3, count=40, config_names=["chained"],
        kinds=["prewarm-flip"],
    )
    assert not report.ok
    missed = [run for run in report.runs if run["outcome"] == "missed"]
    assert all(run["shadow_disagreements"] for run in missed)
    assert all(run["plan"]["section"] == ".authstr" for run in missed)
