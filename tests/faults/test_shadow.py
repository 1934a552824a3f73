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
from repro.policy.record import read_policy_state, state_mac_payload

KEY = Key.from_passphrase("shadow-oracle-tests")
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


_EXECUTE = VerifierJit.execute


class _AnyBlock:
    def __contains__(self, block):
        return True


def _no_predecessor_test(self, vm, process):
    """A planted bug: the thunk accepts any lastBlock whose lbMAC
    verifies, as if its predecessor test were gone."""
    thunk = self.thunk_at(vm.pc)
    if thunk is not None and thunk.control is not None:
        polstate, offset, _, block_prefix = thunk.control
        thunk.control = (polstate, offset, _AnyBlock(), block_prefix)
    return _EXECUTE(self, vm, process)


def _commit_before_verify(self, vm, process):
    """A planted bug: the thunk advances the counter and rewrites the
    polstate before its lbMAC verify, so a trap it then rejects leaves
    state the full check accepts behind.  Traps this bug cannot touch
    (no thunk, no control flow, a stale guard, a wrong register) take
    the real path."""
    thunk = self.thunk_at(vm.pc)
    regs = vm.regs
    if (
        thunk is None
        or thunk.control is None
        or thunk.patterns
        or (regs[0], regs[7]) != (thunk.syscall_number, thunk.record_ptr)
        or any(region.version != version for region, version in thunk.guards)
        or any(regs[index] != value for index, value in thunk.reg_checks)
    ):
        return _EXECUTE(self, vm, process)
    polstate, offset, predecessors, block_prefix = thunk.control
    address = polstate.start + offset
    last_block, lb_mac = read_policy_state(vm.memory, address)
    counter = process.auth_counter
    process.auth_counter = counter + 1
    new_mac = self._provider.tag(state_mac_payload(thunk.block_id, counter + 1))
    vm.memory.write(address, block_prefix + new_mac, force=True)
    if not self._provider.verify(state_mac_payload(last_block, counter), lb_mac):
        return None
    if last_block not in predecessors:
        return None
    self._metrics.inc("verifier.thunk_hits")
    return thunk


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


def test_dropped_predecessor_test_fails_the_sweep(monkeypatch):
    # A replayed trap carries a current lbMAC; only the predecessor
    # test rejects it, so without it the thunk accepts the replay and
    # the oracle's full check does not.
    monkeypatch.setattr(VerifierJit, "execute", _no_predecessor_test)
    report = run_sweep(
        key=KEY, seed=3, count=6, config_names=["chained"], kinds=["trap-replay"],
    )
    assert not report.ok
    missed = [run for run in report.runs if run["outcome"] == "missed"]
    assert missed and all(
        any("full check rejects: control flow violation" in line
            for line in run.get("shadow_disagreements", ()))
        for run in missed
    )


def test_commit_before_the_lbmac_verify_fails_the_sweep(monkeypatch):
    # The premature commit launders a corrupted polstate or a desynced
    # counter: the full check then sees a fresh, valid state and kills
    # for the wrong reason.  The oracle sees the fallback move the
    # counter.
    monkeypatch.setattr(VerifierJit, "execute", _commit_before_verify)
    report = run_sweep(
        key=KEY, seed=3, count=12, config_names=["chained"],
        kinds=["counter-desync", "lastblock-flip"],
    )
    assert not report.ok
    missed = [run for run in report.runs if run["outcome"] == "missed"]
    assert missed and all(
        any("fell back after moving the counter" in line
            for line in run.get("shadow_disagreements", ()))
        for run in missed
    )
