"""Oracle behavior: roster-wide equality, signature contents,
divergence detection on synthetic outcomes."""

import dataclasses

from repro.crypto import Key
from repro.conformance.grammar import GenOp, ProgramSpec
from repro.configs import CONFIGS
from repro.conformance.oracle import (
    ProgramOutcome,
    divergences,
    install_spec,
    run_all_configs,
    run_program,
    spec_diverges,
)

KEY = Key.from_passphrase("conformance-oracle-tests")

#: One op from each syscall family plus a near-budget spin: the
#: broadest single program the oracle tests run.
BROAD_SPEC = ProgramSpec(
    program_id=0,
    ops=(
        GenOp("write", 0, 8),
        GenOp("spin", extra=67),
        GenOp("smc", 5, 11),
        GenOp("forkpipe", 2),
        GenOp("socket", 1),
    ),
)


def test_all_five_configs_agree():
    outcomes = run_all_configs(KEY, install_spec(BROAD_SPEC, KEY))
    assert set(outcomes) == {config.name for config in CONFIGS}
    assert divergences(outcomes) == []
    for outcome in outcomes.values():
        assert outcome.clean
        assert outcome.exit_status == 0


def test_outcome_has_trace_digests_and_families():
    config = CONFIGS[0]
    outcome = run_program(KEY, config, install_spec(BROAD_SPEC, KEY))
    # fork twice (pipe + socket ops) -> three processes.
    assert len(outcome.per_task) == 3
    assert len(outcome.digests) == 3
    assert outcome.families == ("", "", "")
    names = [name for _pid, name in outcome.trace]
    assert "write" in names and "fork" in names and "socket" in names
    pids = {pid for pid, _name in outcome.trace}
    assert len(pids) == 3


def test_fingerprint_is_stable_across_runs():
    installed = install_spec(BROAD_SPEC, KEY)
    config = CONFIGS[0]
    first = run_program(KEY, config, installed)
    second = run_program(KEY, config, installed)
    assert first.fingerprint() == second.fingerprint()
    assert first.comparable() == second.comparable()


def test_spec_diverges_false_for_clean_program():
    assert not spec_diverges(BROAD_SPEC, KEY)


def _outcome(trace):
    return ProgramOutcome(
        per_task=((0, "", False, "", b"", b"", 10),),
        trace=trace,
        digests=("d",),
        families=("",),
        killed=False,
        kill_reasons="",
        exit_status=0,
    )


def test_divergences_flags_differing_configs():
    outcomes = {
        "interp": _outcome(((1, "write"),)),
        "chained": _outcome(((1, "write"),)),
        "no-fastpath": _outcome(((1, "read"),)),
    }
    assert divergences(outcomes) == ["no-fastpath"]
    outcomes["no-fastpath"] = _outcome(((1, "write"),))
    assert divergences(outcomes) == []


def test_comparable_excludes_noncompared_fields():
    """kill_reasons and exit_status ride along for reporting but the
    cross-config equality ignores them (they are derivable from the
    compared per-task signatures)."""
    outcome = _outcome(((1, "write"),))
    assert outcome.comparable() == (
        outcome.per_task, outcome.trace, outcome.digests, outcome.families
    )
    assert "exit_status" not in repr(outcome.comparable())


def test_shadow_disagreement_is_a_divergence():
    """A config whose shadow oracle disagreed diverges even when its
    signature matches — the reference config included."""
    outcomes = {
        "interp": _outcome(((1, "write"),)),
        "chained": _outcome(((1, "write"),)),
    }
    outcomes["interp"] = dataclasses.replace(
        outcomes["interp"], shadow_disagreements=("pid 100 site 0x08048000: x",)
    )
    assert divergences(outcomes) == ["interp"]


def test_real_runs_are_shadow_verified():
    outcomes = run_all_configs(KEY, install_spec(BROAD_SPEC, KEY))
    assert outcomes["chained"].shadow_checked > 0
    assert outcomes["no-fastpath"].shadow_checked == 0
    assert all(not out.shadow_disagreements for out in outcomes.values())
