"""Plan generation: determinism, bounds, kind selection."""

import dataclasses

import pytest

from repro.configs import CONFIG_NAMES, CONFIGS, configs_named
from repro.faults.plan import (
    ALLOWED_FAMILIES,
    EXPECTATIONS,
    KINDS,
    SCHED_KINDS,
    WARMUP_TRAPS,
    generate_plans,
)
from repro.kernel.auth import VIOLATION_FAMILIES

TRAPS = {"loop": 19, "victim": 3, "netserver": 28}
SIZES = {
    ("loop", ".authdata"): 160,
    ("loop", ".authstr"): 90,
    ("victim", ".authdata"): 200,
    ("victim", ".authstr"): 120,
}


def test_same_seed_same_plans():
    a = generate_plans(42, 60, TRAPS, SIZES)
    b = generate_plans(42, 60, TRAPS, SIZES)
    assert a == b


def test_different_seed_different_plans():
    a = generate_plans(1, 60, TRAPS, SIZES)
    b = generate_plans(2, 60, TRAPS, SIZES)
    assert a != b


def test_every_kind_represented_and_bounded():
    plans = generate_plans(7, 100, TRAPS, SIZES)
    seen = {plan.kind for plan in plans}
    assert seen == set(KINDS)
    for plan in plans:
        assert plan.expected == EXPECTATIONS[plan.kind]
        if plan.kind in SCHED_KINDS:
            assert plan.workload == "loop-sched"
            assert plan.timeslice >= 1
            continue
        assert plan.trap_index < TRAPS[plan.workload]
        if plan.section:
            assert plan.offset < SIZES[(plan.workload, plan.section)]
        if plan.kind in ("prewarm-flip", "trap-replay"):
            # Post-warm-up by construction: the caches are hot.
            assert plan.trap_index >= WARMUP_TRAPS
            assert plan.workload == "loop"
        if plan.kind == "trap-replay":
            # Never the final exit trap.
            assert plan.trap_index < TRAPS["loop"] - 1


def test_kind_filter():
    plans = generate_plans(7, 10, TRAPS, SIZES, kinds=("mac-flip",))
    assert all(plan.kind == "mac-flip" for plan in plans)
    with pytest.raises(ValueError):
        generate_plans(7, 10, TRAPS, SIZES, kinds=("not-a-kind",))


def test_plans_are_frozen_and_serializable():
    (plan,) = generate_plans(7, 1, TRAPS, SIZES)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.bit = 0
    assert dataclasses.asdict(plan)["kind"] == plan.kind


def test_config_roster():
    # The three engine configurations the coverage contract names.
    assert CONFIG_NAMES == ("interp", "chained", "no-fastpath")
    assert configs_named() == CONFIGS
    assert [c.name for c in configs_named(["interp", "no-fastpath"])] == [
        "interp", "no-fastpath"
    ]
    with pytest.raises(ValueError):
        configs_named(["warp-drive"])


def test_allowed_families_are_real_checker_families():
    for kind, families in ALLOWED_FAMILIES.items():
        assert kind in KINDS
        for family in families:
            assert family in VIOLATION_FAMILIES
