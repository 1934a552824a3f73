"""Fault plans: the *what/when/where* of one injected fault.

A :class:`FaultPlan` is a pure data description of a single fault —
which corruption to apply (``kind``), when to apply it (the Nth
authenticated trap, or a scheduler parameter), and where (a seeded
byte offset / bit index / register selector).  Plans carry no live
object references, so the same plan can be replayed against every
engine configuration and serialized verbatim into the coverage report.

Everything is derived from one :class:`random.Random` seeded by the
sweep seed; together with the simulator's own determinism (fixed
epoch, no host randomness, instruction-count scheduling) this makes a
whole sweep — plans, outcomes, report JSON — bit-identical across
re-runs with the same seed.

The fault model follows the hardware-fault literature the motivation
cites (SFP, SFIP): single-event upsets in policy material and MAC
state, tampered trap-time register/immediate values, desynchronized
replay nonces, and perturbed preemption points — not crafted inputs
(those are the attack battery's job).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Every fault kind the battery injects.  ``expected`` outcome classes:
#:
#: - must-detect — the corruption lands on material a §3.4 check reads
#:   before the trap can proceed, so the kernel must fail-stop with a
#:   correctly attributed reason;
#: - detect-or-benign — a seeded flip that may land on dead state (a
#:   record whose site never traps again, inter-record padding); dead
#:   hits must leave the run bit-identical;
#: - must-benign — scheduler perturbations: preemption order must never
#:   change any per-process result.
KINDS = (
    "record-flip",      # random bit anywhere in .authdata
    "mac-flip",         # bit in the live trap's callMAC
    "as-flip",          # bit in the live trap's AS material (mac/len/content)
    "mac-transplant",   # replace the live callMAC with another site's
    "reg-tamper",       # bit in a constrained register at trap time
    "sock-reg-tamper",  # bit in a send ptr / recv length (netserver)
    "prewarm-flip",     # post-warm-up bit in a pre-verified span
    "counter-desync",   # bump the kernel's per-process auth counter
    "lastblock-flip",   # bit in the .polstate lastBlock/lbMAC cell
    "sched-jitter",     # seeded timeslice under the scheduler
    "sched-preempt",    # tiny timeslice + seeded run-queue rotation
)

#: kind -> expected outcome class (see above).
EXPECTATIONS = {
    "record-flip": "any",
    "mac-flip": "detected",
    "as-flip": "detected",
    "mac-transplant": "detected",
    "reg-tamper": "detected",
    "sock-reg-tamper": "detected",
    "prewarm-flip": "any",
    "counter-desync": "detected",
    "lastblock-flip": "detected",
    "sched-jitter": "benign",
    "sched-preempt": "benign",
}

#: kind -> violation families (see repro.kernel.auth.VIOLATION_FAMILIES)
#: that count as a *correctly attributed* detection.  A kill whose
#: reason falls outside the kind's set is a misattribution and is
#: classified MISSED, not detected.
ALLOWED_FAMILIES = {
    # A random .authdata flip can land in any record field, so any
    # checker family is a correct attribution.
    "record-flip": {
        "record", "call-mac", "string-auth", "policy-state",
        "control-flow", "pattern",
    },
    "mac-flip": {"call-mac"},
    # An AS flip surfaces as a call-MAC mismatch (the encoded call
    # embeds the AS header), a string-auth failure (content flips), or
    # a record fault (a flipped length walks off mapped memory).
    "as-flip": {"call-mac", "string-auth", "record"},
    "mac-transplant": {"call-mac"},
    "reg-tamper": {"call-mac", "record", "string-auth", "pattern"},
    # Every netserver send passes its buffer pointer — and every recv
    # its length — as an li constant, so the flip always violates an
    # Immediate constraint.
    "sock-reg-tamper": {"call-mac"},
    "prewarm-flip": {
        "record", "call-mac", "string-auth", "policy-state",
        "control-flow", "pattern",
    },
    "counter-desync": {"policy-state"},
    "lastblock-flip": {"policy-state"},
    "sched-jitter": set(),
    "sched-preempt": set(),
}

#: Kinds that run the multiprogrammed workload under the scheduler.
SCHED_KINDS = ("sched-jitter", "sched-preempt")

#: Kinds that run the netserver workload (scheduler + loopback sockets).
NET_KINDS = ("sock-reg-tamper",)

#: Traps to let pass before a prewarm flip, so every loop-workload site
#: has been fully verified at least once (its verifier thunk compiled)
#: and the flip genuinely stresses the write-version guards and the
#: thunk refresh over pre-verified spans.
WARMUP_TRAPS = 7


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault (see module docstring)."""

    fault_id: int
    kind: str
    workload: str
    #: Inject right before the Nth authenticated trap (trap-triggered
    #: kinds only; the corruption therefore lands on that trap's own
    #: verification for live-material kinds).
    trap_index: int = 0
    #: Seeded selector: byte offset within the target span, or index
    #: into the constrained-register / donor-record list.
    offset: int = 0
    bit: int = 0
    #: Section for span flips (record-flip / prewarm-flip).
    section: str = ""
    #: Counter increment for counter-desync.
    delta: int = 0
    #: Scheduler parameters (sched kinds).
    timeslice: int = 0
    rotate_every: int = 0
    #: Expected outcome class: "detected" | "benign" | "any".
    expected: str = "detected"

    def describe(self) -> str:
        where = self.section or f"trap {self.trap_index}"
        return f"{self.kind} on {self.workload} ({where})"


def generate_plans(
    seed: int,
    count: int,
    traps_by_workload: dict,
    section_sizes: dict,
    kinds=None,
) -> list[FaultPlan]:
    """Derive ``count`` plans from ``seed``.

    ``traps_by_workload`` maps workload name -> authenticated-trap
    count of the clean run (bit-identical across configs by the engine
    equivalence contract, so any config's reference provides it).
    ``section_sizes`` maps (workload, section) -> byte length, used to
    bound span-flip offsets.  Same arguments -> identical plan list.
    """
    rng = random.Random(seed)
    chosen_kinds = tuple(kinds) if kinds else KINDS
    for kind in chosen_kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    plans: list[FaultPlan] = []
    for fault_id in range(count):
        kind = chosen_kinds[fault_id % len(chosen_kinds)]
        if kind in SCHED_KINDS:
            plans.append(_sched_plan(fault_id, kind, rng))
        else:
            plans.append(
                _trap_plan(
                    fault_id, kind, rng, traps_by_workload, section_sizes
                )
            )
    return plans


def _trap_plan(
    fault_id: int,
    kind: str,
    rng: random.Random,
    traps_by_workload: dict,
    section_sizes: dict,
) -> FaultPlan:
    if kind == "prewarm-flip":
        workload = "loop"  # needs repeated traps per site to warm up
    elif kind in NET_KINDS:
        workload = "netserver"  # sockets + scheduler; forked clients
    else:
        # Mostly the loop workload (warm sites, many traps); the victim
        # adds string-argument material and an execve site.
        workload = "loop" if rng.random() < 0.7 else "victim"
    traps = traps_by_workload[workload]
    if kind == "prewarm-flip":
        trap_index = rng.randrange(WARMUP_TRAPS, traps)
        section = rng.choice((".authdata", ".authstr"))
    elif kind in ("record-flip",):
        trap_index = rng.randrange(traps)
        section = ".authdata"
    else:
        trap_index = rng.randrange(traps)
        section = ""
    offset = rng.randrange(0, 1 << 16)
    if section:
        offset = rng.randrange(section_sizes[(workload, section)])
    return FaultPlan(
        fault_id=fault_id,
        kind=kind,
        workload=workload,
        trap_index=trap_index,
        offset=offset,
        bit=rng.randrange(32),
        section=section,
        delta=1 + rng.randrange(8),
        expected=EXPECTATIONS[kind],
    )


def _sched_plan(fault_id: int, kind: str, rng: random.Random) -> FaultPlan:
    if kind == "sched-jitter":
        timeslice = rng.randrange(1, 400)
        rotate_every = 0
    else:  # sched-preempt: near-minimal slices plus run-queue rotation
        timeslice = rng.randrange(1, 40)
        rotate_every = 1 + rng.randrange(4)
    return FaultPlan(
        fault_id=fault_id,
        kind=kind,
        workload="loop-sched",
        timeslice=timeslice,
        rotate_every=rotate_every,
        expected="benign",
    )
