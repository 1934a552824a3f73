"""Run one fault plan on one engine configuration and classify it.

Classification compares the faulted run against the clean *reference*
run of the same workload on the same config:

- **detected** — the kernel fail-stopped the process AND the kill
  reason's check family is one the fault kind legitimately trips
  (:data:`~repro.faults.plan.ALLOWED_FAMILIES`).  A kill with a
  misattributed reason is NOT a detection: it means the checks fired
  for the wrong cause, which is a coverage bug worth failing on.
- **benign** — the run is bit-identical to the reference (status,
  kill state, both output streams, cycles, instructions).  Only legal
  for faults that may land on dead state and for scheduler
  perturbations (where it is *required*).
- **missed** — everything else: a run that diverged without being
  killed, a must-detect fault that was silently swallowed, a
  misattributed kill, a scheduler perturbation that changed any
  per-process result, or a trap a verifier thunk accepted that the
  shadow oracle's full check did not confirm
  (:mod:`repro.faults.shadow`).  Any miss is a hard failure of the
  sweep.

Reference signatures double as an engine-equivalence check: the sweep
asserts the clean signature of every workload is identical across all
configs before injecting anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binfmt import link
from repro.crypto import Key
from repro.faults.inject import TrapSpy, make_injector
from repro.faults.plan import ALLOWED_FAMILIES, SCHED_KINDS, FaultPlan
from repro.faults.shadow import ShadowVerifier
from repro.faults.targets import SCHED_INSTANCES, VICTIM_STDIN, make_kernel
from repro.kernel.auth import violation_family
from repro.kernel.sched.scheduler import Scheduler
from repro.kernel.syscalls import SYSCALL_NUMBERS

#: Timeslice of every run except the scheduler kinds', which use the
#: plan's seeded slice; per-task results must be identical either way.
REFERENCE_TIMESLICE = 200


@dataclass(frozen=True)
class RunOutcome:
    """What one run produced, reduced to its comparable signature."""

    signature: tuple
    killed: bool
    kill_reason: str
    traps: int = 0
    #: Thunk-accepted traps the shadow oracle re-verified, and the
    #: ones its full check did not confirm (never part of the signature).
    shadow_checked: int = 0
    shadow_disagreements: tuple = ()


def run_workload(
    key: Key,
    config,
    workloads: dict,
    workload: str,
    plan: FaultPlan = None,
    recorder=None,
) -> RunOutcome:
    """Execute ``workload`` on a fresh kernel under one scheduler run;
    with a plan, arm its injector (or, for the scheduler kinds, its
    timeslice and run-queue rotation).  ``plan=None`` is the clean
    reference run.

    The spy shadows the kernel's trap handler, so it sees every
    process's traps: forked netserver clients and an exec'd image get
    fresh VMs.  The signature holds one entry per task, in pid order."""
    scheduled = workload == "loop-sched"
    installed = workloads["loop" if scheduled else workload]
    kernel = make_kernel(key, config, recorder=recorder)
    shadow = ShadowVerifier(kernel)
    injector = None
    if plan is not None and not is_sched_plan(plan):
        injector = make_injector(plan, _image_of(installed))
    spy = TrapSpy(
        kernel,
        trap_index=plan.trap_index if plan is not None else -1,
        injector=injector,
        numbers=_SOCK_DATA_CALLS if workload == "netserver" else None,
    )
    kernel.handle_trap = spy.handle_trap
    timeslice = (plan.timeslice if plan is not None else 0) or REFERENCE_TIMESLICE
    scheduler = Scheduler(kernel, timeslice=timeslice)
    stdin = VICTIM_STDIN if workload == "victim" else b""
    for _ in range(SCHED_INSTANCES if scheduled else 1):
        scheduler.spawn(installed.binary, stdin=stdin)
    if plan is not None and plan.rotate_every:
        switches = [0]

        def perturb(sched, task):
            switches[0] += 1
            if switches[0] % plan.rotate_every == 0:
                sched.perturb_runq(1)

        scheduler.on_switch = perturb
    scheduler.run()
    tasks = [scheduler.tasks[pid] for pid in sorted(scheduler.tasks)]
    per_task = tuple(
        process_signature(
            task.exit_status, task.killed, task.kill_reason,
            bytes(task.process.stdout), bytes(task.process.stderr),
            task.vm.cycles, task.vm.instructions_executed,
        )
        for task in tasks
    )
    return RunOutcome(
        signature=per_task,
        killed=any(task.killed for task in tasks),
        kill_reason="; ".join(task.kill_reason for task in tasks if task.killed),
        traps=spy.seen,
        shadow_checked=shadow.checked,
        shadow_disagreements=tuple(shadow.disagreements),
    )


def process_signature(
    status, killed, kill_reason, stdout, stderr, cycles, instructions
) -> tuple:
    """One process's comparable result.  A fixed 7-slot layout shared
    by the fault harness and the conformance oracle
    (:mod:`repro.conformance.oracle`); ``_CYCLES_SLOT`` is the entry
    :func:`portable_signature` strips."""
    return (status, killed, kill_reason, stdout, stderr, cycles, instructions)


_CYCLES_SLOT = 5


#: id(InstalledProgram) -> LoadedImage.  Injectors only need symbol and
#: section addresses, which are identical for every link of the same
#: binary — link once per workload object, not once per run.  (The
#: kernel still links its own image per process.)
_IMAGES: dict = {}


def _image_of(installed):
    image = _IMAGES.get(id(installed))
    if image is None:
        image = _IMAGES[id(installed)] = link(installed.binary)
    return image


#: The socket data-transfer calls the netserver spy counts: plans for
#: the sock kinds index into *these* traps only, so every seeded index
#: lands on a send/recv with an Immediate-constrained buffer pointer.
_SOCK_DATA_CALLS = frozenset(
    (SYSCALL_NUMBERS["send"], SYSCALL_NUMBERS["recv"])
)


def portable_signature(outcome: RunOutcome) -> tuple:
    """The signature with cycle counts dropped.

    Cycles are *config*-dependent by design — disabling the fast path
    restores the full per-trap CMAC cost the paper measured — so the
    cross-config engine-equivalence assertion compares everything
    except them.  Within one config, cycles stay in the signature:
    benign means bit-identical including cost."""
    return tuple(
        entry[:_CYCLES_SLOT] + entry[_CYCLES_SLOT + 1:]
        for entry in outcome.signature
    )


def classify(plan: FaultPlan, reference: RunOutcome, outcome: RunOutcome) -> str:
    """Map one faulted run to detected / benign / missed (see module
    docstring)."""
    if outcome.shadow_disagreements:
        return "missed"
    identical = outcome.signature == reference.signature
    if plan.expected == "benign":
        return "benign" if identical and not outcome.killed else "missed"
    if outcome.killed:
        family = violation_family(outcome.kill_reason)
        if family in ALLOWED_FAMILIES[plan.kind]:
            return "detected"
        return "missed"  # misattributed kill
    if plan.expected == "any" and identical:
        return "benign"
    return "missed"


def is_sched_plan(plan: FaultPlan) -> bool:
    return plan.kind in SCHED_KINDS
