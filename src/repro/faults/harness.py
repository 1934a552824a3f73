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
from repro.cpu.vm import ExecutionFault
from repro.crypto import Key
from repro.faults.inject import TrapSpy, make_injector
from repro.faults.plan import ALLOWED_FAMILIES, SCHED_KINDS, FaultPlan
from repro.faults.shadow import ShadowVerifier
from repro.faults.targets import SCHED_INSTANCES, VICTIM_STDIN, make_kernel
from repro.kernel.auth import violation_family
from repro.kernel.sched.scheduler import Scheduler
from repro.kernel.syscalls import SYSCALL_NUMBERS

#: Timeslice of the clean scheduled reference run.  Perturbed runs use
#: the plan's seeded slice; both must produce identical per-task
#: results.
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
    """Execute ``workload`` on a fresh kernel; with a plan, arm its
    injector.  ``plan=None`` is the clean reference run."""
    if workload == "loop-sched":
        return _run_scheduled(key, config, workloads, plan, recorder)
    if workload == "netserver":
        return _run_netserver(key, config, workloads, plan, recorder)
    return _run_single(key, config, workloads, workload, plan, recorder)


def _run_single(
    key: Key, config, workloads, workload, plan, recorder
) -> RunOutcome:
    installed = workloads[workload]
    kernel = make_kernel(key, config, recorder=recorder)
    shadow = ShadowVerifier(kernel)
    stdin = VICTIM_STDIN if workload == "victim" else b""
    process, vm = kernel.load(installed.binary, stdin=stdin)
    injector = None
    if plan is not None:
        injector = make_injector(plan, _image_of(installed))
    spy = TrapSpy(
        kernel,
        trap_index=plan.trap_index if plan is not None else -1,
        injector=injector,
    )
    vm.trap_handler = spy
    crash = ""
    try:
        status = vm.run()
    except ExecutionFault as fault:
        # The injected fault drove the *guest* into a machine fault
        # (e.g. a corrupted value steered a later load).  That is a
        # divergence the checks did not convert into an authenticated
        # kill — record it so classification can flag the miss instead
        # of aborting the whole sweep.
        status = -1
        crash = f"guest crash: {fault}"
    finally:
        kernel.release_process(process, vm)
    signature = process_signature(
        status, crash, vm.killed, vm.kill_reason,
        bytes(process.stdout), bytes(process.stderr),
        vm.cycles, vm.instructions_executed,
    )
    return _outcome(
        shadow, signature=signature, killed=vm.killed,
        kill_reason=vm.kill_reason, traps=spy.seen,
    )


def _outcome(shadow: ShadowVerifier, **fields) -> RunOutcome:
    return RunOutcome(
        shadow_checked=shadow.checked,
        shadow_disagreements=tuple(shadow.disagreements),
        **fields,
    )


def process_signature(
    status, crash, killed, kill_reason, stdout, stderr, cycles, instructions
) -> tuple:
    """One process's comparable result.  A fixed 8-slot layout shared
    by the single-run and per-task scheduled signatures here and by the
    conformance oracle (:mod:`repro.conformance.oracle`);
    ``_CYCLES_SLOT`` is the entry :func:`portable_signature` strips."""
    return (status, crash, killed, kill_reason, stdout, stderr, cycles,
            instructions)


_CYCLES_SLOT = 6


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


def _run_scheduled(key, config, workloads, plan, recorder) -> RunOutcome:
    """The multiprogrammed workload: independent loop instances whose
    per-task results must be invariant under any preemption order."""
    installed = workloads["loop"]
    kernel = make_kernel(key, config, recorder=recorder)
    shadow = ShadowVerifier(kernel)
    timeslice = plan.timeslice if plan is not None else REFERENCE_TIMESLICE
    scheduler = Scheduler(kernel, timeslice=timeslice)
    tasks = [
        scheduler.adopt(*kernel.load(installed.binary))
        for _ in range(SCHED_INSTANCES)
    ]
    if plan is not None and plan.rotate_every:
        switches = [0]

        def perturb(sched, task):
            switches[0] += 1
            if switches[0] % plan.rotate_every == 0:
                sched.perturb_runq(1)

        scheduler.on_switch = perturb
    scheduler.run()
    per_task = tuple(
        process_signature(
            task.exit_status, "", task.killed, task.kill_reason,
            bytes(task.process.stdout), bytes(task.process.stderr),
            task.vm.cycles, task.vm.instructions_executed,
        )
        for task in tasks
    )
    killed = any(task.killed for task in tasks)
    reasons = "; ".join(task.kill_reason for task in tasks if task.killed)
    return _outcome(
        shadow, signature=per_task, killed=killed, kill_reason=reasons
    )


#: The socket data-transfer calls the netserver spy counts: plans for
#: the sock kinds index into *these* traps only, so every seeded index
#: lands on a send/recv with an Immediate-constrained buffer pointer.
_SOCK_DATA_CALLS = frozenset(
    (SYSCALL_NUMBERS["send"], SYSCALL_NUMBERS["recv"])
)


def _run_netserver(key, config, workloads, plan, recorder) -> RunOutcome:
    """The networking workload: the echo server and its forked clients
    under the scheduler, with the spy shadowing the kernel's trap
    handler so it sees every process's traps (``vm.trap_handler`` only
    covers the first VM; forked children get fresh ones)."""
    installed = workloads["netserver"]
    kernel = make_kernel(key, config, recorder=recorder)
    shadow = ShadowVerifier(kernel)
    injector = None
    if plan is not None:
        injector = make_injector(plan, _image_of(installed))
    spy = TrapSpy(
        kernel,
        trap_index=plan.trap_index if plan is not None else -1,
        injector=injector,
        numbers=_SOCK_DATA_CALLS,
    )
    kernel.handle_trap = spy.handle_trap  # shadow: covers forked clients
    scheduler = Scheduler(kernel, timeslice=REFERENCE_TIMESLICE)
    scheduler.adopt(*kernel.load(installed.binary))
    scheduler.run()
    tasks = [scheduler.tasks[pid] for pid in sorted(scheduler.tasks)]
    per_task = tuple(
        process_signature(
            task.exit_status, "", task.killed, task.kill_reason,
            bytes(task.process.stdout), bytes(task.process.stderr),
            task.vm.cycles, task.vm.instructions_executed,
        )
        for task in tasks
    )
    killed = any(task.killed for task in tasks)
    reasons = "; ".join(task.kill_reason for task in tasks if task.killed)
    return _outcome(
        shadow, signature=per_task, killed=killed, kill_reason=reasons,
        traps=spy.seen,
    )


def portable_signature(outcome: RunOutcome) -> tuple:
    """The signature with cycle counts dropped.

    Cycles are *config*-dependent by design — disabling the fast path
    restores the full per-trap CMAC cost the paper measured — so the
    cross-config engine-equivalence assertion compares everything
    except them.  Within one config, cycles stay in the signature:
    benign means bit-identical including cost."""
    def strip(entry):
        return entry[:_CYCLES_SLOT] + entry[_CYCLES_SLOT + 1:]

    signature = outcome.signature
    if signature and isinstance(signature[0], tuple):  # scheduled: per-task
        return tuple(strip(entry) for entry in signature)
    return strip(signature)


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
