"""The conformance oracle: one program, every engine configuration.

A program is installed once and executed under each of the
:data:`repro.configs.CONFIGS` (interp / chained / no-fastpath).
Each run is reduced to a *portable conformance signature*:

- the per-process result tuples of :func:`repro.faults.harness.process_signature`
  with the config-dependent cycle slot stripped by
  :func:`repro.faults.harness.portable_signature` (exit status, kill
  flag, kill reason, both output streams, instruction count);
- the dispatched **syscall trace** — ``(pid, name)`` in dispatch
  order, captured through the kernel's ``tracer`` hook (retried
  blocking calls are not double-counted);
- the per-process **kill family** (:func:`repro.kernel.auth.violation_family`);
- the per-process **final memory digest** over every mapped region.

The enforced property is the paper's: every engine configuration
implements the *same* authenticated-syscall semantics, so the
signature must be bit-identical across all of them.  Within each run
the shadow oracles (:mod:`repro.faults.shadow`) re-verify every trap
a verifier thunk accepted with the paper's full check, and re-run
every blocked call the wake poll skips (a skipped call that would
complete is a missed notify).  A signature mismatch or a shadow
disagreement is a divergence, which the sweep hands to the shrinker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.configs import configs_named
from repro.crypto import Key
from repro.faults.harness import RunOutcome, portable_signature, process_signature
from repro.faults.shadow import ShadowPoll, ShadowVerifier
from repro.installer import InstalledProgram, InstallerOptions, install
from repro.kernel import EnforcementMode, Kernel
from repro.kernel.auth import violation_family

from repro.conformance.grammar import DEFAULT_TIMESLICE, PATHS, ProgramSpec, build

#: Instruction ceiling per conformance run; generated programs finish
#: in a few thousand instructions, so this only bounds generator bugs.
MAX_INSTRUCTIONS = 5_000_000

#: Files the oracle's kernels pre-create (the openclose op's targets).
VFS_FILES = {path: b"conformance\n" for path in PATHS}


class SyscallTraceRecorder:
    """The kernel ``tracer`` hook: records every dispatched call as
    ``(pid, name)``.  Dispatch order is deterministic under the
    instruction-budget scheduler, and identical across engine configs
    by the equivalence contract this oracle enforces."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def record(self, ctx) -> None:
        self.calls.append((ctx.process.pid, ctx.name))


@dataclass(frozen=True)
class ProgramOutcome:
    """One config's run of one program, reduced to comparables."""

    #: Per-process portable signatures (cycle slot stripped), pid order.
    per_task: tuple
    #: Dispatched syscall trace: ((pid, name), ...).
    trace: tuple
    #: Per-process final-memory sha256 hex digests, pid order.
    digests: tuple
    #: Per-process kill families ("" when not killed), pid order.
    families: tuple
    killed: bool
    kill_reasons: str
    exit_status: int
    #: Superblocks the threaded engine fused during the run (coverage
    #: evidence only; not compared, since it is config-dependent).
    superblocks_fused: int = 0
    #: Thunk-accepted traps the shadow oracle re-verified, skipped
    #: retries the shadow poll re-ran, and every disagreement of
    #: either (not compared; any disagreement is a divergence on its
    #: own).
    shadow_checked: int = 0
    poll_checked: int = 0
    shadow_disagreements: tuple = ()

    def comparable(self) -> tuple:
        """Everything the cross-config equality check compares."""
        return (self.per_task, self.trace, self.digests, self.families)

    def fingerprint(self) -> str:
        """A stable short hash of the comparable (for reports)."""
        digest = hashlib.sha256(repr(self.comparable()).encode())
        return digest.hexdigest()[:16]

    @property
    def clean(self) -> bool:
        return not self.killed and self.exit_status == 0


def install_spec(spec: ProgramSpec, key: Key) -> InstalledProgram:
    """Assemble and install a generated program (once per program; the
    same installed image is replayed on every config)."""
    return install(build(spec), key, InstallerOptions())


def make_kernel(key: Key, config, recorder=None) -> Kernel:
    """A fresh machine for one conformance run."""
    kernel = Kernel(
        key=key,
        mode=EnforcementMode.PERMISSIVE,
        recorder=recorder,
        **config.kernel_kwargs(),
    )
    for path, content in VFS_FILES.items():
        kernel.vfs.write_file(path, content)
    return kernel


def run_program(
    key: Key,
    config,
    installed: InstalledProgram,
    timeslice: int = DEFAULT_TIMESLICE,
    recorder=None,
) -> ProgramOutcome:
    """Execute one installed program under one config, scheduled (fork
    and blocking I/O need the preemptive scheduler even for
    single-process programs, and a fixed timeslice makes preemption
    points part of the compared semantics)."""
    kernel = make_kernel(key, config, recorder=recorder)
    shadow = ShadowVerifier(kernel)
    poll = ShadowPoll(kernel)
    tracer = SyscallTraceRecorder()
    kernel.tracer = tracer
    multi = kernel.run_many(
        [installed.binary],
        timeslice=timeslice,
        max_instructions=MAX_INSTRUCTIONS,
    )
    tasks = [multi.scheduler.tasks[pid] for pid in sorted(multi.scheduler.tasks)]
    per_task = []
    digests = []
    families = []
    for task in tasks:
        entry = process_signature(
            task.exit_status, task.killed, task.kill_reason,
            bytes(task.process.stdout), bytes(task.process.stderr),
            task.vm.cycles, task.vm.instructions_executed,
        )
        per_task.append(entry)
        digests.append(_memory_digest(task.vm))
        families.append(
            (violation_family(task.kill_reason) or "") if task.killed else ""
        )
    outcome = RunOutcome(
        signature=tuple(per_task),
        killed=any(task.killed for task in tasks),
        kill_reason="; ".join(
            task.kill_reason for task in tasks if task.killed
        ),
    )
    return ProgramOutcome(
        per_task=portable_signature(outcome),
        trace=tuple(tracer.calls),
        digests=tuple(digests),
        families=tuple(families),
        killed=outcome.killed,
        kill_reasons=outcome.kill_reason,
        exit_status=multi.results[0].exit_status,
        superblocks_fused=kernel.metrics.get("engine.superblocks_fused"),
        shadow_checked=shadow.checked,
        poll_checked=poll.checked,
        shadow_disagreements=tuple(shadow.disagreements + poll.disagreements),
    )


def _memory_digest(vm) -> str:
    """sha256 over every mapped region's name and final contents."""
    digest = hashlib.sha256()
    for region in vm.memory.regions():
        digest.update(region.name.encode())
        digest.update(bytes(region.data))
    return digest.hexdigest()


def run_all_configs(
    key: Key,
    installed: InstalledProgram,
    config_names=None,
    timeslice: int = DEFAULT_TIMESLICE,
    recorder=None,
) -> dict[str, ProgramOutcome]:
    """Run one installed program on every selected config."""
    outcomes: dict[str, ProgramOutcome] = {}
    for config in configs_named(config_names):
        if recorder is not None and recorder.enabled:
            recorder.begin(f"conform:run:{config.name}", "conform")
        outcomes[config.name] = run_program(
            key, config, installed, timeslice=timeslice
        )
        if recorder is not None and recorder.enabled:
            recorder.end()
    return outcomes


def divergences(outcomes: dict[str, ProgramOutcome]) -> list[str]:
    """Names of configs whose comparable differs from the first
    config's or whose shadow oracle disagreed (empty list ==
    conformant)."""
    names = list(outcomes)
    reference = outcomes[names[0]].comparable()
    return [
        name for name, outcome in outcomes.items()
        if outcome.shadow_disagreements or outcome.comparable() != reference
    ]


def spec_diverges(
    spec: ProgramSpec,
    key: Key,
    config_names=None,
    timeslice: int = DEFAULT_TIMESLICE,
) -> bool:
    """The shrinker's predicate: does this spec still diverge?"""
    installed = install_spec(spec, key)
    return bool(divergences(run_all_configs(
        key, installed, config_names=config_names, timeslice=timeslice
    )))

