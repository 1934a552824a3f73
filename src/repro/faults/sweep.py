"""The detection-coverage sweep: hundreds of seeded faults × every
engine configuration, with a machine-readable report.

The contract the CI battery enforces:

1. **Zero misses.**  Every injected fault is either detected with a
   correctly attributed kill reason or provably benign (bit-identical
   run).  One MISSED outcome fails the sweep.
2. **Config independence.**  The same plans run on every roster
   configuration (:mod:`repro.configs`); detection coverage must not
   depend on which execution engine or verification path is in play.
   Every trap a verifier thunk accepts is also re-verified by the
   shadow oracle's full check (:mod:`repro.faults.shadow`); a
   disagreement is a MISSED outcome, or an error in a clean run.
3. **Determinism.**  Same seed + same key -> byte-identical report
   JSON.  The clean reference signatures are also asserted identical
   across configs before any fault runs, so the sweep doubles as an
   engine-equivalence gate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.configs import configs_named
from repro.crypto import Key
from repro.faults.harness import classify, portable_signature, run_workload
from repro.faults.plan import generate_plans
from repro.faults.targets import build_workloads, section_sizes
from repro.obs import MetricsRegistry

OUTCOMES = ("detected", "benign", "missed")

#: Workloads whose clean runs seed the sweep (trap counts + the
#: engine-equivalence assertion).
_WORKLOADS = ("loop", "victim", "loop-sched", "netserver")

#: Workloads whose clean trap count bounds seeded trap indices.  For
#: netserver the count is send/recv traps only (the spy filters).
_TRAP_WORKLOADS = ("loop", "victim", "netserver")


@dataclass
class SweepReport:
    """Everything one sweep produced, JSON-serializable and stable."""

    seed: int
    count: int
    configs: tuple
    kinds: tuple
    traps_by_workload: dict
    runs: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    by_kind: dict = field(default_factory=dict)
    by_config: dict = field(default_factory=dict)
    #: Thunk-accepted traps the shadow oracle re-verified (summary
    #: only; the JSON report is the same with or without the oracle).
    shadow_checked: int = 0

    @property
    def missed(self) -> int:
        return self.totals.get("missed", 0)

    @property
    def ok(self) -> bool:
        return self.missed == 0

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "count": self.count,
            "configs": list(self.configs),
            "kinds": list(self.kinds),
            "traps_by_workload": self.traps_by_workload,
            "totals": self.totals,
            "by_kind": self.by_kind,
            "by_config": self.by_config,
            "runs": self.runs,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        lines = [
            f"fault sweep: seed={self.seed} plans={self.count} "
            f"configs={len(self.configs)} runs={self.totals.get('injected', 0)}",
            "",
            f"{'kind':<16} {'detected':>9} {'benign':>7} {'missed':>7}",
        ]
        for kind in self.kinds:
            counts = self.by_kind.get(kind, {})
            lines.append(
                f"{kind:<16} {counts.get('detected', 0):>9} "
                f"{counts.get('benign', 0):>7} {counts.get('missed', 0):>7}"
            )
        lines.append("")
        for name in self.configs:
            counts = self.by_config.get(name, {})
            lines.append(
                f"  {name:<16} detected={counts.get('detected', 0)} "
                f"benign={counts.get('benign', 0)} "
                f"missed={counts.get('missed', 0)}"
            )
        lines.append(
            f"  shadow-verified {self.shadow_checked} thunk-accepted traps"
        )
        verdict = "OK: 0 missed" if self.ok else f"FAIL: {self.missed} MISSED"
        lines += ["", verdict]
        return "\n".join(lines)


def run_sweep(
    key: Key = None,
    seed: int = 20050926,
    count: int = 200,
    config_names=None,
    kinds=None,
    metrics=None,
    recorder=None,
) -> SweepReport:
    """Generate ``count`` plans from ``seed`` and replay each on every
    selected engine config (see module docstring for the contract).

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`; a private one
    when omitted) receives the ``faults.*`` counters and ``recorder``
    per-run spans; being host-side observability, neither feeds back
    into outcomes."""
    if metrics is None:
        metrics = MetricsRegistry()
    key = key or Key.generate()
    configs = configs_named(config_names)
    workloads = build_workloads(key)

    # Clean references per (config, workload); identical-across-configs
    # by the engine-equivalence contract, asserted here.
    references: dict = {}
    traps_by_workload: dict = {}
    for config in configs:
        for workload in _WORKLOADS:
            outcome = run_workload(key, config, workloads, workload)
            if outcome.killed:
                raise RuntimeError(
                    f"clean {workload} run died on {config.name}: "
                    f"{outcome.kill_reason}"
                )
            if outcome.shadow_disagreements:
                raise RuntimeError(
                    f"shadow-verify disagreement in the clean {workload} "
                    f"run on {config.name}: {outcome.shadow_disagreements[0]}"
                )
            references[(config.name, workload)] = outcome
            first = references[(configs[0].name, workload)]
            if portable_signature(outcome) != portable_signature(first):
                raise RuntimeError(
                    f"engine-equivalence violation: clean {workload} run "
                    f"differs between {configs[0].name} and {config.name}"
                )
            if workload in _TRAP_WORKLOADS:
                traps_by_workload[workload] = outcome.traps

    plans = generate_plans(
        seed, count, traps_by_workload, section_sizes(workloads), kinds
    )
    report = SweepReport(
        seed=seed,
        count=count,
        configs=tuple(config.name for config in configs),
        kinds=tuple(
            dict.fromkeys(plan.kind for plan in plans)  # ordered, unique
        ),
        traps_by_workload=dict(sorted(traps_by_workload.items())),
    )
    tally_totals = {outcome: 0 for outcome in OUTCOMES}
    tally_totals["injected"] = 0
    by_kind: dict = {}
    by_config: dict = {}

    for plan in plans:
        for config in configs:
            if recorder is not None and recorder.enabled:
                recorder.begin(f"fault:{plan.kind}:{config.name}", "faults")
            outcome = run_workload(
                key, config, workloads, plan.workload, plan=plan
            )
            verdict = classify(
                plan, references[(config.name, plan.workload)], outcome
            )
            if recorder is not None and recorder.enabled:
                recorder.end()
            report.shadow_checked += outcome.shadow_checked
            tally_totals["injected"] += 1
            tally_totals[verdict] += 1
            by_kind.setdefault(plan.kind, dict.fromkeys(OUTCOMES, 0))[verdict] += 1
            by_config.setdefault(config.name, dict.fromkeys(OUTCOMES, 0))[
                verdict
            ] += 1
            metrics.inc("faults.injected")
            metrics.inc(f"faults.{verdict}")
            run = {
                "plan": asdict(plan),
                "config": config.name,
                "outcome": verdict,
                "killed": outcome.killed,
                "kill_reason": outcome.kill_reason,
            }
            if outcome.shadow_disagreements:
                run["shadow_disagreements"] = list(outcome.shadow_disagreements)
            report.runs.append(run)

    report.totals = tally_totals
    report.by_kind = by_kind
    report.by_config = by_config
    return report
