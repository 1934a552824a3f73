"""The conformance sweep: N generated programs × every engine config.

The contract the CI gate enforces:

1. **Zero divergences.**  Every generated program must produce a
   bit-identical portable conformance signature (per-process results,
   syscall trace, kill families, final memory digests) on every roster
   configuration (:mod:`repro.configs`), the shadow oracle must
   confirm every trap a verifier thunk accepted, and the shadow poll
   must find every blocked call the wake poll skipped still blocked.
   One divergence fails the sweep.
2. **Determinism.**  Same seed + same key -> byte-identical report
   JSON, run to run and machine to machine.  Nothing time- or
   path-dependent goes into the report.
3. **Actionable failures.**  A diverging program is handed to the
   shrinker and the minimized reproducer is written into the corpus
   directory, ready to be checked in as a pinned regression test.

``conform.*`` counters and per-run spans flow through the obs layer
(:class:`~repro.obs.MetricsRegistry` / recorder protocol), mirroring
the fault sweep's ``faults.*`` instrumentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.configs import configs_named
from repro.crypto import Key
from repro.obs import MetricsRegistry

from repro.conformance.corpus import make_entry, write_entry
from repro.conformance.grammar import DEFAULT_TIMESLICE, generate_specs
from repro.conformance.oracle import (
    divergences,
    install_spec,
    run_all_configs,
    spec_diverges,
)
from repro.conformance.shrink import shrink_spec

#: Most candidate runs the shrinker may spend minimizing one diverging
#: program.
SHRINK_BUDGET = 200


@dataclass
class ConformanceReport:
    """Everything one sweep produced, JSON-serializable and stable."""

    seed: int
    count: int
    configs: tuple
    timeslice: int
    programs: list = field(default_factory=list)
    divergent: list = field(default_factory=list)
    reproducers: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    #: Thunk-accepted traps the shadow oracle re-verified, skipped
    #: retries the shadow poll re-ran, and how many of either
    #: disagreed (summary only; the JSON report is the same with or
    #: without the oracles).
    shadow_checked: int = 0
    poll_checked: int = 0
    shadow_disagreements: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergent

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "count": self.count,
            "configs": list(self.configs),
            "timeslice": self.timeslice,
            "totals": self.totals,
            "divergent": self.divergent,
            "reproducers": self.reproducers,
            "programs": self.programs,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        totals = self.totals
        lines = [
            f"conformance sweep: seed={self.seed} programs={self.count} "
            f"configs={len(self.configs)} runs={totals.get('runs', 0)}",
            "",
            f"{'family':<10} {'programs':>9}",
        ]
        for family, count in sorted(totals.get("families", {}).items()):
            lines.append(f"{family:<10} {count:>9}")
        lines.append("")
        lines.append(
            f"  clean={totals.get('clean', 0)} "
            f"killed={totals.get('killed', 0)} "
            f"divergent={len(self.divergent)} "
            f"superblocks_fused={totals.get('superblocks_fused', 0)}"
        )
        lines.append(
            f"  shadow-verified {self.shadow_checked} thunk-accepted traps, "
            f"shadow-polled {self.poll_checked} skipped retries, "
            f"{self.shadow_disagreements} disagreements"
        )
        for entry in self.divergent:
            lines.append(
                f"  DIVERGED program {entry['program_id']}: "
                f"{', '.join(entry['configs'])}"
            )
        for name in self.reproducers:
            lines.append(f"  reproducer written: {name}")
        verdict = (
            "OK: 0 divergences"
            if self.ok
            else f"FAIL: {len(self.divergent)} DIVERGED"
        )
        lines += ["", verdict]
        return "\n".join(lines)


def run_conformance(
    key: Key = None,
    seed: int = 0,
    count: int = 50,
    config_names=None,
    timeslice: int = DEFAULT_TIMESLICE,
    metrics=None,
    recorder=None,
    corpus_dir=None,
) -> ConformanceReport:
    """Generate ``count`` programs from ``seed``, run each on every
    selected engine config, and compare signatures (see module
    docstring for the contract).

    With ``corpus_dir`` set, each diverging program is minimized and
    written there as a reproducer entry.  ``metrics`` (a private
    registry when omitted) receives the ``conform.*`` counters and
    ``recorder`` per-config spans; both are host-side observability and
    never feed back into outcomes."""
    if metrics is None:
        metrics = MetricsRegistry()
    key = key or Key.generate()
    configs = configs_named(config_names)
    names = tuple(config.name for config in configs)
    report = ConformanceReport(
        seed=seed, count=count, configs=names, timeslice=timeslice
    )
    family_totals: dict = {}
    totals = {
        "runs": 0, "clean": 0, "killed": 0, "shrink_evaluations": 0,
        "superblocks_fused": 0,
    }

    for spec in generate_specs(seed, count):
        if recorder is not None and recorder.enabled:
            recorder.begin(f"conform:program:{spec.program_id}", "conform")
        installed = install_spec(spec, key)
        outcomes = run_all_configs(
            key, installed, config_names=config_names,
            timeslice=timeslice, recorder=recorder,
        )
        diverged = divergences(outcomes)
        if recorder is not None and recorder.enabled:
            recorder.end()
        reference = outcomes[names[0]]
        totals["runs"] += len(outcomes)
        totals["clean" if reference.clean else "killed"] += 1
        for family in spec.families():
            family_totals[family] = family_totals.get(family, 0) + 1
        fused = sum(out.superblocks_fused for out in outcomes.values())
        totals["superblocks_fused"] += fused
        for out in outcomes.values():
            report.shadow_checked += out.shadow_checked
            report.poll_checked += out.poll_checked
            report.shadow_disagreements += len(out.shadow_disagreements)
        metrics.inc("conform.programs")
        metrics.inc("conform.runs", len(outcomes))
        metrics.inc("conform.superblocks_fused", fused)
        report.programs.append(
            {
                "program_id": spec.program_id,
                "ops": [op.to_json() for op in spec.ops],
                "families": list(spec.families()),
                "fingerprint": reference.fingerprint(),
                "clean": reference.clean,
                "divergent_configs": diverged,
            }
        )
        if not diverged:
            continue

        metrics.inc("conform.divergences")
        entry = {
            "program_id": spec.program_id,
            "configs": diverged,
            "fingerprints": {
                name: out.fingerprint() for name, out in outcomes.items()
            },
        }
        shadow = {
            name: list(out.shadow_disagreements)
            for name, out in outcomes.items() if out.shadow_disagreements
        }
        if shadow:
            entry["shadow_disagreements"] = shadow
        result = shrink_spec(
            spec,
            lambda candidate: spec_diverges(
                candidate, key, config_names=config_names,
                timeslice=timeslice,
            ),
            max_evaluations=SHRINK_BUDGET,
        )
        totals["shrink_evaluations"] += result.evaluations
        metrics.inc("conform.shrink_evaluations", result.evaluations)
        entry["minimized_ops"] = [op.to_json() for op in result.spec.ops]
        if corpus_dir is not None:
            reproducer = make_entry(
                name=f"diverge-seed{seed}-p{spec.program_id}",
                description=(
                    f"minimized divergence from sweep seed={seed} "
                    f"program={spec.program_id} "
                    f"(configs: {', '.join(diverged)})"
                ),
                spec=result.spec,
            )
            write_entry(corpus_dir, reproducer)
            report.reproducers.append(reproducer.name)
            entry["reproducer"] = reproducer.name
        report.divergent.append(entry)

    totals["families"] = dict(sorted(family_totals.items()))
    report.totals = totals
    return report
