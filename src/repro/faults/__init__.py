"""Deterministic fault injection (the detection-coverage battery).

The attack battery asks "does the kernel stop a crafted exploit?";
this package asks the complementary dependability question: "does the
kernel detect *arbitrary seeded corruption* of its authentication
material, on every engine configuration, without ever diverging
silently?"  See DESIGN.md "Fault injection" for the fault model and
outcome taxonomy, and ``python -m repro.tools faults`` for the CLI.
"""

from repro.faults.harness import RunOutcome, classify, run_workload
from repro.faults.plan import (
    ALLOWED_FAMILIES,
    EXPECTATIONS,
    FaultPlan,
    KINDS,
    generate_plans,
)
from repro.faults.sweep import SweepReport, run_sweep
from repro.faults.targets import build_workloads, make_kernel

__all__ = [
    "ALLOWED_FAMILIES",
    "EXPECTATIONS",
    "FaultPlan",
    "KINDS",
    "RunOutcome",
    "SweepReport",
    "build_workloads",
    "classify",
    "generate_plans",
    "make_kernel",
    "run_sweep",
    "run_workload",
]
