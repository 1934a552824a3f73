"""The trusted installer (§3.3).

Reads a relocatable SEF binary, derives per-call-site policies by
static analysis, and rewrites the binary to use authenticated system
calls.  See :func:`repro.installer.core.install` for the pipeline and
:mod:`repro.installer.dynlib` for dynamic-library processing (§5.2).
"""

from repro.installer.core import (
    InstallError,
    InstalledProgram,
    InstallerOptions,
    generate_policy_only,
    install,
)
from repro.installer.policygen import (
    AnalysisResult,
    PolicyGenerationError,
    analyze,
    generate_policies,
)

__all__ = [
    "AnalysisResult",
    "InstallError",
    "InstalledProgram",
    "InstallerOptions",
    "PolicyGenerationError",
    "analyze",
    "generate_policies",
    "generate_policy_only",
    "install",
]
