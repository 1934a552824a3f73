"""The engine-configuration roster: every kernel/engine configuration
the security batteries replay a workload on.

Each entry exercises distinct code: the reference interpreter, the
threaded engine with block chaining and superblock fusion (the
kernel's defaults), and the fast path disabled (the paper's full §3.4
check on every trap, no verifier thunks).  Attack verdicts,
fault-detection coverage and conformance signatures are security
properties and must be identical on all three.  The attack, fault and
conformance batteries and the benchmark ratio gate all take their
configurations from here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """One kernel/engine configuration (see module docstring)."""

    name: str
    engine: str
    fastpath: bool = True

    def kernel_kwargs(self) -> dict:
        """The :class:`~repro.kernel.Kernel` keyword arguments."""
        return {"engine": self.engine, "fastpath": self.fastpath}


CONFIGS = (
    EngineConfig("interp", "interp"),
    EngineConfig("chained", "threaded"),
    EngineConfig("no-fastpath", "threaded", fastpath=False),
)

CONFIG_NAMES = tuple(config.name for config in CONFIGS)

#: The kernel's default configuration.
DEFAULT_CONFIG = CONFIGS[1]


def configs_named(names=None) -> tuple:
    """Resolve config names to :data:`CONFIGS` entries (all when None)."""
    if not names:
        return CONFIGS
    by_name = {config.name: config for config in CONFIGS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(f"unknown engine config(s): {', '.join(unknown)}")
    return tuple(by_name[name] for name in names)
