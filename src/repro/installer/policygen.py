"""Policy generation from static analysis (§3.3, §4.1).

Consumes the PLTO analyses (CFG, call graph, syscall ordering, constant
propagation) and produces the logical :class:`ProgramPolicy`:

- each trap site gets a :class:`SyscallPolicy` constraining the call
  site, the statically determined arguments, and (when enabled) the
  predecessor set from the syscall ordering graph;
- arguments are classified String / Immediate / Unknown exactly as
  §4.1 describes, with output-only arguments excluded and multi-value /
  fd-provenance arguments recorded for Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.binfmt import SefBinary
from repro.isa import SymbolRef
from repro.kernel.syscalls import syscall_spec
from repro.plto.callgraph import (
    CallGraph,
    ENTRY_BLOCK_ID,
    build_call_graph,
    syscall_ordering,
)
from repro.plto.cfg import build_cfg
from repro.plto.dataflow import ArgValue, SyscallSite, classify_syscall_args
from repro.plto.ir import IrUnit
from repro.policy.descriptor import ParamClass
from repro.policy.model import ParamPolicy, ProgramPolicy, SyscallPolicy

if TYPE_CHECKING:
    from repro.installer.core import InstallerOptions


class PolicyGenerationError(ValueError):
    """The installer cannot derive a policy (e.g. unknown syscall number)."""


@dataclass
class AnalysisResult:
    """Everything later phases need, computed once."""

    unit: IrUnit
    graph: CallGraph
    #: CFG block index -> SyscallSite (dataflow facts at the trap)
    sites: dict[int, SyscallSite]
    #: block id -> predecessor block ids (already includes ENTRY)
    ordering: dict[int, frozenset[int]]


def analyze(unit: IrUnit) -> AnalysisResult:
    cfg = build_cfg(unit)
    graph = build_call_graph(cfg)
    return AnalysisResult(
        unit=unit,
        graph=graph,
        sites=classify_syscall_args(graph),
        ordering=syscall_ordering(graph),
    )


def _string_constant(binary: SefBinary, ref: SymbolRef) -> Optional[bytes]:
    """If ``ref`` names a NUL-terminated constant in a read-only data
    section, return its bytes (String classification); else None."""
    symbol = binary.symbols.get(ref.symbol)
    if symbol is None or symbol.section not in (".rodata", ".authstr"):
        return None
    section = binary.sections[symbol.section]
    start = symbol.offset + ref.addend
    if not 0 <= start < section.size:
        return None
    end = section.data.find(b"\x00", start)
    if end < 0:
        return None
    return bytes(section.data[start:end])


def _block_id(cfg_index_plus_one: int, options: InstallerOptions) -> int:
    return (options.program_id << 20) | cfg_index_plus_one


def generate_policies(
    analysis: AnalysisResult,
    program: str,
    personality: str,
    options: InstallerOptions,
    strict: bool,
) -> ProgramPolicy:
    """Derive the program's overall policy from the analysis.

    Strict mode (full installation) refuses call sites whose syscall
    number is not statically known; non-strict mode (policy-only
    generation, as on the paper's OpenBSD port) reports and omits them
    — the §4.2 ``close`` behaviour."""
    binary = analysis.unit.binary
    policy = ProgramPolicy(
        program=program,
        personality=personality,
        program_id=options.program_id,
    )

    for block_index, site in sorted(analysis.sites.items()):
        if site.number is None:
            if strict:
                raise PolicyGenerationError(
                    f"system call number not statically known in block "
                    f"{block_index} — cannot generate a policy"
                )
            policy.unidentified_sites.append(block_index)
            continue
        spec = syscall_spec(site.number)
        block_id = _block_id(block_index + 1, options)

        site_policy = SyscallPolicy(
            syscall=spec.name,
            number=site.number,
            call_site=0,  # absolute address filled in at signing time
            block_id=block_id,
            arg_count=spec.nargs,
            control_flow=options.control_flow,
        )

        outputs: set[int] = set()
        multi: set[int] = set()
        fds: set[int] = set()
        for index in range(spec.nargs):
            value: ArgValue = site.args[index]
            if index in spec.outputs:
                outputs.add(index)
                continue
            if value.is_fd:
                fds.add(index)
                if options.capability_tracking and index in spec.fd_args:
                    site_policy.fd_producers[index] = frozenset(
                        _block_id(b, options) for b in value.fd_sites
                    )
                continue
            if value.is_multi:
                multi.add(index)
                continue
            if not value.is_single:
                continue
            single = value.single
            if isinstance(single, SymbolRef):
                content = _string_constant(binary, single)
                if (
                    content is not None
                    and index in spec.string_args
                    and single.addend == 0
                ):
                    site_policy.params[index] = ParamPolicy(
                        index, ParamClass.STRING, content, symbol=single
                    )
                else:
                    # A known address that is not a string constant: an
                    # Immediate in the paper's classification.  Encoded
                    # symbolically; resolved at signing time.
                    site_policy.params[index] = ParamPolicy(
                        index, ParamClass.IMMEDIATE, 0, symbol=single
                    )
            else:
                site_policy.params[index] = ParamPolicy(
                    index, ParamClass.IMMEDIATE, single & 0xFFFFFFFF
                )

        site_policy.output_params = frozenset(outputs)
        site_policy.multi_value_params = frozenset(multi)
        site_policy.fd_params = frozenset(
            fd for fd in fds if fd in spec.fd_args
        )

        if options.control_flow:
            predecessors = analysis.ordering.get(block_index + 1, frozenset())
            site_policy.predecessors = frozenset(
                _block_id(p, options) if p != ENTRY_BLOCK_ID else (options.program_id << 20)
                for p in predecessors
            )

        # Keyed temporarily by CFG block index; the signer re-keys by
        # absolute call-site address.
        policy.sites[block_index] = site_policy
        policy.syscall_graph[block_id] = site_policy.predecessors

    return policy


