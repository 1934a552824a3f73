"""Binary rewriting: SYS -> authenticated ASYS (§3.3).

The rewrite phase runs on the IR, after analysis and policy
generation.  It:

1. creates the three installer sections — ``.authstr`` (authenticated
   strings), ``.authdata`` (per-site authentication records),
   ``.polstate`` (the writable lastBlock/lbMAC policy state);
2. moves each policy-constrained string constant into an AS in
   ``.authstr`` and *re-points its symbol* at the AS content, so every
   reference in the program now passes an AS pointer without touching
   the referencing code (§3.2's pointer replacement);
3. emits one authentication record per call site, with relocations for
   its embedded pointers and a zeroed call MAC;
4. replaces each ``SYS`` with ``LI r7, <record>; ASYS``.

Call MACs depend on final absolute addresses, so they are filled in by
:func:`repro.installer.core.sign` after layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.binfmt import Relocation
from repro.binfmt.symbols import Symbol
from repro.crypto import MAC_SIZE, AesCmac
from repro.isa import Instruction, SymbolRef
from repro.isa.opcodes import Op
from repro.installer.policygen import AnalysisResult
from repro.plto.ir import IrInsn, IrUnit
from repro.policy.authstrings import AS_HEADER_SIZE, build_authenticated_string
from repro.policy.descriptor import ParamClass
from repro.policy.encode import pack_predecessor_set
from repro.policy.model import ProgramPolicy, SyscallPolicy
from repro.policy.record import (
    LASTBLOCK_PTR_OFFSET,
    PREDSET_PTR_OFFSET,
    AuthRecord,
    pack_policy_state,
    state_mac_payload,
)

POLSTATE_SYMBOL = "__asc_polstate"


class InstallError(ValueError):
    """Installation cannot proceed (analysis failure, unfilled holes)."""


@dataclass
class SiteRewrite:
    """Bookkeeping for one rewritten call site, consumed by the signer."""

    cfg_block_index: int
    policy: SyscallPolicy
    call_label: str
    record_symbol: str
    record_offset: int
    #: param index -> symbol whose address is the AS content (strings
    #: and patterns).
    string_symbols: dict[int, str] = field(default_factory=dict)
    predset_symbol: Optional[str] = None
    predset_content: bytes = b""
    capability_symbol: Optional[str] = None
    capability_content: bytes = b""
    fd_mask: int = 0


@dataclass
class RewriteResult:
    sites: list[SiteRewrite]
    #: original string symbol -> (AS content symbol, content bytes)
    moved_strings: dict[str, bytes]


def rewrite_unit(
    unit: IrUnit,
    analysis: AnalysisResult,
    program_policy: ProgramPolicy,
    mac: AesCmac,
) -> RewriteResult:
    binary = unit.binary
    authstr = binary.get_or_create_section(".authstr")
    authdata = binary.get_or_create_section(".authdata")
    polstate = binary.get_or_create_section(".polstate")

    # -- policy state: lastBlock = <entry pseudo block>, counter = 0 ----
    initial_block = program_policy.program_id << 20
    initial_mac = mac.tag(state_mac_payload(initial_block, 0))
    offset = polstate.append(pack_policy_state(initial_block, initial_mac))
    binary.define_symbol(POLSTATE_SYMBOL, ".polstate", offset)

    # -- move constrained string constants into authenticated strings ---
    moved: dict[str, bytes] = {}

    def move_string(symbol_name: str, content: bytes) -> str:
        if symbol_name in moved:
            return symbol_name
        record = build_authenticated_string(content, mac)
        start = authstr.append(record)
        original = binary.symbols[symbol_name]
        binary.symbols[symbol_name] = Symbol(
            symbol_name, ".authstr", start + AS_HEADER_SIZE, original.binding
        )
        moved[symbol_name] = content
        return symbol_name

    def fresh_as(stem: str, content: bytes) -> str:
        record = build_authenticated_string(content, mac)
        start = authstr.append(record)
        name = f"__asc_{stem}"
        binary.define_symbol(name, ".authstr", start + AS_HEADER_SIZE)
        return name

    sites: list[SiteRewrite] = []
    for serial, (block_index, policy) in enumerate(
        sorted(program_policy.sites.items())
    ):
        descriptor = policy.descriptor()
        site = SiteRewrite(
            cfg_block_index=block_index,
            policy=policy,
            call_label=f"__asc_call_{serial}",
            record_symbol=f"__asc_rec_{serial}",
            record_offset=0,
        )

        for index, param in sorted(policy.params.items()):
            if param.pattern is not None:
                site.string_symbols[index] = fresh_as(
                    f"pat_{serial}_{index}", param.pattern.encode("utf-8")
                )
            elif param.kind is ParamClass.STRING:
                assert isinstance(param.symbol, SymbolRef)
                site.string_symbols[index] = move_string(
                    param.symbol.symbol, param.value
                )

        if policy.control_flow:
            site.predset_content = pack_predecessor_set(policy.predecessors)
            site.predset_symbol = fresh_as(f"pred_{serial}", site.predset_content)

        if policy.fd_producers:
            producers: set[int] = set()
            for index, sources in sorted(policy.fd_producers.items()):
                site.fd_mask |= 1 << index
                producers.update(sources)
            site.capability_content = pack_predecessor_set(frozenset(producers))
            site.capability_symbol = fresh_as(
                f"cap_{serial}", site.capability_content
            )

        # -- emit the record: pointers zero until relocated, the call MAC
        #    zero until signed ------------------------------------------
        pattern_params = descriptor.pattern_params()
        record = AuthRecord(
            descriptor,
            policy.block_id,
            predset_ptr=0,
            lastblock_ptr=0,
            call_mac=bytes(MAC_SIZE),
            pattern_ptrs=(0,) * len(pattern_params),
            fd_mask=site.fd_mask,
        )
        start = authdata.append(record.pack())
        site.record_offset = start
        binary.define_symbol(site.record_symbol, ".authdata", start)

        def relocate(offset: int, symbol: str) -> None:
            binary.add_relocation(Relocation(".authdata", start + offset, symbol))

        if policy.control_flow:
            relocate(PREDSET_PTR_OFFSET, site.predset_symbol)
            relocate(LASTBLOCK_PTR_OFFSET, POLSTATE_SYMBOL)
        for position, index in enumerate(pattern_params):
            relocate(record.pattern_ptr_offset(position), site.string_symbols[index])
        if descriptor.capability_tracked:
            relocate(record.fd_allowed_ptr_offset, site.capability_symbol)
        sites.append(site)

    # -- replace each SYS with LI r7, <record>; ASYS --------------------
    # Descending instruction order keeps earlier indices valid.
    by_insn = sorted(
        sites,
        key=lambda s: analysis.sites[s.cfg_block_index].insn_index,
        reverse=True,
    )
    for site in by_insn:
        position = analysis.sites[site.cfg_block_index].insn_index
        original = unit.insns[position].instruction
        if original.op != Op.SYS:
            # An input that already holds an ASYS where the analysis
            # found a trap: it is not an uninstalled binary.
            raise InstallError(
                f"{site.policy.syscall} site at insn {position}: expected sys, "
                f"found {original}"
            )
        unit.replace(
            position,
            [
                IrInsn(
                    Instruction(Op.LI, regs=(7,), imm=SymbolRef(site.record_symbol))
                ),
                IrInsn(Instruction(Op.ASYS), labels=[site.call_label]),
            ],
        )

    return RewriteResult(sites=sites, moved_strings=moved)
