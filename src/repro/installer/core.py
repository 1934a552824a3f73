"""The trusted installer (§3.3): analyze, generate, rewrite, sign.

``install()`` is the whole pipeline the security administrator runs::

    installed = install(binary, key=machine_key)
    kernel.run(installed.binary)          # kernel holds the same key

The produced binary is statically linked and non-relocatable in
spirit — its policies embed the absolute addresses of every call site —
exactly as the paper's installer output is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.binfmt import SefBinary
from repro.binfmt.image import assign_addresses
from repro.crypto import AesCmac, Key
from repro.installer.policygen import (
    AnalysisResult,
    analyze,
    generate_policies,
)
from repro.installer.rewrite import InstallError, RewriteResult, rewrite_unit
from repro.plto import disassemble, inline_syscall_stubs, reassemble
from repro.plto.passes import run_baseline_passes
from repro.policy.descriptor import ParamClass
from repro.policy.encode import ParamEncoding, encode_policy
from repro.policy.metapolicy import MetaPolicy, PolicyTemplate
from repro.policy.model import ParamPolicy, ProgramPolicy
from repro.policy.record import CALL_MAC_OFFSET


@dataclass
class InstallerOptions:
    """Administrator-facing configuration."""

    control_flow: bool = True
    #: §5.5: namespace block ids per program (Frankenstein defense).
    program_id: int = 0
    #: §5.3: emit capability-tracking constraints for fd arguments.
    capability_tracking: bool = False
    #: §5.2: metapolicy to evaluate; unmet requirements become template
    #: holes that ``template_fills`` must cover.
    metapolicy: Optional[MetaPolicy] = None
    #: (syscall name, param index) -> constant (int/bytes) or pattern
    #: (str); applied to every matching template hole.
    template_fills: dict = field(default_factory=dict)


@dataclass
class InstalledProgram:
    """The installer's output."""

    binary: SefBinary
    policy: ProgramPolicy
    #: How many call sites were rewritten.
    sites_rewritten: int
    #: Labels of inlined stubs, for reports.
    inlined_stubs: list[str]
    template: Optional[PolicyTemplate] = None
    #: call-site address -> the site's record symbol in .authdata
    site_records: dict = field(default_factory=dict)

    def site_for_syscall(self, syscall: str) -> int:
        """Call-site address of the first policy site for ``syscall``."""
        for address, policy in sorted(self.policy.sites.items()):
            if policy.syscall == syscall:
                return address
        raise KeyError(f"no {syscall!r} site in {self.policy.program}")


def install(
    binary: SefBinary,
    key: Key,
    options: Optional[InstallerOptions] = None,
) -> InstalledProgram:
    """Run the full installation pipeline on a relocatable binary."""
    options = options or InstallerOptions()
    mac = AesCmac(key.material)

    if binary.metadata.get("authenticated") == "yes":
        raise InstallError(
            "binary is already installed; re-installation would double-"
            "rewrite its call sites (install the original instead)"
        )
    analysis, policy, inlined_stubs = _analyze(binary, options, strict=True)
    template = _apply_metapolicy(policy, options)

    rewrite = rewrite_unit(analysis.unit, analysis, policy, mac)
    installed = reassemble(analysis.unit)
    installed.metadata["authenticated"] = "yes"
    installed.metadata["program_id"] = str(options.program_id)

    _sign(installed, rewrite, mac)
    _rekey_by_call_site(installed, policy, rewrite)

    return InstalledProgram(
        binary=installed,
        policy=policy,
        sites_rewritten=len(rewrite.sites),
        inlined_stubs=inlined_stubs,
        template=template,
        site_records={
            site.policy.call_site: site.record_symbol for site in rewrite.sites
        },
    )


def generate_policy_only(
    binary: SefBinary,
    options: Optional[InstallerOptions] = None,
) -> ProgramPolicy:
    """Policy generation without rewriting — the configuration used for
    the cross-OS comparison of §4.2 (the OpenBSD port generates
    policies but kernel checking is Linux-only)."""
    analysis, policy, _ = _analyze(
        binary, options or InstallerOptions(), strict=False
    )
    # Fill in call-site addresses from the analyzed (stub-inlined)
    # layout and re-key like the full installer does; policy-only
    # output is then directly comparable, renderable, and exportable.
    text_base = assign_addresses(reassemble(analysis.unit))[".text"]
    by_site = {}
    for block_index, site_policy in sorted(policy.sites.items()):
        insn_index = analysis.sites[block_index].insn_index
        site_policy.call_site = text_base + insn_index * 8
        by_site[site_policy.call_site] = site_policy
    policy.sites = by_site
    return policy


def _analyze(
    binary: SefBinary, options: InstallerOptions, strict: bool
) -> tuple[AnalysisResult, ProgramPolicy, list[str]]:
    """The front half of both pipelines: disassemble a copy of
    ``binary``, run PLTO's baseline passes (as the paper measured the
    rewrite), inline the syscall stubs, analyze, and generate the
    policy.  Returns the analysis, the policy (keyed by CFG block) and
    the labels of the inlined stubs."""
    source = SefBinary.from_bytes(binary.to_bytes())  # defensive copy
    unit = disassemble(source)
    run_baseline_passes(unit)
    inline_report = inline_syscall_stubs(unit)
    analysis = analyze(unit)
    policy = generate_policies(
        analysis,
        program=source.metadata.get("program", source.entry),
        personality=source.metadata.get("personality", "linux"),
        options=options,
        strict=strict,
    )
    return analysis, policy, inline_report.stubs


def _apply_metapolicy(
    policy: ProgramPolicy, options: InstallerOptions
) -> Optional[PolicyTemplate]:
    """Evaluate the metapolicy and apply template fills (§5.2)."""
    if options.metapolicy is None:
        if options.template_fills:
            _apply_fills_directly(policy, options.template_fills)
        return None
    template = options.metapolicy.evaluate(policy)
    for hole in template.holes:
        fill = options.template_fills.get((hole.syscall, hole.param_index))
        if fill is not None:
            template.fill(hole.call_site, hole.param_index, fill)
    if not template.complete:
        unfilled = [
            hole
            for hole in template.holes
            if (hole.call_site, hole.param_index) not in template.fills
        ]
        raise InstallError(
            f"metapolicy requirements unmet for {policy.program}: "
            + ", ".join(
                f"{hole.syscall} param {hole.param_index}" for hole in unfilled
            )
        )
    template.resolve()
    return template


def _apply_fills_directly(policy: ProgramPolicy, fills: dict) -> None:
    """Without a metapolicy, fills act as administrator overrides."""
    for site_policy in policy.sites.values():
        for (syscall, index), value in fills.items():
            if site_policy.syscall != syscall or index in site_policy.params:
                continue
            if isinstance(value, int):
                # Immediates work for dynamic arguments directly: the
                # runtime register value feeds the encoded call, so the
                # MAC matches iff the value matches.
                site_policy.params[index] = ParamPolicy(
                    index, ParamClass.IMMEDIATE, value
                )
            else:
                # String fills become (possibly literal) patterns: the
                # argument is dynamic, so it cannot be AS-rewritten; the
                # kernel instead pattern-matches its content (§5.1).  A
                # constant string is the degenerate zero-hint pattern.
                text = value.decode("utf-8") if isinstance(value, bytes) else str(value)
                site_policy.params[index] = ParamPolicy(
                    index, ParamClass.STRING, text.encode(), pattern=text
                )


def _sign(installed: SefBinary, rewrite: RewriteResult, mac: AesCmac) -> None:
    """Fill every record's call MAC now that addresses are final."""
    section_bases = assign_addresses(installed)

    def address_of(symbol: str) -> int:
        entry = installed.symbols[symbol]
        return section_bases[entry.section] + entry.offset

    authdata = installed.section(".authdata")
    for site in rewrite.sites:
        policy = site.policy
        policy.call_site = address_of(site.call_label)
        descriptor = policy.descriptor()

        params: list[ParamEncoding] = []
        for index, param in sorted(policy.params.items()):
            if index in site.string_symbols:
                content = (
                    param.pattern.encode("utf-8")
                    if param.pattern is not None
                    else param.value
                )
                params.append(
                    ParamEncoding.auth_string(
                        index,
                        address_of(site.string_symbols[index]),
                        len(content),
                        mac.tag(content),
                    )
                )
            elif param.symbol is not None:
                ref = param.symbol
                params.append(
                    ParamEncoding.immediate(
                        index, address_of(ref.symbol) + ref.addend
                    )
                )
            else:
                params.append(ParamEncoding.immediate(index, param.value))

        predset = None
        lastblock_address = 0
        if policy.control_flow:
            predset = (
                address_of(site.predset_symbol),
                len(site.predset_content),
                mac.tag(site.predset_content),
            )
            lastblock_address = address_of("__asc_polstate")

        capability = None
        if descriptor.capability_tracked:
            capability = (
                site.fd_mask,
                (
                    address_of(site.capability_symbol),
                    len(site.capability_content),
                    mac.tag(site.capability_content),
                ),
            )

        encoded = encode_policy(
            descriptor,
            policy.number,
            policy.call_site,
            policy.block_id,
            params,
            predset=predset,
            lastblock_address=lastblock_address,
            capability=capability,
        )
        call_mac = mac.tag(encoded)
        start = site.record_offset + CALL_MAC_OFFSET
        authdata.data[start : start + len(call_mac)] = call_mac


def _rekey_by_call_site(
    installed: SefBinary, policy: ProgramPolicy, rewrite: RewriteResult
) -> None:
    """Policies were keyed by CFG block during generation; the public
    object is keyed by absolute call-site address (§3.1's form)."""
    by_site = {}
    for site in rewrite.sites:
        by_site[site.policy.call_site] = site.policy
    policy.sites = by_site
