"""Capability tracking policies (§5.3).

A capability-tracking policy requires that an argument of a system call
be derived from the return value of an earlier call — the canonical
example being "the fd passed to ``read`` must have been returned by an
``open`` whose policy allows it".

The paper sketches two designs and adopts the second:

1. *naive*: remember only the last fd returned by each ``open`` site —
   broken because an open site can be executed repeatedly, several of
   its descriptors can be live at once, and fds are reused after close;
2. *set-based*: keep, per producing call site, the set of currently
   active descriptors, added on ``open`` and removed on ``close``,
   maintained in an efficient authenticated structure (the paper cites
   authenticated dictionaries).

:class:`CapabilityTable` implements the set-based design.  We keep the
table in kernel memory — trusted by construction — and additionally
provide :class:`AuthenticatedDictionary`, a MAC-chained set that shows
how the same state can live in *untrusted* application memory with only
a counter in the kernel, mirroring the lastBlock memory checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import AesCmac


class CapabilityError(Exception):
    """A capability check failed (wrong or stale descriptor)."""


@dataclass
class CapabilityTable:
    """Kernel-side tracking: producing site -> set of live descriptors."""

    #: site block id -> active fds produced by that site
    by_site: dict[int, set[int]] = field(default_factory=dict)
    #: fd -> producing site (for close-time removal)
    owner: dict[int, int] = field(default_factory=dict)

    def grant(self, site_block: int, fd: int) -> None:
        """Record that ``site_block``'s open/socket returned ``fd``."""
        if fd in self.owner:
            # fd reuse after a close that we missed would be a kernel
            # bug; the table must never double-grant.
            raise CapabilityError(f"fd {fd} already live (site {self.owner[fd]})")
        self.by_site.setdefault(site_block, set()).add(fd)
        self.owner[fd] = site_block

    def revoke(self, fd: int) -> None:
        """Remove ``fd`` on close; unknown fds are ignored (the fd may
        predate tracking, e.g. stdin/stdout)."""
        site = self.owner.pop(fd, None)
        if site is not None:
            self.by_site[site].discard(fd)

    def check(self, fd: int, allowed_sites: frozenset[int]) -> bool:
        """Does ``fd`` descend from one of the allowed producing sites?"""
        site = self.owner.get(fd)
        return site is not None and site in allowed_sites

    def live_fds(self, site_block: int) -> frozenset[int]:
        return frozenset(self.by_site.get(site_block, ()))


@dataclass
class AuthenticatedDictionary:
    """A MAC-authenticated set living in untrusted memory.

    The *contents* (a sorted tuple of ints) model data stored in the
    application's address space; the kernel keeps only ``counter`` and
    recomputes/verifies the MAC on every operation, exactly like the
    lastBlock memory checker but for a set.  Replaying a stale snapshot
    fails because the counter participates in the MAC.
    """

    provider: AesCmac
    # -- untrusted half (application memory) --
    contents: tuple[int, ...] = ()
    mac: bytes = b""
    # -- trusted half (kernel memory) --
    counter: int = 0

    def __post_init__(self) -> None:
        if not self.mac:
            self.mac = self._tag(self.contents, self.counter)

    def _tag(self, contents: tuple[int, ...], counter: int) -> bytes:
        payload = counter.to_bytes(8, "little") + b"".join(
            v.to_bytes(4, "little") for v in contents
        )
        return self.provider.tag(payload)

    def _verify(self) -> None:
        if self.mac != self._tag(self.contents, self.counter):
            raise CapabilityError("authenticated dictionary corrupted or replayed")

    def add(self, value: int) -> None:
        self._verify()
        contents = tuple(sorted(set(self.contents) | {value}))
        self.counter += 1
        self.contents = contents
        self.mac = self._tag(contents, self.counter)

    def remove(self, value: int) -> None:
        self._verify()
        contents = tuple(sorted(set(self.contents) - {value}))
        self.counter += 1
        self.contents = contents
        self.mac = self._tag(contents, self.counter)

    def contains(self, value: int) -> bool:
        self._verify()
        return value in self.contents
