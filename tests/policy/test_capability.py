"""Capability tracking (§5.3): tables and authenticated dictionaries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import AesCmac
from repro.policy import CapabilityError, CapabilityTable
from repro.policy.capability import AuthenticatedDictionary


class TestCapabilityTable:
    def test_grant_check(self):
        table = CapabilityTable()
        table.grant(7, 3)
        assert table.check(3, frozenset({7}))
        assert not table.check(3, frozenset({8}))
        assert not table.check(4, frozenset({7}))

    def test_revoke(self):
        table = CapabilityTable()
        table.grant(7, 3)
        table.revoke(3)
        assert not table.check(3, frozenset({7}))

    def test_revoke_unknown_ignored(self):
        CapabilityTable().revoke(99)  # must not raise

    def test_fd_reuse_after_close(self):
        # The paper's motivating subtlety: descriptors are reused.
        table = CapabilityTable()
        table.grant(7, 3)
        table.revoke(3)
        table.grant(9, 3)  # same fd number, different producing site
        assert table.check(3, frozenset({9}))
        assert not table.check(3, frozenset({7}))

    def test_multiple_live_fds_per_site(self):
        # ... and one open site can have several live descriptors.
        table = CapabilityTable()
        table.grant(7, 3)
        table.grant(7, 4)
        assert table.live_fds(7) == frozenset({3, 4})

    def test_double_grant_is_a_kernel_bug(self):
        table = CapabilityTable()
        table.grant(7, 3)
        with pytest.raises(CapabilityError):
            table.grant(8, 3)


class TestAuthenticatedDictionary:
    def _dict(self):
        return AuthenticatedDictionary(provider=AesCmac(bytes(16)))

    def test_add_contains_remove(self):
        d = self._dict()
        d.add(5)
        assert d.contains(5)
        d.remove(5)
        assert not d.contains(5)

    def test_tampered_contents_detected(self):
        d = self._dict()
        d.add(5)
        d.contents = (5, 6)  # attacker edits untrusted memory
        with pytest.raises(CapabilityError):
            d.contains(6)

    def test_tampered_mac_detected(self):
        d = self._dict()
        d.add(5)
        d.mac = bytes(16)
        with pytest.raises(CapabilityError):
            d.contains(5)

    def test_replay_detected(self):
        d = self._dict()
        d.add(5)
        stale = (d.contents, d.mac)
        d.remove(5)
        d.contents, d.mac = stale  # roll back the untrusted half
        with pytest.raises(CapabilityError):
            d.contains(5)

    def test_counter_lives_in_trusted_memory(self):
        d = self._dict()
        d.add(5)
        counter_before = d.counter
        d.remove(5)
        assert d.counter == counter_before + 1

    @given(values=st.lists(st.integers(min_value=0, max_value=100), max_size=20))
    def test_matches_a_plain_set(self, values):
        d = self._dict()
        reference: set[int] = set()
        for value in values:
            if value % 3 == 0 and value in reference:
                d.remove(value)
                reference.discard(value)
            else:
                d.add(value)
                reference.add(value)
        assert set(d.contents) == reference
