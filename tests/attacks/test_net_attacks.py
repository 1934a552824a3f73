"""The networking attack battery must be fully blocked.

Three scenarios against the authenticated netserver (see
repro/attacks/netattacks.py): replaying the polstate that was valid
at an earlier accept, transplanting a *client's* live polstate into
the server, and flipping a bit of the send site's buffer-pointer
register between fetch and verification.  Each must die fail-stop in
its own violation family, on every engine configuration.
"""

import pytest

from repro.attacks import (
    accept_replay_attack,
    run_net_attacks,
    socket_state_reuse_attack,
    tampered_send_attack,
)
from repro.configs import CONFIGS
from repro.crypto import Key
from repro.kernel.auth import violation_family


@pytest.fixture(scope="module")
def key():
    return Key.from_passphrase("net-attack-tests", provider="fast-hmac")


class TestNetworkAttacks:
    def test_accept_replay_blocked_as_policy_state(self, key):
        result = accept_replay_attack(key)
        assert result.blocked, result.detail
        assert violation_family(result.kill_reason) == "policy-state"

    def test_socket_state_reuse_blocked_as_policy_state(self, key):
        result = socket_state_reuse_attack(key)
        assert result.blocked, result.detail
        assert violation_family(result.kill_reason) == "policy-state"

    def test_tampered_send_blocked_as_call_mac(self, key):
        result = tampered_send_attack(key)
        assert result.blocked, result.detail
        assert violation_family(result.kill_reason) == "call-mac"

    def test_battery_engine_and_fastpath_independent(self, key):
        """Verdicts and kill reasons are a security property: identical
        on every roster config (the interpreter, chaining on and off,
        and the full check on every trap)."""
        reasons = {}
        for config in CONFIGS:
            results = run_net_attacks(key, config)
            assert [r.blocked for r in results] == [True] * 3, config.name
            for result in results:
                reasons.setdefault(result.name, set()).add(result.kill_reason)
        # Same kill reason per scenario in every configuration.
        for name, seen in reasons.items():
            assert len(seen) == 1, (name, seen)

    def test_battery_shape(self, key):
        results = run_net_attacks(key)
        assert [r.name for r in results] == [
            "accept-replay", "socket-state-reuse", "tampered-send",
        ]
