"""The §4.1 attack experiments and the §5.5 Frankenstein defense.

These are the paper's headline security claims; every scenario must
land on its documented outcome.
"""

import pytest

from repro.attacks import (
    frankenstein_attack,
    mimicry_attack,
    non_control_data_attack,
    replay_attack,
    run_all_attacks,
    shellcode_attack,
)
from repro.configs import configs_named
from repro.crypto import Key

KEY = Key.from_passphrase("attack-tests", provider="fast-hmac")


class TestShellcode:
    def test_blocked(self):
        result = shellcode_attack(KEY)
        assert result.blocked
        assert "unauthenticated" in result.kill_reason

    def test_no_shell_output(self):
        assert b"SHELL" not in shellcode_attack(KEY).stdout


class TestMimicry:
    def test_call_graph_variant_blocked(self):
        result = mimicry_attack(KEY, "call-graph")
        assert result.blocked
        assert "control flow violation" in result.kill_reason

    def test_call_site_variant_blocked(self):
        result = mimicry_attack(KEY, "call-site")
        assert result.blocked
        assert "call MAC mismatch" in result.kill_reason


class TestNonControlData:
    def test_blocked_by_string_integrity(self):
        result = non_control_data_attack(KEY)
        assert result.blocked
        assert "integrity" in result.kill_reason


class TestFrankenstein:
    def test_defense_blocks_at_control_flow(self):
        result = frankenstein_attack(KEY, defense=True)
        assert result.blocked
        assert "control flow violation" in result.kill_reason

    def test_without_defense_the_splice_succeeds(self):
        # This is the vulnerability §5.5 describes; its success here is
        # the motivation for unique per-program block ids.
        result = frankenstein_attack(KEY, defense=False)
        assert not result.blocked
        assert b"SHELL-SPAWNED" in result.stdout


class TestReplay:
    def test_nonce_detects_replay(self):
        result = replay_attack(KEY)
        assert result.blocked
        assert "policy state MAC mismatch" in result.kill_reason


class TestBattery:
    @pytest.fixture(scope="class")
    def results(self):
        return run_all_attacks(KEY)

    def test_seven_scenarios(self, results):
        assert len(results) == 7

    def test_all_defended_scenarios_blocked(self, results):
        defended = [r for r in results if r.name != "frankenstein/undefended"]
        assert all(r.blocked for r in defended)

    def test_verdicts_independent_of_chaining(self, results):
        # Block chaining and superblock fusion are pure engine
        # optimisations: the reference interpreter, which has neither,
        # must reach every verdict and kill reason the default chained
        # engine does.
        (interp,) = configs_named(["interp"])
        unchained = run_all_attacks(KEY, interp)
        assert [(r.name, r.blocked, r.kill_reason) for r in unchained] == \
            [(r.name, r.blocked, r.kill_reason) for r in results]

    def test_benign_run_unharmed(self):
        # The victim with a well-behaved input runs to completion and
        # actually lists the file (execve of /bin/ls succeeds).
        from repro.attacks.scenarios import _install_victim, _prepare_kernel

        installed = _install_victim(KEY)
        kernel = _prepare_kernel(KEY)
        result = kernel.run(installed.binary, stdin=b"/etc/motd\x00")
        assert not result.killed
        assert b"ls-output" in result.stdout


class TestMonitorComparison:
    """§2.1/§2.2: what each monitor class can and cannot stop.

    The non-control-data attack leaves the system call *sequence*
    byte-for-byte normal — only an argument changes.  A sequence
    monitor (stide) is structurally blind to it; the authenticated-
    string check stops it."""

    def test_sequence_monitor_blind_to_argument_attack(self):
        from repro.attacks.scenarios import _install_victim, _prepare_kernel
        from repro.monitor import StideModel, SyscallTracer

        installed = _install_victim(KEY)

        # Train stide on a benign run.
        kernel = _prepare_kernel(KEY)
        tracer = SyscallTracer()
        kernel.tracer = tracer
        kernel.run(installed.binary, stdin=b"/etc/motd\x00")
        model = StideModel(window=2)
        model.train(tracer.calls)
        benign_trace = list(tracer.calls)

        # The non-control-data attack's *intended* call sequence is the
        # same trace — stide accepts it outright.
        assert model.accepts(benign_trace)

        # ASC, however, fail-stops on the corrupted argument.
        result = non_control_data_attack(KEY)
        assert result.blocked

    def test_asc_and_stide_agree_on_shellcode(self):
        # Injected raw execve changes the sequence; both classes catch
        # it (ASC by authentication, stide by the unseen window).
        from repro.monitor import StideModel

        model = StideModel(window=2)
        model.train(["read", "open", "execve", "exit"])
        attack_sequence = ["read", "execve"]  # skips the open
        assert not model.accepts(attack_sequence)
        assert shellcode_attack(KEY).blocked
