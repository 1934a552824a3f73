"""Profile programs reproduce the published static structure."""

import hashlib

import pytest

from repro.crypto import Key
from repro.installer import generate_policy_only, install
from repro.kernel import Kernel
from repro.workloads.profiles import (
    PROFILE_PROGRAMS,
    build_profile_program,
    plan_sites,
    profile_syscalls,
)

KEY = Key.from_passphrase("profile-tests")


class TestInventories:
    @pytest.mark.parametrize("name", sorted(PROFILE_PROGRAMS))
    def test_linux_distinct_call_count_matches_target(self, name):
        assert len(profile_syscalls(name, "linux")) == PROFILE_PROGRAMS[name].target.calls

    def test_table1_openbsd_counts(self):
        # Table 1: ASC OpenBSD counts are 31 / 51 / 63 (inventory minus
        # the undisassemblable close).
        for name, expected in (("bison", 31), ("calc", 51), ("screen", 63)):
            inventory = len(profile_syscalls(name, "openbsd"))
            assert inventory - 1 == expected

    def test_no_duplicate_calls(self):
        for name in PROFILE_PROGRAMS:
            calls = profile_syscalls(name, "linux")
            assert len(calls) == len(set(calls))


#: sha256 of every profile binary (``SefBinary.to_bytes()``), pinned
#: from the all-pairs site allocation: the per-class scan must pick the
#: same moves, so Tables 1-3 and the cold-sites programs cannot move.
BINARY_SHA256 = {
    ("bison", "linux"): "8de1fcabcc120982dcfa9efffb5668f211348afe624eafa7ef9c68a36604fbfb",
    ("calc", "linux"): "647d59922d53a3d104a286940049f440f3961060ba9388a26fddccde04bda8e3",
    ("screen", "linux"): "2616065503f314f86105951fdb6cda9baced20b2d5e98a9da0e5c56ab46f62b3",
    ("tar", "linux"): "f9ca84f9d7d9810382ba487c6ba89476e84756188215cfe475475aef838ccecd",
    ("bison", "openbsd"): "f93919d24c1bae5dd81bed29557ea910b9c0501e7898a4464185a7b2b8b2da91",
    ("calc", "openbsd"): "fdae4ca36297ea982f057e94773fbc8debd6c07dd97231df1e24060371c9d9db",
    ("screen", "openbsd"): "018a47eae68a4360b7371328a7250c7cb3de156ce8643dd58d861bb9b9a80907",
    ("tar", "openbsd"): "c5c553e6a89e3a9804340780e147fe54f95dc2897b1f7b6dd5ecd3fa74d57785",
}


class TestPlanning:
    @pytest.mark.parametrize("name, personality", sorted(BINARY_SHA256))
    def test_binaries_are_pinned(self, name, personality):
        binary = build_profile_program(name, personality)
        digest = hashlib.sha256(binary.to_bytes()).hexdigest()
        assert digest == BINARY_SHA256[name, personality]

    def test_site_totals(self):
        for name, profile in PROFILE_PROGRAMS.items():
            plans = plan_sites(profile, "linux")
            assert len(plans) == profile.target.sites

    def test_one_live_exit(self):
        plans = plan_sites(PROFILE_PROGRAMS["bison"], "linux")
        live = [p for p in plans if p.producer == "exit"]
        assert len(live) == 1
        assert live[0].args == ["const"]


@pytest.mark.parametrize("name", sorted(PROFILE_PROGRAMS))
class TestTable3Exact:
    """The linux build must land the published Table 3 row exactly."""

    def test_coverage_row(self, name):
        target = PROFILE_PROGRAMS[name].target
        policy = generate_policy_only(build_profile_program(name, "linux"))
        assert policy.coverage_row() == {
            "sites": target.sites,
            "calls": target.calls,
            "args": target.args,
            "o/p": target.outputs,
            "auth": target.auth,
            "mv": target.mv,
            "fds": target.fds,
        }


class TestPersonalityEffects:
    def test_openbsd_close_unidentified(self):
        policy = generate_policy_only(build_profile_program("bison", "openbsd"))
        assert policy.unidentified_sites
        assert "close" not in policy.distinct_syscalls()

    def test_openbsd_mmap_via_indirection(self):
        policy = generate_policy_only(build_profile_program("bison", "openbsd"))
        assert "__syscall" in policy.distinct_syscalls()
        assert "mmap" not in policy.distinct_syscalls()

    def test_linux_has_direct_calls(self):
        policy = generate_policy_only(build_profile_program("bison", "linux"))
        assert "close" in policy.distinct_syscalls()
        assert "mmap" in policy.distinct_syscalls()
        assert "__syscall" not in policy.distinct_syscalls()


class TestRuntimeBehaviour:
    def test_common_mode_runs_clean(self):
        kernel = Kernel(key=KEY)
        result = kernel.run(build_profile_program("bison", "linux"), argv=["bison"])
        assert result.exit_status == 0
        assert not result.killed

    def test_full_mode_exercises_rare_calls(self):
        kernel = Kernel(key=KEY)
        common = kernel.run(build_profile_program("bison", "linux"), argv=["bison"])
        full = kernel.run(
            build_profile_program("bison", "linux"), argv=["bison", "full"]
        )
        assert full.syscalls > common.syscalls

    def test_authenticated_profile_runs_clean(self):
        # The profile program passes its own generated policies — the
        # no-false-alarm property of conservative static analysis.
        installed = install(build_profile_program("bison", "linux"), KEY)
        kernel = Kernel(key=KEY)
        for argv in (["bison"], ["bison", "full"]):
            result = kernel.run(installed.binary, argv=argv)
            assert not result.killed, result.kill_reason
            assert result.exit_status == 0
