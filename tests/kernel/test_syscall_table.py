"""The one syscall table and what is derived from it."""

from repro.kernel.kernel import CAPABILITY_CALLS
from repro.kernel.syscalls import (
    _HANDLERS,
    SYSCALL_NAMES,
    SYSCALL_NUMBERS,
    SYSCALLS,
    FdEffect,
    syscall_spec,
)
from repro.monitor.systrace import _PATH_CALLS
from repro.plto.dataflow import FD_PRODUCER_NUMBERS


def _with_effect(effect):
    return {name for name, spec in SYSCALLS.items() if spec.fd_effect is effect}


class TestTable:
    def test_names_equal_the_registered_handlers(self):
        assert set(SYSCALLS) == set(_HANDLERS)

    def test_numbers_and_names_invert(self):
        assert len(SYSCALL_NAMES) == len(SYSCALL_NUMBERS) == len(SYSCALLS)
        for name, spec in SYSCALLS.items():
            assert spec.name == name
            assert SYSCALL_NUMBERS[name] == spec.number
            assert SYSCALL_NAMES[spec.number] == name
            assert syscall_spec(spec.number) is spec

    def test_each_argument_has_at_most_one_kind(self):
        for spec in SYSCALLS.values():
            kinds = (spec.outputs, spec.fd_args, spec.string_args)
            assert all(index < spec.nargs <= 6 for kind in kinds for index in kind)
            assert sum(len(kind) for kind in kinds) == len(frozenset().union(*kinds))

    def test_unknown_number_is_six_opaque_args(self):
        spec = syscall_spec(999)
        assert (spec.name, spec.number, spec.nargs) == ("syscall#999", 999, 6)
        assert not (spec.outputs or spec.fd_args or spec.string_args or spec.fd_effect)


class TestFdEffects:
    def test_producers_and_revoker(self):
        assert _with_effect(FdEffect.NEW_FD) == {"open", "dup", "dup2", "socket", "accept"}
        assert _with_effect(FdEffect.REVOKES) == {"close"}

    def test_pipe_has_no_fd_effect(self):
        """pipe's r0 is 0; its two fds come back through memory."""
        assert SYSCALLS["pipe"].fd_effect is None
        assert SYSCALLS["pipe"].outputs == frozenset({0})

    def test_installer_and_kernel_agree(self):
        assert FD_PRODUCER_NUMBERS == {
            SYSCALL_NUMBERS[name] for name in _with_effect(FdEffect.NEW_FD)
        }
        assert CAPABILITY_CALLS == _with_effect(FdEffect.NEW_FD) | {"close"}


def test_systrace_path_calls_are_the_string_arg0_calls():
    assert _PATH_CALLS == {
        "open", "stat", "access", "readlink", "unlink", "mkdir", "rmdir",
        "chmod", "chdir", "truncate", "utime", "execve", "chown", "statfs",
        "link", "symlink", "rename", "spawn",
    }
