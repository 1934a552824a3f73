"""The guest shell and the spawn syscall."""

import pytest

from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.kernel import EnforcementMode, Kernel
from repro.workloads.tools import build_tool

KEY = Key.from_passphrase("shell-tests")


@pytest.fixture
def kernel():
    kernel = Kernel(key=KEY)
    kernel.vfs.write_file("/tmp/data.txt", b"b\na\n")
    kernel.register_binary("/bin/cat", build_tool("cat"))
    kernel.register_binary("/bin/sort", build_tool("sort"))
    kernel.register_binary("/bin/mkdir", build_tool("mkdir"))
    return kernel


def run_script(kernel, script: bytes):
    return kernel.run(build_tool("sh"), argv=["sh"], stdin=script)


class TestShell:
    def test_single_command(self, kernel):
        result = run_script(kernel, b"/bin/cat /tmp/data.txt\n")
        assert result.stdout == b"b\na\nok\n"

    def test_multiple_commands(self, kernel):
        result = run_script(kernel, b"/bin/sort /tmp/data.txt\n/bin/cat /tmp/data.txt\n")
        assert result.stdout == b"a\nb\nok\nb\na\nok\n"

    def test_command_with_arguments(self, kernel):
        result = run_script(kernel, b"/bin/mkdir /tmp/d1 /tmp/d2\n")
        assert result.stdout.endswith(b"ok\n")
        assert kernel.vfs.exists("/tmp/d1")
        assert kernel.vfs.exists("/tmp/d2")

    def test_failed_command_reports_err(self, kernel):
        result = run_script(kernel, b"/bin/cat /tmp/missing\n")
        assert result.stdout == b"ERR\n"
        assert result.exit_status == 0  # the shell itself continues

    def test_missing_program_reports_err(self, kernel):
        result = run_script(kernel, b"/bin/nosuch\n")
        assert result.stdout == b"ERR\n"

    def test_blank_lines_skipped(self, kernel):
        result = run_script(kernel, b"\n\n/bin/cat /tmp/data.txt\n\n")
        assert result.stdout == b"b\na\nok\n"

    def test_empty_script(self, kernel):
        assert run_script(kernel, b"").stdout == b""

    def test_script_without_trailing_newline(self, kernel):
        result = run_script(kernel, b"/bin/cat /tmp/data.txt")
        assert result.stdout == b"b\na\nok\n"


class TestProtectedSystem:
    def test_fully_authenticated_pipeline(self):
        kernel = Kernel(key=KEY, mode=EnforcementMode.ENFORCE)
        kernel.vfs.write_file("/tmp/data.txt", b"2\n1\n")
        for pid, name in enumerate(("sh", "cat", "sort"), start=1):
            installed = install(
                build_tool(name), KEY, InstallerOptions(program_id=pid)
            )
            kernel.register_binary(f"/bin/{name}", installed.binary)
        shell = kernel.vfs.read_file("/bin/sh")
        from repro.binfmt import SefBinary

        result = kernel.run(
            SefBinary.from_bytes(shell),
            argv=["sh"],
            stdin=b"/bin/sort /tmp/data.txt\n/bin/cat /tmp/data.txt\n",
        )
        assert not result.killed, result.kill_reason
        assert result.stdout == b"1\n2\nok\n2\n1\nok\n"

    def test_enforcing_kernel_blocks_legacy_spawn(self):
        kernel = Kernel(key=KEY, mode=EnforcementMode.ENFORCE)
        installed_shell = install(build_tool("sh"), KEY)
        kernel.register_binary("/bin/legacy", build_tool("cat"))
        result = kernel.run(
            installed_shell.binary, argv=["sh"], stdin=b"/bin/legacy\n"
        )
        assert result.stdout == b"ERR\n"
        assert any(e.kind == "blocked" for e in kernel.audit.events)
