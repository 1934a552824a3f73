"""The mini-tool corpus really works against the VFS."""

import pytest

from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.workloads.tools import TOOLS, build_tool

KEY = Key.from_passphrase("tools-tests")


@pytest.fixture
def kernel():
    kernel = Kernel(key=KEY)
    kernel.vfs.write_file("/tmp/a.txt", b"delta\nalpha\ncharlie\nbravo\n")
    kernel.vfs.write_file("/tmp/b.txt", b"aaaabbbcccccccd")
    return kernel


def run(kernel, name, argv, **kwargs):
    return kernel.run(build_tool(name), argv=[name] + argv, **kwargs)


class TestTools:
    def test_cat(self, kernel):
        result = run(kernel, "cat", ["/tmp/a.txt"])
        assert result.ok and result.stdout == b"delta\nalpha\ncharlie\nbravo\n"

    def test_cat_multiple(self, kernel):
        result = run(kernel, "cat", ["/tmp/b.txt", "/tmp/b.txt"])
        assert result.stdout == b"aaaabbbcccccccd" * 2

    def test_cat_missing_fails(self, kernel):
        assert run(kernel, "cat", ["/tmp/ghost"]).exit_status == 1

    def test_cp(self, kernel):
        assert run(kernel, "cp", ["/tmp/a.txt", "/tmp/copy"]).ok
        assert kernel.vfs.read_file("/tmp/copy") == kernel.vfs.read_file("/tmp/a.txt")

    def test_mv(self, kernel):
        assert run(kernel, "mv", ["/tmp/a.txt", "/tmp/moved"]).ok
        assert kernel.vfs.exists("/tmp/moved")
        assert not kernel.vfs.exists("/tmp/a.txt")

    def test_rm(self, kernel):
        assert run(kernel, "rm", ["/tmp/a.txt", "/tmp/b.txt"]).ok
        assert not kernel.vfs.exists("/tmp/a.txt")

    def test_mkdir(self, kernel):
        assert run(kernel, "mkdir", ["/tmp/x", "/tmp/x/y"]).ok
        assert kernel.vfs.lookup("/tmp/x/y").is_dir

    def test_chmod_parses_octal(self, kernel):
        assert run(kernel, "chmod", ["750", "/tmp/a.txt"]).ok
        assert kernel.vfs.lookup("/tmp/a.txt").mode == 0o750

    def test_chmod_bad_mode_fails(self, kernel):
        assert run(kernel, "chmod", ["89x", "/tmp/a.txt"]).exit_status == 1

    def test_ls(self, kernel):
        result = run(kernel, "ls", ["/tmp"])
        assert result.stdout == b"a.txt\nb.txt\n"

    def test_sort(self, kernel):
        result = run(kernel, "sort", ["/tmp/a.txt"])
        assert result.stdout == b"alpha\nbravo\ncharlie\ndelta\n"

    def test_wc(self, kernel):
        result = run(kernel, "wc", ["/tmp/a.txt"])
        assert result.stdout == b"4 26\n"

    def test_tar_untar_round_trip(self, kernel):
        assert run(kernel, "tar", ["/tmp/x.star", "/tmp/a.txt", "/tmp/b.txt"]).ok
        original = kernel.vfs.read_file("/tmp/a.txt")
        kernel.vfs.write_file("/tmp/a.txt", b"clobbered")
        assert run(kernel, "untar", ["/tmp/x.star"]).ok
        assert kernel.vfs.read_file("/tmp/a.txt") == original

    def test_gzip_round_trip(self, kernel):
        original = kernel.vfs.read_file("/tmp/b.txt")
        assert run(kernel, "gzip", ["/tmp/b.txt"]).ok
        assert not kernel.vfs.exists("/tmp/b.txt")
        compressed = kernel.vfs.read_file("/tmp/b.txt.gz")
        assert len(compressed) < len(original)
        assert run(kernel, "gunzip", ["/tmp/b.txt.gz"]).ok
        assert kernel.vfs.read_file("/tmp/b.txt.gz.out") == original

    def test_chdir_prints_cwd(self, kernel):
        assert run(kernel, "chdir", ["/etc"]).stdout == b"/etc"

    def test_unknown_tool_rejected(self):
        with pytest.raises(KeyError):
            build_tool("emacs")

    def test_startup_work_charged(self, kernel):
        slow = build_tool("cat", startup_work=1_000_000)
        fast = build_tool("cat")
        slow_run = kernel.run(slow, argv=["cat", "/tmp/b.txt"])
        fast_run = kernel.run(fast, argv=["cat", "/tmp/b.txt"])
        assert slow_run.cycles - fast_run.cycles == 1_000_000


class TestToolsAuthenticated:
    """Every tool must also run correctly after installation."""

    @pytest.mark.parametrize("name", TOOLS)
    def test_installed_tool_runs(self, kernel, name):
        installed = install(build_tool(name), KEY)
        argv = {
            "cat": ["/tmp/a.txt"],
            "cp": ["/tmp/a.txt", "/tmp/c"],
            "mv": ["/tmp/b.txt", "/tmp/m"],
            "rm": ["/tmp/a.txt"],
            "mkdir": ["/tmp/d"],
            "chmod": ["644", "/tmp/a.txt"],
            "chdir": ["/etc"],
            "ls": ["/tmp"],
            "tar": ["/tmp/t.star", "/tmp/a.txt"],
            "untar": ["/tmp/t.star"],
            "gzip": ["/tmp/a.txt"],
            "gunzip": ["/tmp/a.txt.gz"],
            "sort": ["/tmp/a.txt"],
            "wc": ["/tmp/a.txt"],
            "sh": [],  # empty stdin: the shell reads nothing and exits
            "grep": ["alpha", "/tmp/a.txt"],
            "head": ["/tmp/a.txt"],
        }[name]
        if name == "untar":
            kernel.run(
                install(build_tool("tar"), KEY).binary,
                argv=["tar", "/tmp/t.star", "/tmp/a.txt"],
            )
        if name == "gunzip":
            kernel.run(
                install(build_tool("gzip"), KEY).binary,
                argv=["gzip", "/tmp/a.txt"],
            )
        result = kernel.run(installed.binary, argv=[name] + argv)
        assert not result.killed, result.kill_reason
        assert result.exit_status == 0


class TestGrepHead:
    def test_grep_matches(self, kernel):
        kernel.vfs.write_file("/tmp/g.txt", b"alpha one\nbeta\ngamma one\n")
        result = run(kernel, "grep", ["one", "/tmp/g.txt"])
        assert result.ok
        assert result.stdout == b"alpha one\ngamma one\n"

    def test_grep_no_match(self, kernel):
        kernel.vfs.write_file("/tmp/g.txt", b"alpha\nbeta\n")
        result = run(kernel, "grep", ["zzz", "/tmp/g.txt"])
        assert result.ok
        assert result.stdout == b""

    def test_grep_needle_spanning_lines_not_matched(self, kernel):
        kernel.vfs.write_file("/tmp/g.txt", b"ab\ncd\n")
        result = run(kernel, "grep", ["b\nc", "/tmp/g.txt"])
        # argv strings cannot carry newlines through the shell-less
        # harness anyway, but a needle longer than any line must not
        # match across boundaries.
        assert result.stdout == b""

    def test_grep_last_line_without_newline(self, kernel):
        kernel.vfs.write_file("/tmp/g.txt", b"xx match")
        result = run(kernel, "grep", ["match", "/tmp/g.txt"])
        assert result.stdout == b"xx match"

    def test_head_truncates_to_five_lines(self, kernel):
        body = b"".join(b"line %d\n" % i for i in range(10))
        kernel.vfs.write_file("/tmp/h.txt", body)
        result = run(kernel, "head", ["/tmp/h.txt"])
        assert result.stdout == b"".join(b"line %d\n" % i for i in range(5))

    def test_head_short_file(self, kernel):
        kernel.vfs.write_file("/tmp/h.txt", b"only\n")
        result = run(kernel, "head", ["/tmp/h.txt"])
        assert result.stdout == b"only\n"

    def test_grep_installed(self, kernel):
        from repro.installer import install

        kernel.vfs.write_file("/tmp/g.txt", b"alpha one\nbeta\n")
        installed = install(build_tool("grep"), KEY)
        result = kernel.run(installed.binary, argv=["grep", "one", "/tmp/g.txt"])
        assert not result.killed
        assert result.stdout == b"alpha one\n"
