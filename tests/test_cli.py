"""The administrator CLI (`python -m repro.tools`)."""

import pytest

from repro.tools.cli import main
from repro.workloads.runtime import runtime_source

SOURCE = """
.section .text
.global _start
_start:
    li r1, msg
    li r3, 4
    li r2, msg
    li r1, 1
    call sys_write
    li r1, 0
    call sys_exit
.section .rodata
msg:
    .asciz "cli!"
""" + runtime_source("linux", ("write", "exit"))


@pytest.fixture
def workspace(tmp_path):
    source = tmp_path / "demo.s"
    source.write_text(SOURCE)
    return tmp_path, source


def _assemble(workspace):
    tmp_path, source = workspace
    assert main(["assemble", str(source)]) == 0
    return tmp_path / "demo.sef"


def _install(workspace, *extra):
    binary = _assemble(workspace)
    out = binary.with_suffix(".asc.sef")
    args = ["--fast-mac", "install", str(binary), "-o", str(out)]
    args.extend(extra)
    assert main(args) == 0
    return out


class TestAssemble:
    def test_produces_binary(self, workspace, capsys):
        binary = _assemble(workspace)
        assert binary.exists()
        assert "assembled demo" in capsys.readouterr().out

    def test_custom_output_and_name(self, workspace):
        tmp_path, source = workspace
        out = tmp_path / "custom.bin"
        assert main(["assemble", str(source), "-o", str(out), "--program", "x"]) == 0
        from repro.binfmt import SefBinary

        assert SefBinary.from_bytes(out.read_bytes()).metadata["program"] == "x"


class TestInstall:
    def test_install_reports_sites(self, workspace, capsys):
        _install(workspace)
        out = capsys.readouterr().out
        assert "call sites rewritten" in out

    def test_installed_binary_marked(self, workspace):
        installed = _install(workspace)
        from repro.binfmt import SefBinary

        binary = SefBinary.from_bytes(installed.read_bytes())
        assert binary.metadata["authenticated"] == "yes"

    def test_program_id_option(self, workspace):
        installed = _install(workspace, "--program-id", "5")
        from repro.binfmt import SefBinary

        binary = SefBinary.from_bytes(installed.read_bytes())
        assert binary.metadata["program_id"] == "5"


class TestRun:
    def test_run_prints_guest_stdout(self, workspace, capsys):
        installed = _install(workspace)
        capsys.readouterr()
        status = main(["--fast-mac", "run", str(installed), "--stats"])
        captured = capsys.readouterr()
        assert status == 0
        assert "cli!" in captured.out
        assert "cycles=" in captured.err

    def test_wrong_key_fail_stops(self, workspace, capsys):
        installed = _install(workspace)
        capsys.readouterr()
        status = main(
            ["--fast-mac", "--key", "other-key", "run", str(installed)]
        )
        captured = capsys.readouterr()
        assert status == 128 + 9
        assert "MAC mismatch" in captured.err

    def test_chaining_is_not_an_option(self, workspace, capsys):
        installed = _install(workspace)
        with pytest.raises(SystemExit) as exit_info:
            main(["--fast-mac", "run", str(installed), "--no-chain"])
        assert exit_info.value.code == 2
        assert "--no-chain" in capsys.readouterr().err

    def test_enforce_refuses_legacy(self, workspace, capsys):
        binary = _assemble(workspace)
        capsys.readouterr()
        status = main(["--fast-mac", "run", "--enforce", str(binary)])
        assert status == 128 + 9

    def test_vfs_prepopulation(self, workspace, capsys, tmp_path):
        source = tmp_path / "reader.s"
        source.write_text("""
.section .text
.global _start
_start:
    li r1, p
    li r2, 0
    call sys_open
    mov r1, r0
    li r2, b
    li r3, 8
    call sys_read
    mov r3, r0
    li r1, 1
    li r2, b
    call sys_write
    li r1, 0
    call sys_exit
.section .rodata
p:
    .asciz "/etc/x"
.section .bss
b:
    .space 8
""" + runtime_source("linux", ("open", "read", "write", "exit")))
        assert main(["assemble", str(source)]) == 0
        capsys.readouterr()
        status = main([
            "--fast-mac", "run", str(tmp_path / "reader.sef"),
            "--file", "/etc/x=payload",
        ])
        captured = capsys.readouterr()
        assert status == 0
        assert "payload" in captured.out


class TestInspection:
    def test_objdump_listing(self, workspace, capsys):
        binary = _assemble(workspace)
        capsys.readouterr()
        assert main(["objdump", str(binary)]) == 0
        assert "<_start>:" in capsys.readouterr().out

    def test_objdump_source_form_reassembles(self, workspace, capsys):
        binary = _assemble(workspace)
        capsys.readouterr()
        assert main(["objdump", "--source-form", str(binary)]) == 0
        text = capsys.readouterr().out
        from repro.asm import assemble as asm
        from repro.kernel import Kernel

        assert Kernel().run(asm(text)).stdout == b"cli!"

    def test_policy_dump(self, workspace, capsys):
        binary = _assemble(workspace)
        capsys.readouterr()
        assert main(["policy", str(binary)]) == 0
        assert "Permit write from location" in capsys.readouterr().out


class TestAttacks:
    def test_battery_via_cli(self, capsys):
        assert main(["--fast-mac", "attacks"]) == 0
        out = capsys.readouterr().out
        assert "shellcode" in out
        assert "UNEXPECTED" not in out


class TestPolicyFiles:
    def test_policy_json_and_diff(self, workspace, capsys, tmp_path):
        binary = _assemble(workspace)
        capsys.readouterr()
        assert main(["policy", "--json", str(binary)]) == 0
        text = capsys.readouterr().out
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(text)
        new.write_text(text)
        assert main(["policy-diff", str(old), str(new)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_policy_diff_flags_changes(self, workspace, capsys, tmp_path):
        binary = _assemble(workspace)
        capsys.readouterr()
        main(["policy", "--json", str(binary)])
        text = capsys.readouterr().out
        old = tmp_path / "old.json"
        old.write_text(text)
        mutated = text.replace('"write"', '"execve"')
        new = tmp_path / "new.json"
        new.write_text(mutated)
        assert main(["policy-diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "execve" in out


class TestReport:
    def test_report_prints_archived_tables(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        names = [
            "table1_policy_sizes", "table2_bison_diff", "table3_arg_coverage",
            "table4_microbench", "table5_table6_macro", "andrew_multiprogram",
            "attack_battery", "false_alarms", "installer_cost", "extensions_ablations",
        ]
        for name in names:
            (results / f"{name}.txt").write_text(f"[{name} body]\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        for name in names:
            assert f"[{name} body]" in out

    def test_report_flags_missing(self, capsys, tmp_path):
        assert main(["report", "--results-dir", str(tmp_path)]) == 1
        assert "missing reports" in capsys.readouterr().err


class TestRunNet:
    def test_run_net_completes_and_reports_stats(self, capsys):
        assert main([
            "--fast-mac", "run", "--net", "--clients", "2", "--requests", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "(server): exit 0" in out
        assert out.count("(client): exit 3") == 2
        assert "connections=2" in out
        assert "accepts=2" in out
        # 2 clients x 3 requests x 8 bytes, echoed: 96 each way.
        assert "bytes_sent=96" in out
        assert "bytes_received=96" in out

    def test_run_requires_binary_or_net(self, capsys):
        assert main(["run"]) == 2
        assert "unless --net" in capsys.readouterr().err


class TestConform:
    def test_conform_sweep_writes_report_and_metrics(self, capsys, tmp_path):
        report = tmp_path / "conform.json"
        prom = tmp_path / "conform.prom"
        assert main([
            "--fast-mac", "conform", "--seed", "0", "--count", "4",
            "--json", str(report), "--metrics", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "OK: 0 divergences" in out
        payload = report.read_text()
        assert '"seed": 0' in payload
        assert "repro_conform_programs 4" in prom.read_text()

    def test_conform_config_subset(self, capsys):
        assert main([
            "--fast-mac", "conform", "--count", "2",
            "--config", "interp", "--config", "no-fastpath",
        ]) == 0
        assert "configs=2" in capsys.readouterr().out
