"""Macro-benchmark programs and the Andrew driver (scaled down)."""

import pytest

from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.workloads.andrew import AndrewBenchmark
from repro.workloads.spec import (
    CYCLES_PER_SCALED_SECOND,
    SPEC_PROGRAMS,
    build_spec_program,
)

KEY = Key.from_passphrase("spec-tests")


class TestSpecPrograms:
    def test_table5_suite_complete(self):
        assert set(SPEC_PROGRAMS) == {
            "gzip-spec", "crafty", "mcf", "vpr", "twolf",
            "gcc", "vortex", "pyramid", "gzip",
        }

    def test_plan_matches_base_seconds(self):
        for program in SPEC_PROGRAMS.values():
            iterations, cpuwork = program.plan()
            assert iterations >= 1
            assert cpuwork >= 0

    def test_cpu_programs_have_more_work_per_call(self):
        cpu_iters, cpu_work = SPEC_PROGRAMS["mcf"].plan()
        sys_iters, sys_work = SPEC_PROGRAMS["pyramid"].plan()
        assert cpu_work > sys_work

    def test_program_runs_and_does_real_io(self):
        kernel = Kernel(key=KEY)
        result = kernel.run(
            build_spec_program("pyramid"), argv=["pyramid"]
        )
        assert result.ok
        assert kernel.vfs.read_file("/tmp/pyramid.dat")  # the record file

    def test_iteration_override_scales_syscalls(self):
        kernel = Kernel(key=KEY)
        small = kernel.run(build_spec_program("gcc", iterations=2), argv=["gcc"])
        large = kernel.run(build_spec_program("gcc", iterations=4), argv=["gcc"])
        assert large.syscalls - small.syscalls == 2 * 4

    def test_baseline_cycles_track_paper_seconds(self):
        kernel = Kernel(key=KEY)
        program = SPEC_PROGRAMS["pyramid"]
        result = kernel.run(build_spec_program("pyramid"), argv=["pyramid"])
        measured_seconds = result.cycles / CYCLES_PER_SCALED_SECOND
        assert measured_seconds == pytest.approx(program.base_seconds, rel=0.15)

    def test_authenticated_overhead_shape(self):
        # pyramid is the syscall-dense program: its overhead must be
        # several times larger than a CPU-bound program's.
        def overhead(name):
            kernel = Kernel(key=KEY)
            base = kernel.run(build_spec_program(name, iterations=6), argv=[name]).cycles
            kernel2 = Kernel(key=KEY)
            inst = install(build_spec_program(name, iterations=6), KEY)
            auth = kernel2.run(inst.binary, argv=[name]).cycles
            return (auth - base) / base

        assert overhead("pyramid") > 2.5 * overhead("mcf")


class TestAndrew:
    @pytest.mark.slow
    def test_tiny_run_both_flavours(self):
        config = dict(
            key=KEY, files_per_iteration=3, file_size=1024, startup_work=200_000
        )
        original = AndrewBenchmark(authenticated=False, **config).run()
        authenticated = AndrewBenchmark(authenticated=True, **config).run()
        assert not original.failures
        assert not authenticated.failures
        assert original.syscalls == authenticated.syscalls
        assert authenticated.cycles > original.cycles

    def test_seconds_scaling(self):
        from repro.workloads.andrew import AndrewResult

        result = AndrewResult(cycles=2_400_000, syscalls=1, processes=1)
        assert result.seconds_scaled == 1.0
