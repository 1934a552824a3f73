"""The registry's engine tallies count each instruction, trap and
compiled block once, across fork and execve.

A fork child's VM starts with its parent's instruction and trap totals,
and an exec'd image's VM with its predecessor's, so the scheduler
counts both per slice; each VM's block-cache tallies start at 0 and are
added when it retires, at exit or when an execve replaces it.
"""

from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.workloads.netserver import build_netserver

from tests.kernel.sched.conftest import guest_binary, run_sched_guest

KEY = Key.from_passphrase("engine-tallies")


def test_fork_children_count_only_their_own_work():
    installed = install(build_netserver(clients=2, requests=3, spin=0), KEY)
    kernel = Kernel(key=KEY)
    multi = kernel.run_many([installed.binary], timeslice=1500)
    tasks = multi.scheduler.tasks.values()
    assert len(tasks) == 3
    assert all(not task.killed for task in tasks)
    retired = sum(consumed for _, consumed in multi.scheduler.interleaving)
    metrics = kernel.metrics
    assert metrics.get("engine.instructions_retired") == retired
    # Every trap of the installed server and clients is verified once.
    assert metrics.get("engine.syscalls") == (
        metrics.get("fastpath.hits") + metrics.get("fastpath.misses")
    )
    # The per-task totals count each client's inherited pre-fork work
    # a second time.
    assert sum(task.vm.instructions_executed for task in tasks) > retired


def test_execve_counts_the_replaced_images_blocks(kernel):
    five = guest_binary("    li r1, 5\n    call sys_exit\n", name="five")
    kernel.vfs.write_file("/bin/five", five.to_bytes())
    replaced = []
    exec_replace = kernel.exec_replace

    def spy(ctx, path, argv=None):
        replaced.append(ctx.vm)
        exec_replace(ctx, path, argv)

    kernel.exec_replace = spy
    multi = run_sched_guest(kernel, """
    li r13, 20
loop:
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, path
    li r2, 0
    li r3, 0
    call sys_execve
    li r1, 1
    call sys_exit
""", ["execve"], data="""
.section .rodata
path:
    .asciz "/bin/five"
""")
    assert multi.results[0].exit_status == 5
    (old_vm,) = replaced
    (task,) = multi.scheduler.tasks.values()
    before_exec = old_vm._block_cache.compiles
    after_exec = task.vm._block_cache.compiles
    assert before_exec > 0 and after_exec > 0
    assert kernel.metrics.get("engine.blocks_compiled") == before_exec + after_exec
    assert kernel.metrics.get("engine.instructions_retired") == (
        task.vm.instructions_executed
    )
