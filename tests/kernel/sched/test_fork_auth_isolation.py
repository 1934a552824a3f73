"""Per-process authentication state isolation.

The tentpole property: each process carries its own auth counter,
its own lastBlock/lbMAC region, and its own fast-path cache partition.
These tests check the three ways that could break: counters failing to
diverge after fork, verification-cache hits leaking across pids, and a
fail-stop in one process taking siblings down with it."""

from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.binfmt import link
from repro.kernel import EnforcementMode, Kernel
from repro.kernel.sched.scheduler import Scheduler

from repro.attacks.crossproc import _forker_binary, _looper_binary


def _kernel(key, **kwargs):
    return Kernel(key=key, mode=EnforcementMode.PERMISSIVE, **kwargs)


class TestForkCounterDivergence:
    def test_counters_diverge_then_both_complete(self):
        """Fork copies the parent's counter; asymmetric syscall rates
        must then pull the two counters apart — and both processes
        still verify and finish (each one's polstate is MAC'd under
        its OWN counter)."""
        key = Key.generate()
        installed = install(_forker_binary(), key, InstallerOptions())
        kernel = _kernel(key)
        scheduler = Scheduler(kernel, timeslice=800)
        parent = scheduler.adopt(*kernel.load(installed.binary))
        observed: list[tuple[int, int]] = []

        def on_switch(sched, task):
            if task.parent_pid is None:
                return
            source = sched.tasks.get(task.parent_pid)
            if source is not None:
                observed.append(
                    (source.process.auth_counter, task.process.auth_counter)
                )

        scheduler.on_switch = on_switch
        scheduler.run()

        child = next(
            task for task in scheduler.tasks.values() if task.pid != parent.pid
        )
        assert parent.exit_status == 0 and not parent.killed
        assert child.exit_status == 0 and not child.killed
        # The hook saw the counters apart at least once mid-run.
        assert any(p != c for p, c in observed)
        # Both advanced their own counter the same total distance
        # (same program structure), independently.
        assert parent.process.auth_counter > 1
        assert child.process.auth_counter > 1

    def test_child_counter_snapshot_at_fork(self):
        """At the child's first schedule the inherited counter equals
        what the parent held when fork dispatched — not the parent's
        since-advanced value."""
        key = Key.generate()
        installed = install(_forker_binary(), key, InstallerOptions())
        kernel = _kernel(key)
        scheduler = Scheduler(kernel, timeslice=800)
        scheduler.adopt(*kernel.load(installed.binary))
        first: list[tuple[int, int]] = []

        def on_switch(sched, task):
            if task.parent_pid is not None and not first:
                source = sched.tasks[task.parent_pid]
                first.append(
                    (source.process.auth_counter, task.process.auth_counter)
                )

        scheduler.on_switch = on_switch
        scheduler.run()
        (parent_ctr, child_ctr) = first[0]
        # fork itself is the child's first inherited authenticated
        # call: the snapshot is exactly 1 (entry block -> fork site),
        # while the parent has already raced ahead in its first slice.
        assert child_ctr == 1
        assert parent_ctr > child_ctr


class TestFastpathPartitioning:
    def test_no_cross_pid_cache_leak(self):
        """Two instances of the same installed binary: the second
        process's first visit to every call site must MISS in its own
        per-pid cache — warm entries from the sibling's partition must
        not satisfy it."""
        key = Key.generate()
        installed = install(_looper_binary(), key, InstallerOptions())
        single = _kernel(key, fastpath=True)
        assert single.run_many([installed.binary], timeslice=1000).ok
        kernel = _kernel(key, fastpath=True)
        multi = kernel.run_many(
            [installed.binary, installed.binary], timeslice=1000
        )
        assert all(r.exit_status == 0 for r in multi.results)
        # One instance pays a cold miss per distinct site, then hits in
        # its own partition.
        assert single.metrics.get("fastpath.misses") >= 1
        assert single.metrics.get("fastpath.hits") > 0
        # Two instances pay exactly twice that: a leak would show as
        # misses turning into hits served from the sibling's partition.
        for name in ("fastpath.misses", "fastpath.hits"):
            assert kernel.metrics.get(name) == 2 * single.metrics.get(name), name


class TestFailStopContainment:
    def test_kill_one_keep_others(self):
        """Corrupt one sibling's policy state mid-run: only that
        process fail-stops; the other two instances finish, and the
        audit log names exactly the corrupted pid."""
        key = Key.generate()
        installed = install(_looper_binary(), key, InstallerOptions())
        kernel = _kernel(key)
        polstate = link(installed.binary).address_of("__asc_polstate")
        scheduler = Scheduler(kernel, timeslice=1000)
        tasks = [
            scheduler.adopt(*kernel.load(installed.binary)) for _ in range(3)
        ]
        victim = tasks[1]
        corrupted: list[int] = []

        def on_switch(sched, task):
            if not corrupted and task.pid == victim.pid:
                task.vm.memory.write(polstate, b"\x00" * 20, force=True)
                corrupted.append(task.pid)

        scheduler.on_switch = on_switch
        scheduler.run()

        assert corrupted
        assert victim.killed
        assert "policy state MAC" in victim.kill_reason
        assert tasks[0].exit_status == 0 and not tasks[0].killed
        assert tasks[2].exit_status == 0 and not tasks[2].killed
        killed_pids = {event.pid for event in kernel.audit.kills()}
        assert killed_pids == {victim.pid}
