#!/usr/bin/env python3
"""Multiprogramming, live: a pipe-fed worker pool plus a blocked
cross-process attack.

Part 1 runs the multi-process server workload: a master forks four
workers, feeds sixteen requests round-robin through kernel pipes,
closes the write ends (EOF), and reaps every worker with wait4.  The
preemptive scheduler timeslices all five processes; the run is fully
deterministic, and identical under either execution engine.

Part 2 mounts the cross-process replay attack: three instances of one
installed program run side by side, and at a context switch the
attacker copies a sibling's live lastBlock/lbMAC into the second
instance.  The per-process auth counter — the kernel-resident nonce of
the §3.2 online memory checker — makes the transplanted state verify
against the wrong nonce: that process alone is fail-stopped while its
siblings run to completion.

Run:  python examples/multiprocess_server.py
"""

from repro.attacks import cross_process_replay_attack
from repro.crypto import Key
from repro.kernel import Kernel
from repro.workloads.multiproc import build_server

WORKERS = 4
REQUESTS = 16


def main() -> None:
    print(f"-- part 1: {WORKERS}-worker pipe-fed server, preemptive "
          "round-robin --\n")
    kernel = Kernel()
    multi = kernel.run_many(
        [build_server(workers=WORKERS, requests=REQUESTS)], timeslice=500
    )
    master = multi.results[0]
    print(f"master exit status: {master.exit_status} "
          f"(0 = every request accounted for)")
    tasks = multi.scheduler.tasks
    master_pid = min(tasks)
    for pid, task in sorted(tasks.items()):
        role = "master" if pid == master_pid else "worker"
        print(f"  pid {pid} ({role}): exit={task.exit_status} "
              f"handled={len(task.process.stdout) // 8} records, "
              f"switched in {task.switches}x")
    print(f"context switches: {kernel.metrics.get('sched.context_switches')}, "
          f"preemptions: {kernel.metrics.get('sched.preemptions')}, "
          f"blocked waits: {kernel.metrics.get('sched.blocks')}, "
          f"forks: {kernel.metrics.get('sched.forks')}")

    print("\n-- part 2: cross-process lastBlock/lbMAC replay --\n")
    result = cross_process_replay_attack(Key.generate())
    verdict = "BLOCKED" if result.blocked else "SUCCEEDED"
    print(f"{result.name}: {verdict}")
    print(f"  {result.detail}")
    print(f"  kernel: {result.kill_reason}")
    print("  (the corrupted sibling was fail-stopped; the donor and the "
          "bystander ran to completion)")


if __name__ == "__main__":
    main()
