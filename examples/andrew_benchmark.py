#!/usr/bin/env python3
"""The §4.3 Andrew-like multiprogram benchmark.

Runs the real mini-tool pipeline (mkdir, cp, chmod, cat, wc, ls, sort,
tar, untar, gzip, gunzip, mv, rm) against the simulated VFS twice —
once with PLTO-processed unauthenticated binaries, once with fully
authenticated binaries — and reports the overhead.  The paper measured
+0.96% (259.66s -> 262.14s) at ~12,000 syscalls per iteration.

Run:  python examples/andrew_benchmark.py [iterations]
"""

import sys

from repro.crypto import Key
from repro.workloads import AndrewBenchmark


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    key = Key.from_passphrase("andrew-demo")

    print(f"running {iterations} iteration(s) with original binaries...")
    original = AndrewBenchmark(key=key, iterations=iterations, authenticated=False).run()
    print(f"  cycles={original.cycles:,}  syscalls={original.syscalls:,}  "
          f"processes={original.processes}")
    if original.failures:
        print(f"  failures: {original.failures}")

    print(f"running {iterations} iteration(s) with authenticated binaries...")
    authenticated = AndrewBenchmark(key=key, iterations=iterations, authenticated=True).run()
    print(f"  cycles={authenticated.cycles:,}  syscalls={authenticated.syscalls:,}  "
          f"processes={authenticated.processes}")
    if authenticated.failures:
        print(f"  failures: {authenticated.failures}")

    overhead = 100.0 * (authenticated.cycles - original.cycles) / original.cycles
    print(f"\noverhead: {overhead:.2f}%   (paper: 0.96%)")
    print(f"syscalls per iteration: {authenticated.syscalls // iterations:,} "
          "(paper: ~12,000)")


if __name__ == "__main__":
    main()
