"""Same-host ratio gate on perfbench's workloads.

The paper states its costs as ratios between configurations on one
machine, and so does this gate.  It runs perfbench's ``spec-cpu`` and
``syscall-warm`` programs on every config of the roster in
:mod:`repro.configs`, each pass on fresh kernels built with
``Kernel(key=..., **config.kernel_kwargs())``, keeps the best host
time of :data:`REPEATS` passes, and checks two ratios:

- **G1, engine payoff:** spec-cpu instr/s on ``chained`` is at least
  20x ``interp``.
- **G2, verifier payoff:** syscall-warm syscalls/s on ``chained`` is at
  least 2.5x ``no-fastpath``.

Both sides of a ratio complete the same pinned work, so a rate ratio
is the inverse ratio of the best host times.  Every pass is checked
against perfbench's pinned outputs.  On ``no-fastpath`` two outputs are
left out: ``traps`` counts fast-path hits and misses, which is 0
without verifier thunks, and ``cycles`` is the cost model's charge,
which is higher when every trap pays the full check (Table 4's
uncached column).  Exits 1 if a gate fails or a pass does not match
its pins.

Run from the repo root::

    PYTHONPATH=src:. python benchmarks/ratio_gate.py
"""

from __future__ import annotations

import gc
import sys
import time

from perfbench.harness import load_pins
from perfbench.workloads import WORKLOADS, bench_key, check_outputs, setup
from repro.configs import CONFIGS
from repro.kernel import Kernel

#: Timed passes per (workload, config), interleaved across configs so
#: both sides of a ratio see the same host load; the best one counts.
REPEATS = 5

#: (gate, workload, metric, fast config, slow config, minimum ratio).
#: Measured on a 2-vCPU host with Python 3.11, best of 5:
#: G1 read 30.2-35.3x over 8 runs, and 13.6-16.5x with block chaining
#: and superblock fusion off, so an engine that silently stops chaining
#: fails it.  G2 read 4.17-4.37x, and 0.86-1x with the verifier
#: thunks off.  With register-local superblock loops G1 reads 41.2x
#: and 43.9x, and 14.2x with chaining and fusion off; G2 4.37x and
#: 4.68x.  With the AES block in libcrypto G1 reads 64.2x and 60.7x
#: and G2 4.17x and 4.39x; the table cipher, run in between on the
#: same host, read 48.3x and 4.11x.  The faster block shortens the
#: chained spec-cpu pass and both sides of G2.  With lean warm traps
#: (pre-resolved polstate, the thunk as its own verdict, a slotted
#: syscall context, CMAC on 128-bit ints) G2 reads 5.97x and 5.99x and
#: G1 77.1x and 86.3x; the parent, run in between, read 4.69x and
#: 54.8x.  Only G2's chained side runs thunk hits, so G2 moves most.
#: With one instruction semantics the interpreter's ALU arm is one dict
#: probe (``op in ALU_BASE``) where it built two tuples of 19 enum
#: loads, each a descriptor call, so its best spec-cpu pass fell from
#: 1,648-1,755 ms to 759-805 ms: G1 reads 29.53x, 30.04x and 30.71x
#: and G2 4.08x, 4.27x and 4.06x; the parent, run in between, read
#: 64.09x and 63.02x, and 4.18x twice.  With chaining and fusion off G1
#: should now read about 6-8x, still under 20x; that is reasoned, not
#: measured: no switch turns chaining off.
#:
#: Both thresholds hold on Python 3.11 only, which is what CI runs this
#: gate on.  On 3.12.1 (same host, 3 runs) the interp engine's best
#: spec-cpu pass is about twice as fast, 1,019-1,095 ms against
#: 2,147-2,246 ms, and chained a little slower, 57-65 ms against
#: 49-55 ms: G1 reads 16.9x, 17.8x and 18.0x, and 6.9x with chaining
#: and fusion off; G2 reads 4.33-4.78x.
GATES = (
    ("G1 engine payoff", "spec-cpu", "instr/s", "chained", "interp", 20.0),
    ("G2 verifier payoff", "syscall-warm", "syscalls/s", "chained", "no-fastpath", 2.5),
)

WORKLOAD_NAMES = tuple(dict.fromkeys(gate[1] for gate in GATES))


def run_pass(config, key, programs) -> tuple[float, dict]:
    """``(host seconds, outputs)`` of one pass: each program on a fresh
    kernel of ``config``, with perfbench's output fields."""
    gc.collect()
    kernels, results = [], []
    start = time.perf_counter()
    for argv, binary in programs:
        kernel = Kernel(key=key, **config.kernel_kwargs())
        kernels.append(kernel)
        results.append(kernel.run(binary, argv=argv))
    host_s = time.perf_counter() - start
    outputs = {
        "exit_statuses": [r.exit_status for r in results],
        "killed": [r.killed for r in results],
        "instructions": sum(r.instructions for r in results),
        "traps": sum(
            k.metrics.get("fastpath.hits") + k.metrics.get("fastpath.misses")
            for k in kernels
        ),
        "syscalls": sum(r.syscalls for r in results),
        "cycles": sum(r.cycles for r in results),
    }
    return host_s, outputs


#: Outputs that measure the fast path itself (see module docstring).
FASTPATH_OUTPUTS = ("traps", "cycles")


def pin_problem(config, outputs: dict, pin: dict):
    """Why ``outputs`` do not match ``pin`` on ``config``, or None."""
    if not config.fastpath:
        outputs = {k: v for k, v in outputs.items() if k not in FASTPATH_OUTPUTS}
        pin = {k: v for k, v in pin.items() if k not in FASTPATH_OUTPUTS}
    return check_outputs(outputs, pin)


def ratios(best_s: dict) -> dict:
    """Gate name -> measured ratio, from the best host seconds keyed by
    ``(workload, config name)``."""
    return {
        gate: best_s[workload, slow] / best_s[workload, fast]
        for gate, workload, _, fast, slow, _ in GATES
    }


def failing_gates(measured: dict) -> list[str]:
    """The gates whose measured ratio is below its minimum."""
    return [
        f"{gate}: {measured[gate]:.2f}x < {minimum}x"
        for gate, *_, minimum in GATES
        if measured[gate] < minimum
    ]


def main() -> int:
    key = bench_key(0)
    pins = load_pins()
    programs = {name: setup(WORKLOADS[name], key) for name in WORKLOAD_NAMES}
    best_s: dict = {}
    problems: dict = {}  # (workload, config name) -> first pin mismatch
    for _ in range(REPEATS):
        for name in WORKLOAD_NAMES:
            for config in CONFIGS:
                host_s, outputs = run_pass(config, key, programs[name])
                cell = (name, config.name)
                problem = pin_problem(config, outputs, pins[name])
                if problem:
                    problems.setdefault(cell, f"{name} on {config.name}: {problem}")
                best_s[cell] = min(host_s, best_s.get(cell, host_s))
    for (name, config), seconds in best_s.items():
        print(f"{name:13s} {config:12s} best {seconds * 1e3:9.1f} ms of {REPEATS}")
    measured = ratios(best_s)
    for gate, workload, metric, fast, slow, minimum in GATES:
        print(f"{gate}: {workload} {fast}/{slow} {metric} = "
              f"{measured[gate]:.2f}x (gate >= {minimum}x)")
    failures = list(problems.values()) + failing_gates(measured)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
