"""Command line of the benchmark.

    python3 -m perfbench.run --workload NAME --seed N [--seconds S]
                             [--trace 0|1] [--out PATH]

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout; without it the command exits 2 and
prints no result.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.  Without ``--workload`` every workload runs, one at
a time, each in its own child process.

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every pass was correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run")
    parser.add_argument("--workload", help="one workload (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=0, help="selects the MAC key")
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", help="write the full report (and any trace) here")
    return parser.parse_args(argv)


def _run_all(args, names, seconds) -> int:
    """Each workload in a child process; the result line merges theirs
    with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [
            sys.executable, "-m", "perfbench.run", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            out = Path(args.out)
            command += ["--out", str(out.with_name(f"{out.stem}.{name}{out.suffix}"))]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Imported only now: the program under test comes from this
    # checkout's src/, which is on the path only from here on.
    from perfbench import harness

    spec = harness.load_spec(ROOT)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return _run_all(args, list(harness.WORKLOADS), seconds)
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    report = harness.measure(
        args.workload, args.seed, seconds, bool(args.trace), spec,
        harness.load_pins(), ROOT, out=args.out,
    )
    print(harness.render(report, spec))
    if args.out:
        harness.write_report(report, args.out)
    print(json.dumps(harness.summary(report)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
