"""The ``repro.tools`` command-line interface."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.asm import assemble
from repro.binfmt import SefBinary
from repro.cpu import ENGINES
from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.kernel import EnforcementMode, Kernel
from repro.plto import disassemble
from repro.plto.printer import render_disassembly, render_policy, render_unit


def _key_from(args) -> Key:
    return Key.from_passphrase(args.key)


def _load_binary(path: str) -> SefBinary:
    return SefBinary.from_bytes(Path(path).read_bytes())


def _cmd_assemble(args) -> int:
    source = Path(args.source).read_text()
    program = args.program or Path(args.source).stem
    binary = assemble(source, metadata={"program": program})
    out = args.output or str(Path(args.source).with_suffix(".sef"))
    Path(out).write_bytes(binary.to_bytes())
    print(f"assembled {program}: {binary.sections['.text'].size} text bytes -> {out}")
    return 0


def _cmd_install(args) -> int:
    binary = _load_binary(args.binary)
    options = InstallerOptions(
        control_flow=not args.no_control_flow,
        program_id=args.program_id,
        capability_tracking=args.capability_tracking,
    )
    installed = install(binary, _key_from(args), options)
    out = args.output or args.binary.replace(".sef", "") + ".asc.sef"
    Path(out).write_bytes(installed.binary.to_bytes())
    print(
        f"installed {installed.policy.program}: "
        f"{installed.sites_rewritten} call sites rewritten, "
        f"{len(installed.policy.distinct_syscalls())} distinct syscalls -> {out}"
    )
    if installed.policy.unidentified_sites:
        print(
            f"WARNING: {len(installed.policy.unidentified_sites)} sites "
            "could not be identified",
            file=sys.stderr,
        )
    return 0


def _cmd_objdump(args) -> int:
    binary = _load_binary(args.binary)
    if args.source_form:
        print(render_unit(disassemble(binary)), end="")
    else:
        print(render_disassembly(binary), end="")
    return 0


def _cmd_policy(args) -> int:
    binary = _load_binary(args.binary)
    if binary.metadata.get("authenticated") == "yes":
        print(
            "note: binary is already installed; regenerating policies "
            "from its (rewritten) code",
            file=sys.stderr,
        )
    from repro.installer import generate_policy_only

    policy = generate_policy_only(binary)
    if args.json:
        from repro.policy.serialize import policy_to_json

        print(policy_to_json(policy), end="")
    else:
        print(render_policy(policy), end="")
    return 0


def _cmd_policy_diff(args) -> int:
    from repro.policy.serialize import diff_policies, policy_from_json

    old = policy_from_json(Path(args.old).read_text())
    new = policy_from_json(Path(args.new).read_text())
    lines = diff_policies(old, new)
    for line in lines:
        print(line)
    if not lines:
        print("policies are equivalent")
    return 1 if lines else 0


def _run_under_kernel(args, trace_path: Optional[str] = None):
    """Shared run/metrics machinery: build the kernel (optionally with
    a trace recorder attached), execute the binary, relay its output.
    Returns the (kernel, recorder, result) triple."""
    from repro.obs import TraceRecorder

    binary = _load_binary(args.binary)
    recorder = TraceRecorder() if trace_path else None
    kernel = Kernel(
        key=_key_from(args),
        mode=EnforcementMode.ENFORCE if args.enforce else EnforcementMode.PERMISSIVE,
        fastpath=not args.no_fastpath,
        engine=args.engine,
        recorder=recorder,
    )
    for spec in args.file or []:
        path, _, content = spec.partition("=")
        kernel.vfs.write_file(path, content.encode())
    stdin = args.stdin.encode() if args.stdin else b""
    argv = [binary.metadata.get("program", "a.out")] + (args.args or [])
    procs = getattr(args, "procs", 0) or 0
    if procs > 0:
        multi = kernel.run_many(
            [(binary, argv, stdin)] * procs,
            timeslice=getattr(args, "timeslice", 5000) or 5000,
        )
        for index, instance in enumerate(multi.results):
            prefix = f"[pid {instance.process.pid}] " if procs > 1 else ""
            for line in instance.stdout.decode("utf-8", "replace").splitlines():
                sys.stdout.write(f"{prefix}{line}\n")
            sys.stderr.write(instance.stderr.decode("utf-8", "replace"))
            if instance.killed:
                print(
                    f"[killed] pid {instance.process.pid}: "
                    f"{instance.kill_reason}",
                    file=sys.stderr,
                )
        if any(instance.killed for instance in multi.results):
            for event in kernel.audit.alerts():
                print(f"[audit] {event.render()}", file=sys.stderr)
        print(
            f"[sched] {procs} processes, "
            f"{len(multi.scheduler.tasks)} tasks total, "
            f"{kernel.metrics.get('sched.context_switches')} context switches, "
            f"{kernel.metrics.get('sched.preemptions')} preemptions, "
            f"{kernel.metrics.get('sched.blocks')} blocks",
            file=sys.stderr,
        )
        result = multi.results[0]
    else:
        result = kernel.run(binary, argv=argv, stdin=stdin)
        sys.stdout.write(result.stdout.decode("utf-8", "replace"))
        sys.stderr.write(result.stderr.decode("utf-8", "replace"))
        if result.killed:
            print(f"[killed] {result.kill_reason}", file=sys.stderr)
            for event in kernel.audit.alerts():
                print(f"[audit] {event.render()}", file=sys.stderr)
    if trace_path:
        recorder.write_chrome_trace(trace_path, kernel.metrics.snapshot())
        totals = recorder.stage_totals()
        traced_ms = recorder.total_traced_ns() / 1e6
        print(
            f"[trace] {trace_path}: {len(recorder.spans)} spans, "
            f"{traced_ms:.2f}ms traced",
            file=sys.stderr,
        )
        for name, entry in sorted(
            totals.items(), key=lambda item: -item[1]["self_ns"]
        ):
            print(
                f"[trace]   {name:16s} x{entry['count']:<6d} "
                f"self={entry['self_ns'] / 1e6:8.3f}ms "
                f"total={entry['total_ns'] / 1e6:8.3f}ms",
                file=sys.stderr,
            )
    return kernel, recorder, result


def _cmd_run_net(args) -> int:
    """``run --net``: install the netserver workload and run it under
    the preemptive scheduler, then print the loopback stack's view of
    the exchange."""
    from repro.workloads.netserver import build_netserver

    installed = install(
        build_netserver(clients=args.clients, requests=args.requests),
        _key_from(args),
        InstallerOptions(),
    )
    kernel = Kernel(
        key=_key_from(args),
        mode=EnforcementMode.ENFORCE if args.enforce else EnforcementMode.PERMISSIVE,
        fastpath=not args.no_fastpath,
        engine=args.engine,
    )
    multi = kernel.run_many(
        [installed.binary], timeslice=getattr(args, "timeslice", 5000) or 5000
    )
    server_pid = multi.results[0].process.pid
    failures = 0
    for pid in sorted(multi.scheduler.tasks):
        task = multi.scheduler.tasks[pid]
        label = "server" if pid == server_pid else "client"
        line = f"[net] pid {pid} ({label}): "
        if task.killed:
            line += f"killed: {task.kill_reason}"
            failures += 1
        else:
            line += f"exit {task.exit_status}"
            if task.exit_status != (0 if label == "server" else args.requests):
                failures += 1
        print(line)
    stats = ", ".join(
        f"{name.split('.', 1)[1]}={kernel.metrics.get(name)}"
        for name in (
            "net.connections", "net.accepts",
            "net.bytes_sent", "net.bytes_received",
        )
    )
    print(f"[net] {args.clients} clients x {args.requests} requests: {stats}")
    return 1 if failures else 0


def _cmd_run(args) -> int:
    if args.net:
        return _cmd_run_net(args)
    if not args.binary:
        print("run: a binary is required unless --net is given", file=sys.stderr)
        return 2
    kernel, _, result = _run_under_kernel(args, trace_path=args.trace)
    if args.stats:
        print(
            f"[stats] cycles={result.cycles} instructions={result.instructions} "
            f"syscalls={result.syscalls}",
            file=sys.stderr,
        )
        hits = kernel.metrics.get("fastpath.hits")
        misses = kernel.metrics.get("fastpath.misses")
        rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
        print(
            f"[stats] fastpath: {hits} hits / {misses} misses "
            f"({rate:.1f}% hit rate)",
            file=sys.stderr,
        )
        print(
            f"[stats] mac: {kernel.mac.name} (AES block: {kernel.mac.block_cipher})",
            file=sys.stderr,
        )
    return result.exit_status


def _cmd_metrics(args) -> int:
    """Run a binary and dump the kernel's counter registry in
    Prometheus exposition format (program output goes to stderr so the
    metrics text is pipeable)."""
    if not args.binary:
        print("metrics: a binary is required", file=sys.stderr)
        return 2
    stdout = sys.stdout
    sys.stdout = sys.stderr
    try:
        kernel, _, result = _run_under_kernel(args, trace_path=None)
    finally:
        sys.stdout = stdout
    text = kernel.metrics.render_prometheus()
    if args.output:
        Path(args.output).write_text(text)
        print(f"metrics written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 1 if result.killed else 0


def _cmd_attacks(args) -> int:
    from repro.attacks import (
        run_all_attacks,
        run_cross_process_attacks,
        run_net_attacks,
    )
    from repro.configs import CONFIGS

    # Every battery runs on every roster configuration: the verdicts
    # are a security property and must not depend on how the CPU is
    # emulated or whether traps go through verifier thunks.
    batteries = (
        ("", run_all_attacks),
        (" (cross-process)", run_cross_process_attacks),
        (" (network)", run_net_attacks),
    )
    failures = 0
    for suffix, battery in batteries:
        for config in CONFIGS:
            results = battery(_key_from(args), config)
            width = max(len(r.name) for r in results)
            print(f"-- config: {config.name}{suffix}")
            for result in results:
                # Only the undefended Frankenstein splice is meant to
                # succeed: it demonstrates the §5.5 vulnerability.
                expected_block = result.name != "frankenstein/undefended"
                status = "BLOCKED" if result.blocked else "succeeded"
                marker = "ok" if result.blocked == expected_block else "UNEXPECTED"
                print(f"{result.name.ljust(width)}  {status:10s} [{marker}]")
                if result.blocked != expected_block:
                    failures += 1
    return 1 if failures else 0


def _cmd_report(args) -> int:
    """Print the archived benchmark reports in paper order."""
    results = Path(args.results_dir)
    order = [
        ("table1_policy_sizes", "Table 1"),
        ("table2_bison_diff", "Table 2"),
        ("table3_arg_coverage", "Table 3"),
        ("table4_microbench", "Table 4"),
        ("table5_table6_macro", "Tables 5 & 6"),
        ("andrew_multiprogram", "Andrew-like benchmark"),
        ("attack_battery", "Attack experiments"),
        ("false_alarms", "False alarms"),
        ("installer_cost", "Installation cost"),
        ("extensions_ablations", "Ablations & extensions"),
    ]
    missing = []
    for stem, title in order:
        path = results / f"{stem}.txt"
        if not path.exists():
            missing.append(stem)
            continue
        print("=" * 72)
        print(path.read_text().rstrip())
        print()
    if missing:
        print(
            "missing reports (run `pytest benchmarks/ --benchmark-only`): "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import run_sweep
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    report = run_sweep(
        key=_key_from(args),
        seed=args.seed,
        count=args.count,
        config_names=args.config or None,
        kinds=args.kind or None,
        metrics=metrics,
    )
    print(report.summary())
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"coverage report written to {args.json}", file=sys.stderr)
    if args.metrics:
        Path(args.metrics).write_text(metrics.render_prometheus())
    return 0 if report.ok else 1


def _cmd_conform(args) -> int:
    from repro.conformance import run_conformance
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    report = run_conformance(
        key=_key_from(args),
        seed=args.seed,
        count=args.count,
        config_names=args.config or None,
        timeslice=args.timeslice,
        metrics=metrics,
        corpus_dir=args.corpus_dir,
    )
    print(report.summary())
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"conformance report written to {args.json}", file=sys.stderr)
    if args.metrics:
        Path(args.metrics).write_text(metrics.render_prometheus())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="Authenticated system calls: administrator tools",
    )
    parser.add_argument(
        "--key", default="machine-key",
        help="key passphrase shared by installer and kernel",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("assemble", help="assemble SVM32 source")
    cmd.add_argument("source")
    cmd.add_argument("-o", "--output")
    cmd.add_argument("--program", help="program name metadata")
    cmd.set_defaults(handler=_cmd_assemble)

    cmd = commands.add_parser("install", help="run the trusted installer")
    cmd.add_argument("binary")
    cmd.add_argument("-o", "--output")
    cmd.add_argument("--no-control-flow", action="store_true")
    cmd.add_argument("--program-id", type=int, default=0,
                     help="unique program id (Frankenstein defense)")
    cmd.add_argument("--capability-tracking", action="store_true")
    cmd.set_defaults(handler=_cmd_install)

    cmd = commands.add_parser("objdump", help="disassemble a binary")
    cmd.add_argument("binary")
    cmd.add_argument("--source-form", action="store_true",
                     help="emit re-assemblable source instead of a listing")
    cmd.set_defaults(handler=_cmd_objdump)

    cmd = commands.add_parser("policy", help="print generated policies")
    cmd.add_argument("binary")
    cmd.add_argument("--json", action="store_true",
                     help="emit the canonical policy-file form")
    cmd.set_defaults(handler=_cmd_policy)

    cmd = commands.add_parser(
        "policy-diff", help="audit diff between two exported policy files"
    )
    cmd.add_argument("old")
    cmd.add_argument("new")
    cmd.set_defaults(handler=_cmd_policy_diff)

    def _add_run_arguments(cmd):
        cmd.add_argument("binary", nargs="?")
        cmd.add_argument("args", nargs="*")
        cmd.add_argument("--enforce", action="store_true",
                         help="refuse unauthenticated binaries")
        cmd.add_argument("--stdin", help="bytes fed to the program's stdin")
        cmd.add_argument("--file", action="append",
                         help="pre-populate the VFS: --file /path=content")
        cmd.add_argument("--no-fastpath", action="store_true",
                         help="disable the compiled per-site verifiers "
                              "(every trap runs the paper's full check)")
        cmd.add_argument("--engine", choices=ENGINES, default="threaded",
                         help="CPU execution engine: the basic-block "
                              "translation cache (threaded, default) or the "
                              "reference interpreter (interp)")

    cmd = commands.add_parser("run", help="run under the checking kernel")
    _add_run_arguments(cmd)
    cmd.add_argument("--net", action="store_true",
                     help="run the built-in netserver workload (one "
                          "listener plus forked clients over the loopback "
                          "socket stack) instead of a binary")
    cmd.add_argument("--clients", type=int, default=4,
                     help="forked clients for --net (default 4)")
    cmd.add_argument("--requests", type=int, default=8,
                     help="requests per client for --net (default 8)")
    cmd.add_argument("--procs", type=int, default=0, metavar="N",
                     help="run N instances concurrently under the "
                          "preemptive scheduler (enables fork/wait/pipes)")
    cmd.add_argument("--timeslice", type=int, default=5000,
                     help="instructions per scheduler timeslice "
                          "(with --procs; default 5000)")
    cmd.add_argument("--stats", action="store_true")
    cmd.add_argument("--trace", metavar="OUT.json",
                     help="record verification-stage and engine spans; "
                          "write a Chrome trace-event JSON (load at "
                          "chrome://tracing or ui.perfetto.dev) and print "
                          "the per-stage breakdown to stderr")
    cmd.set_defaults(handler=_cmd_run)

    cmd = commands.add_parser(
        "metrics",
        help="run a binary and dump runtime counters "
             "(Prometheus exposition format)",
    )
    _add_run_arguments(cmd)
    cmd.add_argument("-o", "--output",
                     help="write the metrics dump to a file instead of stdout")
    cmd.set_defaults(handler=_cmd_metrics)

    cmd = commands.add_parser("attacks", help="run the attack battery")
    cmd.set_defaults(handler=_cmd_attacks)

    cmd = commands.add_parser(
        "faults",
        help="run the seeded fault-injection coverage sweep",
    )
    cmd.add_argument(
        "--seed", type=int, default=20050926,
        help="sweep seed (same seed + key -> byte-identical report)",
    )
    cmd.add_argument(
        "--count", type=int, default=200,
        help="number of fault plans (each runs on every selected config)",
    )
    cmd.add_argument(
        "--config", action="append", metavar="NAME",
        help="roster config to sweep (repeatable; default: all)",
    )
    cmd.add_argument(
        "--kind", action="append", metavar="KIND",
        help="fault kind to inject (repeatable; default: all)",
    )
    cmd.add_argument(
        "--json", metavar="OUT.json",
        help="write the machine-readable coverage report here",
    )
    cmd.add_argument(
        "--metrics", metavar="OUT.prom",
        help="write faults.* counters (Prometheus exposition format)",
    )
    cmd.set_defaults(handler=_cmd_faults)

    cmd = commands.add_parser(
        "conform",
        help="run the cross-config conformance fuzzing sweep",
    )
    cmd.add_argument(
        "--seed", type=int, default=0,
        help="generator seed (same seed + key -> byte-identical report)",
    )
    cmd.add_argument(
        "--count", type=int, default=50,
        help="generated programs (each runs on every selected config)",
    )
    cmd.add_argument(
        "--config", action="append", metavar="NAME",
        help="roster config to compare (repeatable; default: all)",
    )
    cmd.add_argument(
        "--timeslice", type=int, default=200,
        help="scheduler timeslice per conformance run (default 200)",
    )
    cmd.add_argument(
        "--json", metavar="OUT.json",
        help="write the machine-readable conformance report here",
    )
    cmd.add_argument(
        "--metrics", metavar="OUT.prom",
        help="write conform.* counters (Prometheus exposition format)",
    )
    cmd.add_argument(
        "--corpus-dir", metavar="DIR",
        help="write minimized reproducers for any divergence here",
    )
    cmd.set_defaults(handler=_cmd_conform)

    cmd = commands.add_parser(
        "report", help="print archived benchmark reports in paper order"
    )
    cmd.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory produced by the benchmark suite",
    )
    cmd.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
