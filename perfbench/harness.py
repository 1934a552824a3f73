"""One workload, measured: set-up, warm-up, timed passes, traced passes.

End-to-end metrics come from untraced passes only, as the median over
the passes of a run.  With ``trace=True`` the run instead reports the
per-layer metrics of :mod:`perfbench.layers`: a shorter untraced phase
gives the base for ``trace.overhead``, then :data:`TRACED_PASSES`
passes run with the layer wrappers installed.

Every pass builds fresh kernels, so per-process caches start empty as
they do for a user's process; ``gc.collect()`` runs before each pass,
outside the timed window.  Every pass, the warm-up included, is checked
against the pinned outputs in ``pins.json``: a pass that mismatches a
pin, has a process killed, or raises is counted in ``failed``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Optional

from repro.kernel import Kernel

from perfbench import layers
from perfbench.stats import summarize
from perfbench.workloads import WORKLOADS, bench_key, check_outputs, setup

PINS_PATH = Path(__file__).with_name("pins.json")

#: Fewest timed passes per run, however long a pass takes.
MIN_PASSES = 5
#: An untraced run sets up at least this many times, and for at least
#: SETUP_SHARE of its seconds; ``setup_s`` is the median.  A 10 ms
#: set-up timed over 0.1 s only samples whatever burst of host load
#: was happening then.
SETUP_REPEATS = 5
SETUP_SHARE = 0.1
TRACED_PASSES = 3
#: Named layers must account for at least this share of traced time.
MIN_COVERAGE = 0.95

#: Which statistic of a run's samples a metric reports.  On a shared
#: host, contention slows every pass by up to 60% for seconds at a time
#: and never speeds one up, so a run's median pass moves with its
#: neighbours' load while its best pass does not: pass metrics report
#: the best pass (the medians are printed and kept in the report).
#: Set-up time reports the median of its repeats.
RUN_STATISTIC = {"setup_s": "median"}


def load_spec(root: Path) -> dict:
    """The benchmark description (``BENCHMARK.json``)."""
    return json.loads((root / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git
    (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _kernel_config(key) -> dict:
    kernel = Kernel(key=key)
    return {
        "mac": kernel.mac.name,
        "engine": kernel.engine,
        "chain": kernel.chain,
        "fastpath": kernel.fastpath,
        "verifier_jit": kernel.verifier_jit,
    }


class _Passes:
    """Runs passes of one workload and keeps the failure accounting."""

    def __init__(self, workload, key, pin):
        self.workload = workload
        self.key = key
        self.pin = pin
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, programs, recorder=None):
        """``(host seconds, PassResult)``, or None for a failed pass.
        With a recorder, the pass runs under the root span ``pass``."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            if recorder is not None:
                recorder.begin(layers.PASS_SPAN, "bench")
            result = self.workload.run(self.key, programs, recorder)
        except Exception:  # a raising pass is a counted failure, not a crash
            self.failures.append(traceback.format_exc())
            return None
        finally:
            if recorder is not None:
                recorder.close_to(0)
        host_s = time.perf_counter() - start
        problem = check_outputs(result.outputs, self.pin)
        if problem is not None:
            self.failures.append(problem)
            return None
        return host_s, result

    def timed(self, programs, until: float, min_passes: int) -> list:
        """One untimed warm-up pass, then passes until the
        ``perf_counter`` deadline ``until`` and at least ``min_passes``."""
        self.run(programs)
        samples = []
        runs = 0
        while runs < min_passes or time.perf_counter() < until:
            runs += 1
            outcome = self.run(programs)
            if outcome is not None:
                samples.append(outcome)
        return samples


def _end_to_end(workload, samples, setup_times) -> dict:
    """Per-pass values of every end-to-end metric."""
    values = {
        "instr_per_s": [], "syscalls_per_s": [], "procs_per_s": [],
        "req_per_s": [], "sim_cycles_per_syscall": [],
    }
    for host_s, result in samples:
        out = result.outputs
        values["instr_per_s"].append(out["instructions"] / host_s)
        values["syscalls_per_s"].append(out["traps"] / host_s)
        values["procs_per_s"].append(len(out["exit_statuses"]) / host_s)
        values["req_per_s"].append(workload.requests / host_s)
        values["sim_cycles_per_syscall"].append(out["cycles"] / out["syscalls"])
    values["setup_s"] = setup_times
    # ru_maxrss is in KiB on Linux.
    values["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return values


def _traced(passes, programs, untraced_s: float, out: Optional[str]) -> dict:
    """Per-layer metrics: the median over the traced passes (trap
    latency percentiles pool every traced trap)."""
    probe = layers.Probe()
    per_pass = []
    latencies: list = []
    with layers.wrapped(probe):
        for _ in range(TRACED_PASSES):
            probe.reset()
            outcome = passes.run(programs, probe.recorder)
            if outcome is None:
                continue
            metrics = layers.layer_metrics(probe, outcome[1], untraced_s)
            if metrics["trace.coverage"] < MIN_COVERAGE:
                passes.failures.append(
                    f"trace.coverage {metrics['trace.coverage']:.3f} < {MIN_COVERAGE}"
                )
                continue
            per_pass.append(metrics)
            latencies += layers.trap_latencies_us(probe)
    if not per_pass:
        return {}
    if out:
        probe.recorder.write_chrome_trace(Path(out).with_suffix(".trace.json"))
    values = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    values.update(layers.trap_percentiles(latencies))
    return values


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spec: dict,
    pins: dict,
    root: Path,
    out: Optional[str] = None,
    min_passes: int = MIN_PASSES,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Measure one workload for ``seconds`` (set-up repeats included);
    returns the full report (see :func:`summary` for the result line)."""
    run_start = time.perf_counter()
    workload = WORKLOADS[name]
    key = bench_key(seed)
    passes = _Passes(workload, key, pins.get(name))
    report = {
        "workload": name,
        "meta": {
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "commit": git_commit(root),
            "kernel": _kernel_config(key),
        },
        "stats": {},
        "values": {},
        "outputs": None,
    }
    setup_times = []
    try:
        if trace:
            # One set-up, traced on its own recorder: the installer's
            # spans must not mix with the passes' span trees.
            probe = layers.Probe()
            with layers.wrapped(probe):
                programs = setup(workload, key)
            report["values"].update(layers.installer_metrics(probe))
        else:
            setup_until = run_start + seconds * SETUP_SHARE
            while len(setup_times) < setup_repeats or time.perf_counter() < setup_until:
                gc.collect()
                start = time.perf_counter()
                programs = setup(workload, key)
                setup_times.append(time.perf_counter() - start)
    except Exception:  # set-up failed: nothing can run
        passes.attempted += 1
        passes.failures.append(traceback.format_exc())
        return _finish(report, passes, spec, trace)

    until = run_start + (seconds / 2 if trace else seconds)
    samples = passes.timed(programs, until, min_passes)
    report["meta"]["passes"] = {"warmup": 1, "timed": len(samples), "traced": 0}
    report["meta"]["setup_repeats"] = len(setup_times)
    if samples:
        report["outputs"] = samples[0][1].outputs
        if trace:
            untraced_s = median([host_s for host_s, _ in samples])
            layer_values = _traced(passes, programs, untraced_s, out)
            report["meta"]["passes"]["traced"] = TRACED_PASSES
            if layer_values:
                report["values"].update(layer_values)
                report["meta"]["trace_overhead"] = layer_values["trace.overhead"]
        else:
            better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
            for metric, values in _end_to_end(workload, samples, setup_times).items():
                stats = report["stats"][metric] = summarize(values, better[metric])
                report["values"][metric] = stats[RUN_STATISTIC.get(metric, "best")]
    return _finish(report, passes, spec, trace)


def _finish(report: dict, passes: _Passes, spec: dict, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["values"]
    complete = all(metric["name"] in values for metric in wanted)
    report["metrics"] = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in values
    }
    report["attempted"] = passes.attempted
    report["failed"] = len(passes.failures)
    report["failures"] = passes.failures
    report["correct"] = complete and not passes.failures
    return report


def summary(report: dict) -> dict:
    """The result line: exactly ``correct``, ``attempted``, ``failed``
    and ``metrics``."""
    return {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}


def render(report: dict, spec: dict) -> str:
    """The human-readable table printed above the result line."""
    meta = report["meta"]
    passes = meta.get("passes", {})
    lines = [
        f"workload {report['workload']}  seed {meta['seed']}  "
        f"passes {passes.get('warmup', 0)} warm-up + {passes.get('timed', 0)} timed"
        f" + {passes.get('traced', 0)} traced  commit {meta['commit'] or '-'}",
    ]
    if meta["trace"]:
        for metric in spec["per_layer"]:
            value = report["values"].get(metric["name"])
            shown = "-" if value is None else f"{value:.6g}"
            lines.append(f"  {metric['name']:<28} {metric['unit']:<12} {shown:>14}")
    else:
        lines.append(
            f"  {'metric':<24} {'unit':<12} {'value':>12} {'median':>12}"
            f" {'IQR':>10} {'tail':>18} {'n':>5}"
        )
        for metric in spec["end_to_end"]:
            stats = report["stats"].get(metric["name"])
            if stats is None:
                lines.append(f"  {metric['name']:<24} {metric['unit']:<12} {'-':>12}")
                continue
            tail = "-"
            if stats["tail_pct"] is not None:
                tail = f"p{stats['tail_pct']:g}={stats['tail']:.5g}"
            lines.append(
                f"  {metric['name']:<24} {metric['unit']:<12}"
                f" {report['values'][metric['name']]:>12.6g} {stats['median']:>12.6g}"
                f" {stats['iqr']:>10.4g} {tail:>18} {stats['n']:>5}"
            )
    rate = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    lines.append(
        f"  {'error_rate':<24} {'ratio':<12} {rate:>12.6g}"
        f"  ({report['failed']}/{report['attempted']})"
    )
    lines += [f"  FAILED: {reason.strip().splitlines()[-1]}" for reason in report["failures"]]
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    Path(path).write_text(json.dumps(report, indent=2, default=str) + "\n")
