"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.kernel import Kernel

from perfbench import harness, layers, stats
from perfbench.workloads import WORKLOADS, bench_key, check_outputs, setup

ROOT = Path(__file__).resolve().parent.parent
SPEC = harness.load_spec(ROOT)
PINS = harness.load_pins()


def _quick(name, pins=PINS, trace=False, seed=0):
    """Set up once, one warm-up pass and one timed pass."""
    return harness.measure(
        name, seed, 0, trace, SPEC, pins, ROOT, min_passes=1, setup_repeats=1
    )


def test_median_and_iqr_use_statistics_quantiles():
    summary = stats.summarize([5, 1, 4, 2, 3], "lower")
    assert (summary["median"], summary["q1"], summary["q3"], summary["iqr"]) == (3, 1.5, 4.5, 3.0)
    assert stats.quartiles([7]) == (7, 7)


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (39, None), (40, 75.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert stats.tail_percentile(count) == expected


def test_summary_takes_best_and_tail_on_the_worse_side():
    values = list(range(1, 101))
    throughput = stats.summarize(values, "higher")
    assert (throughput["best"], throughput["tail_pct"], throughput["tail"]) == (100, 10.0, 10)
    latency = stats.summarize(values, "lower")
    assert (latency["best"], latency["tail_pct"], latency["tail"]) == (1, 90.0, 90)
    assert latency["n"] == 100 and latency["median"] == 50.5


def test_wrappers_are_restored_after_an_exception():
    originals = [
        (owner, attribute, vars(owner)[attribute])
        for owner, attribute, _ in layers._patches(layers.Probe())
    ]
    handle_trap = vars(Kernel)["handle_trap"]
    with pytest.raises(RuntimeError):
        with layers.wrapped(layers.Probe()):
            assert vars(Kernel)["handle_trap"] is not handle_trap
            raise RuntimeError("inside the traced block")
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original, (owner, attribute)


def test_check_outputs_names_what_is_wrong():
    pin = PINS["spec-cpu"]
    assert check_outputs(dict(pin), pin) is None
    assert "killed" in check_outputs(dict(pin, killed=[True]), pin)
    assert "traps" in check_outputs(dict(pin, traps=pin["traps"] + 1), pin)
    assert "no pinned outputs" in check_outputs(dict(pin), None)


def test_a_pin_mismatch_is_a_counted_failure():
    wrong = {"spec-cpu": dict(PINS["spec-cpu"], cycles=PINS["spec-cpu"]["cycles"] + 1)}
    line = harness.summary(_quick("spec-cpu", pins=wrong))
    assert line == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}


def test_a_raising_pass_is_a_counted_failure(monkeypatch):
    def boom(key, programs, recorder=None):
        raise RuntimeError("pass exploded")

    monkeypatch.setitem(
        WORKLOADS, "spec-cpu", dataclasses.replace(WORKLOADS["spec-cpu"], run=boom)
    )
    report = _quick("spec-cpu")
    assert (report["correct"], report["attempted"], report["failed"]) == (False, 2, 2)
    assert "pass exploded" in report["failures"][0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_pass_of_each_workload_prints_every_end_to_end_metric(name):
    line = harness.summary(_quick(name))
    assert line["correct"] and (line["attempted"], line["failed"]) == (2, 0)
    assert list(line["metrics"]) == [metric["name"] for metric in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    json.dumps(line)


def test_traced_run_reports_every_layer_metric():
    line = harness.summary(_quick("spec-cpu", trace=True, seed=1))
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [metric["name"] for metric in SPEC["per_layer"]]
    values = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert values["trace.coverage"] >= harness.MIN_COVERAGE
    assert values["kernel.trap.count"] == PINS["spec-cpu"]["traps"]
    assert values["sched.self_s"] == 0 and values["net.self_s"] == 0


def test_every_span_of_a_traced_pass_maps_to_a_layer():
    workload = WORKLOADS["netserver"]
    key = bench_key(0)
    programs = setup(workload, key)
    probe = layers.Probe()
    with layers.wrapped(probe):
        probe.recorder.begin(layers.PASS_SPAN, "bench")
        workload.run(key, programs, probe.recorder)
        probe.recorder.close_to(0)
    names = {span.name for span in probe.recorder.spans}
    assert {name for name in names if layers.layer_of(name) is None} == {layers.PASS_SPAN}
    assert {layers.layer_of(name) for name in names} >= {"cpu", "sched", "net", "syscalls"}
