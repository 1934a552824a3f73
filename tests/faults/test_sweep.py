"""The sweep harness end to end: coverage contract, determinism,
report structure, and the obs plumbing."""

import json

import pytest

from repro.crypto import Key
from repro.faults import run_sweep
from repro.faults.sweep import OUTCOMES
from repro.obs import MetricsRegistry, TraceRecorder

KEY = Key.from_passphrase("fault-sweep-tests")
SEED = 1127692800
COUNT = 20  # every kind twice; the CI battery runs the real volume


@pytest.fixture(scope="module")
def report():
    return run_sweep(key=KEY, seed=SEED, count=COUNT)


def test_zero_missed_across_all_configs(report):
    assert report.ok, report.summary()
    assert report.totals["missed"] == 0
    # COUNT plans x three roster configs, none dropped.
    assert report.totals["injected"] == COUNT * 3
    for name, counts in report.by_config.items():
        assert counts["missed"] == 0, name


def test_detection_counts_identical_across_configs(report):
    # Coverage is a security property: every config must classify the
    # same plans the same way, not merely all reach zero missed.
    rows = list(report.by_config.values())
    assert all(row == rows[0] for row in rows)


def test_must_detect_kinds_all_detected(report):
    for kind in ("mac-flip", "mac-transplant", "reg-tamper",
                 "counter-desync", "lastblock-flip", "as-flip", "trap-replay"):
        counts = report.by_kind[kind]
        assert counts["detected"] > 0
        assert counts["benign"] == 0, kind
        assert counts["missed"] == 0, kind


def test_sched_kinds_all_benign(report):
    for kind in ("sched-jitter", "sched-preempt"):
        counts = report.by_kind[kind]
        assert counts["benign"] > 0
        assert counts["detected"] == 0, kind
        assert counts["missed"] == 0, kind


def test_report_json_is_deterministic(report):
    again = run_sweep(key=KEY, seed=SEED, count=COUNT)
    assert report.to_json() == again.to_json()


def test_report_json_shape(report):
    payload = json.loads(report.to_json())
    assert payload["seed"] == SEED
    assert payload["count"] == COUNT
    assert payload["configs"] == ["interp", "chained", "no-fastpath"]
    assert len(payload["runs"]) == COUNT * 3
    for run in payload["runs"]:
        assert run["outcome"] in OUTCOMES
        assert run["config"] in payload["configs"]
        assert run["plan"]["kind"] in payload["kinds"]
    totals = payload["totals"]
    assert totals["injected"] == sum(totals[o] for o in OUTCOMES)


def test_metrics_and_spans_feed_the_obs_layer():
    metrics = MetricsRegistry()
    recorder = TraceRecorder(clock=iter(range(10**9)).__next__)
    small = run_sweep(
        key=KEY, seed=3, count=4,
        config_names=["interp", "chained"],
        metrics=metrics, recorder=recorder,
    )
    injected = small.totals["injected"]
    assert metrics.get("faults.injected") == injected == 4 * 2
    assert (
        metrics.get("faults.detected")
        + metrics.get("faults.benign")
        + metrics.get("faults.missed")
    ) == injected
    # One "faults"-category span per injected run.
    fault_spans = [s for s in recorder.spans if s.cat == "faults"]
    assert len(fault_spans) == injected
    prom = metrics.render_prometheus()
    assert "repro_faults_injected" in prom


def test_config_and_kind_filters():
    small = run_sweep(
        key=KEY, seed=5, count=6,
        config_names=["no-fastpath"], kinds=("mac-flip", "counter-desync"),
    )
    assert small.configs == ("no-fastpath",)
    assert set(small.kinds) == {"mac-flip", "counter-desync"}
    assert small.totals["injected"] == 6
    assert small.ok
