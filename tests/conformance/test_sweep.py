"""Sweep contract: determinism, metrics, and the divergence path
(forced by monkeypatching the oracle — the real engines agree)."""

import json

from repro.crypto import Key
from repro.obs import MetricsRegistry
from repro.conformance import corpus as corpus_mod
from repro.conformance import sweep as sweep_mod
from repro.conformance.sweep import run_conformance

KEY = Key.from_passphrase("conformance-sweep-tests")

SWEEP_ARGS = dict(key=KEY, seed=0, count=6)


def test_small_sweep_is_clean_and_deterministic():
    first = run_conformance(**SWEEP_ARGS)
    second = run_conformance(**SWEEP_ARGS)
    assert first.ok
    assert first.totals["runs"] == 6 * 3  # programs x roster configs
    assert first.to_json() == second.to_json()


def test_report_json_shape():
    report = run_conformance(**SWEEP_ARGS)
    payload = json.loads(report.to_json())
    assert payload["seed"] == 0
    assert len(payload["programs"]) == 6
    assert payload["divergent"] == []
    for program in payload["programs"]:
        assert program["clean"] is True
        assert program["divergent_configs"] == []
        assert len(program["fingerprint"]) == 16


def test_metrics_and_summary():
    metrics = MetricsRegistry()
    report = run_conformance(metrics=metrics, **SWEEP_ARGS)
    assert metrics.get("conform.programs") == 6
    assert metrics.get("conform.runs") == 18  # 6 programs x 3 roster configs
    assert metrics.get("conform.divergences") == 0
    assert "OK: 0 divergences" in report.summary()


def test_default_sweep_fuses_superblocks_under_chained():
    # The CI smoke sweep's shape (25 programs, seed 0): some spin ops
    # run past the 256-execution fusion threshold, so the oracle also
    # compares the compiled superblock tier against the interpreter.
    report = run_conformance(
        key=KEY, seed=0, count=25, config_names=["interp", "chained"]
    )
    assert report.ok
    assert report.totals["superblocks_fused"] >= 1
    assert "superblocks_fused=" in report.summary()


def test_config_subset():
    report = run_conformance(
        key=KEY, seed=0, count=3, config_names=["interp", "chained"]
    )
    assert report.configs == ("interp", "chained")
    assert report.totals["runs"] == 6


def test_divergence_path_shrinks_and_writes_reproducer(tmp_path, monkeypatch):
    """Force program 2 to 'diverge' on one config and check the full
    failure path: report flags it, the shrinker minimizes it, and a
    reproducer entry lands in the corpus directory."""
    real_run_all = sweep_mod.run_all_configs

    def fake_run_all(key, installed, **kwargs):
        outcomes = real_run_all(key, installed, **kwargs)
        if installed.binary.metadata.get("program") == "conform-2":
            names = list(outcomes)
            victim = outcomes[names[-1]]
            outcomes[names[-1]] = type(victim)(
                per_task=victim.per_task,
                trace=victim.trace + ((99, "phantom"),),
                digests=victim.digests,
                families=victim.families,
                killed=victim.killed,
                kill_reasons=victim.kill_reasons,
                exit_status=victim.exit_status,
            )
        return outcomes

    # The shrink predicate re-runs programs; make it a pure function of
    # the op list so the test is fast and the minimum is known.
    def fake_diverges(spec, key, **kwargs):
        return any(op.kind in ("write", "getpid") for op in spec.ops)

    monkeypatch.setattr(sweep_mod, "run_all_configs", fake_run_all)
    monkeypatch.setattr(sweep_mod, "spec_diverges", fake_diverges)

    metrics = MetricsRegistry()
    report = run_conformance(
        corpus_dir=tmp_path, metrics=metrics, **SWEEP_ARGS
    )
    assert not report.ok
    assert len(report.divergent) == 1
    entry = report.divergent[0]
    assert entry["program_id"] == 2
    assert len(entry["configs"]) == 1
    assert entry["minimized_ops"]  # shrunk spec recorded in the report
    assert metrics.get("conform.divergences") == 1
    assert metrics.get("conform.shrink_evaluations") > 0
    assert "FAIL: 1 DIVERGED" in report.summary()

    written = list(tmp_path.glob("*.json"))
    assert len(written) == 1
    loaded = corpus_mod.load_entries(tmp_path)[0]
    assert loaded.name == report.reproducers[0]
    assert loaded.name.startswith("diverge-seed0-p2")
    # The pinned source is the *minimized* program's rendering.
    assert loaded.source == corpus_mod.render(loaded.spec)
