"""The counter registry and its FastPathStats facade."""

from repro.kernel import FastPathStats
from repro.obs import MetricsRegistry
from repro.obs.metrics import COUNTER_HELP, merge_counters


class TestMetricsRegistry:
    def test_inc_get_snapshot(self):
        reg = MetricsRegistry()
        assert reg.get("fastpath.hits") == 0
        reg.inc("fastpath.hits")
        reg.inc("fastpath.hits", 9)
        reg.set("engine.syscalls", 4)
        assert reg.get("fastpath.hits") == 10
        assert reg.snapshot() == {"fastpath.hits": 10, "engine.syscalls": 4}
        assert len(reg) == 2

    def test_iteration_is_sorted(self):
        reg = MetricsRegistry()
        reg.inc("zeta", 1)
        reg.inc("alpha", 2)
        assert list(reg) == [("alpha", 2), ("zeta", 1)]

    def test_reset_returns_pre_reset_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("fastpath.hits", 3)
        old = reg.reset()
        assert old == {"fastpath.hits": 3}
        assert reg.snapshot() == {}
        assert reg.get("fastpath.hits") == 0

    def test_merge_counters_with_prefix(self):
        reg = MetricsRegistry()
        merge_counters(reg, {"compiles": 2, "evictions": 1}, prefix="engine")
        merge_counters(reg, {"engine.compiles": 3})
        assert reg.get("engine.compiles") == 5
        assert reg.get("engine.evictions") == 1

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.inc("fastpath.hits", 12)
        reg.inc("custom.thing", 1)  # no HELP entry: still renders
        text = reg.render_prometheus()
        lines = text.splitlines()
        assert f"# HELP repro_fastpath_hits {COUNTER_HELP['fastpath.hits']}" in lines
        assert "# TYPE repro_fastpath_hits counter" in lines
        assert "repro_fastpath_hits 12" in lines
        assert "repro_custom_thing 1" in lines
        assert text.endswith("\n")
        assert MetricsRegistry().render_prometheus() == ""


class TestFastPathStatsFacade:
    def test_kwargs_constructor_still_works(self):
        stats = FastPathStats(hits=3, misses=1)
        assert stats.hits == 3
        assert stats.misses == 1
        assert stats.lookups == 4

    def test_backed_by_shared_registry(self):
        reg = MetricsRegistry()
        stats = FastPathStats(registry=reg)
        stats.hits += 5
        stats.misses += 2
        assert reg.get("fastpath.hits") == 5
        assert reg.get("fastpath.misses") == 2
        reg.inc("fastpath.hits", 1)  # registry writes are visible back
        assert stats.hits == 6

    def test_reset_returns_snapshot(self):
        stats = FastPathStats(hits=7, misses=3)
        snap = stats.reset()
        assert (snap.hits, snap.misses) == (7, 3)
        assert snap.lookups == 10
        assert snap.hit_rate() == 0.7
        assert stats.hits == stats.misses == 0
        # The snapshot is immutable and detached from the live stats.
        stats.hits += 1
        assert snap.hits == 7
