"""The counter registry, and a HELP line for every counter it holds."""

import ast
from pathlib import Path

import repro
from repro.faults.sweep import OUTCOMES
from repro.obs import MetricsRegistry
from repro.obs.metrics import COUNTER_HELP

#: Counter names built at run time, keyed by their f-string's literal
#: prefix, with every value each can take.
DYNAMIC_NAMES = {"faults.": {f"faults.{outcome}" for outcome in OUTCOMES}}


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


def _emitted_names() -> tuple[set, list]:
    """Every counter name passed to a registry ``inc`` or ``set`` call
    anywhere under ``src/repro``, plus the call sites whose name the
    scan cannot enumerate."""
    root = Path(repro.__file__).parent
    names: set = set()
    unknown: list = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("inc", "set")
                and node.args
            ):
                continue
            arg = node.args[0]
            for name in (arg.body, arg.orelse) if isinstance(arg, ast.IfExp) else (arg,):
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    names.add(name.value)
                    continue
                prefix = name.values[0] if isinstance(name, ast.JoinedStr) else None
                if isinstance(prefix, ast.Constant) and prefix.value in DYNAMIC_NAMES:
                    names |= DYNAMIC_NAMES[prefix.value]
                else:
                    unknown.append(f"{path.relative_to(root)}:{node.lineno}")
    return names, unknown


def test_every_emitted_counter_has_a_help_line():
    names, unknown = _emitted_names()
    assert not unknown, f"counter names the scan cannot enumerate: {unknown}"
    # The kernel, scheduler, net stack, verifier and both sweeps.
    assert {"fastpath.hits", "engine.instructions_retired", "sched.runq_peak",
            "net.bytes_sent", "verifier.thunk_hits", "faults.missed",
            "conform.runs"} <= names
    assert sorted(names - COUNTER_HELP.keys()) == []
    # ...and no HELP line outlives its counter.
    assert sorted(COUNTER_HELP.keys() - names) == []
