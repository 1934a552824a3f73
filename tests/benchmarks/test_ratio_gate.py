"""The ratio gate's comparisons, on measured and planted numbers (no
workload runs: ``benchmarks/ratio_gate.py`` itself does those)."""

import pytest

from benchmarks.ratio_gate import GATES, failing_gates, pin_problem, ratios
from perfbench.harness import load_pins
from repro.configs import configs_named

G1, G2 = (gate[0] for gate in GATES)


@pytest.mark.parametrize("measured", [
    {G1: 30.2, G2: 4.17},  # the low ends of the measured ranges
    {G1: 34.5, G2: 4.37},  # the high ends
])
def test_measured_ratios_pass(measured):
    assert failing_gates(measured) == []


def test_chaining_off_fails_g1():
    # The ratio read with chaining and fusion off; the verifier is fine.
    failures = failing_gates({G1: 16.5, G2: 4.3})
    assert len(failures) == 1 and failures[0].startswith(G1)


def test_thunks_off_fails_g2():
    # The ratio read with every trap taking the full check.
    failures = failing_gates({G1: 32.0, G2: 1.02})
    assert len(failures) == 1 and failures[0].startswith(G2)


def test_ratios_are_inverse_best_times():
    best_s = {
        ("spec-cpu", "interp"): 1.633, ("spec-cpu", "chained"): 0.0506,
        ("syscall-warm", "chained"): 0.1663, ("syscall-warm", "no-fastpath"): 0.694,
    }
    measured = ratios(best_s)
    assert measured[G1] == pytest.approx(32.27, abs=0.01)
    assert measured[G2] == pytest.approx(4.17, abs=0.01)


def test_no_fastpath_skips_only_fast_path_outputs():
    pin = load_pins()["syscall-warm"]
    chained, no_fastpath = configs_named(["chained", "no-fastpath"])
    slow = dict(pin, traps=0, cycles=pin["cycles"] + 1)
    assert pin_problem(no_fastpath, slow, pin) is None
    assert "traps" in pin_problem(chained, slow, pin)
    assert "instructions" in pin_problem(
        no_fastpath, dict(slow, instructions=pin["instructions"] + 1), pin)
