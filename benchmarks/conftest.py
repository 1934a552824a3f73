"""Shared benchmark utilities.

Benches print paper-vs-measured tables through ``report()`` (bypassing
pytest capture so the tables always appear) and also archive them under
``benchmarks/results/``.
"""

import os
import pathlib

import pytest

from repro.crypto import Key

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One deterministic machine key for the whole bench session.
BENCH_KEY = Key.from_passphrase("benchmark-machine")


@pytest.fixture
def report(capsys):
    """Print a report table live and archive it."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _report


def bench_scale() -> float:
    """Workload scale knob: REPRO_BENCH_SCALE=0.1 shrinks loop counts
    for smoke runs; 1.0 (default) is the paper-faithful size."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
