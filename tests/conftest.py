"""Fixtures shared across test packages."""

import pytest

from repro.faults.shadow import ShadowPoll
from repro.kernel import Kernel
from repro.tools import cli


@pytest.fixture
def cli_kernels(monkeypatch):
    """Every kernel the CLI builds during the test, kept for inspection."""
    kernels = []

    class Kept(Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kernels.append(self)

    monkeypatch.setattr(cli, "Kernel", Kept)
    return kernels


@pytest.fixture
def shadow_poll(monkeypatch):
    """Run every kernel the test builds under the missed-notify oracle
    (:class:`~repro.faults.shadow.ShadowPoll`), and fail the test if a
    wake poll skipped a call that would have completed."""
    shadows = []
    init = Kernel.__init__

    def init_and_shadow(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shadows.append(ShadowPoll(self))

    monkeypatch.setattr(Kernel, "__init__", init_and_shadow)
    yield shadows
    missed = [line for shadow in shadows for line in shadow.disagreements]
    assert not missed, missed
