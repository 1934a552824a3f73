"""Fixtures shared across test packages."""

import pytest

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
