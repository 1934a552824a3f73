"""Every networking test runs under the shadow poll."""

import pytest


@pytest.fixture(autouse=True)
def _missed_notify_oracle(shadow_poll):
    """Fail the test if a wake poll skipped a call that would have
    completed."""
