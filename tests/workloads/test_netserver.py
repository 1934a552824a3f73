"""The netserver workload: correctness and cross-engine bit-identity.

The acceptance contract for the loopback stack: the installed echo
server and its forked clients complete on every engine configuration
with *identical* per-task results and an identical scheduler
interleaving — sockets introduce no nondeterminism anywhere.
"""

import pytest

from repro.configs import CONFIGS
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel
from repro.workloads.netserver import build_netserver

KEY = Key.from_passphrase("netserver-tests", provider="fast-hmac")
CLIENTS = 3
REQUESTS = 3
TIMESLICE = 350



@pytest.fixture(scope="module")
def installed():
    return install(
        build_netserver(clients=CLIENTS, requests=REQUESTS, spin=60), KEY
    ).binary


def _run(binary, **kwargs):
    kernel = Kernel(key=KEY, **kwargs)
    multi = kernel.run_many([binary], timeslice=TIMESLICE)
    tasks = [multi.scheduler.tasks[pid] for pid in sorted(multi.scheduler.tasks)]
    return {
        "statuses": tuple(task.exit_status for task in tasks),
        "killed": tuple(task.killed for task in tasks),
        "instructions": tuple(t.vm.instructions_executed for t in tasks),
        "interleaving": tuple(multi.scheduler.interleaving),
        "metrics": {
            name: kernel.metrics.get(name)
            for name in ("net.connections", "net.accepts",
                         "net.bytes_sent", "net.bytes_received")
        },
    }


class TestNetserverCompletes:
    def test_all_counts_reconcile(self, installed):
        run = _run(installed)
        # Server exits 0 iff every record was echoed and every client's
        # count reaped; clients exit their completed request count.
        assert run["statuses"] == (0,) + (REQUESTS,) * CLIENTS
        assert not any(run["killed"])

    def test_net_metrics_account_for_every_byte(self, installed):
        run = _run(installed)
        assert run["metrics"]["net.connections"] == CLIENTS
        assert run["metrics"]["net.accepts"] == CLIENTS
        # Each request is 8 bytes out and 8 echoed back, per client.
        payload = CLIENTS * REQUESTS * 8 * 2
        assert run["metrics"]["net.bytes_sent"] == payload
        assert run["metrics"]["net.bytes_received"] == payload

    def test_plain_run_serves_every_client(self, installed):
        # Plain Kernel.run is a one-task scheduler run: the server
        # forks its clients and serves them exactly as under run_many.
        kernel = Kernel(key=KEY)
        result = kernel.run(installed)
        assert result.exit_status == 0
        tasks = [kernel._scheduler.tasks[pid] for pid in sorted(kernel._scheduler.tasks)]
        assert tuple(task.exit_status for task in tasks) == (0,) + (REQUESTS,) * CLIENTS
        assert not any(task.killed for task in tasks)


class TestEngineBitIdentity:
    def test_identical_across_all_five_configs(self, installed):
        # Every roster config (repro.configs.CONFIGS).
        runs = {
            config.name: _run(installed, **config.kernel_kwargs())
            for config in CONFIGS
        }
        reference = runs["interp"]
        assert reference["statuses"] == (0,) + (REQUESTS,) * CLIENTS
        for name, run in runs.items():
            assert run == reference, name

    def test_repeat_runs_are_bit_identical(self, installed):
        assert _run(installed) == _run(installed)

    def test_uninstalled_baseline_matches_protected_interleaving(self):
        # Auth off vs auth on: same guest instruction stream shape —
        # the *unprotected* baseline completes with the same statuses
        # (interleavings differ: verification charges cycles).
        raw = build_netserver(clients=CLIENTS, requests=REQUESTS, spin=60)
        run = _run(raw)
        assert run["statuses"] == (0,) + (REQUESTS,) * CLIENTS
        assert not any(run["killed"])


class TestWorkloadShapeValidation:
    def test_requests_must_fit_exit_status(self):
        with pytest.raises(ValueError):
            build_netserver(clients=2, requests=256)

    def test_backlog_ceiling(self):
        with pytest.raises(ValueError):
            build_netserver(clients=65, requests=1)

    def test_at_least_one_client(self):
        with pytest.raises(ValueError):
            build_netserver(clients=0, requests=1)
