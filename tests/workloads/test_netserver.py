"""The netserver workload: correctness and cross-engine bit-identity.

The acceptance contract for the loopback stack: the installed echo
server and its forked clients complete on every engine configuration
with *identical* per-task results and an identical scheduler
interleaving — sockets introduce no nondeterminism anywhere.
"""

import pytest

from repro.configs import CONFIGS
from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.kernel import Kernel
from repro.kernel.auth import violation_family
from repro.workloads.netserver import build_netserver

#: Every run here is checked by the missed-notify oracle.
pytestmark = pytest.mark.usefixtures("shadow_poll")

KEY = Key.from_passphrase("netserver-tests")
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


#: The calls whose arg 0 is a socket fd at the netserver's sites.
SOCKET_FD_CALLS = ("bind", "listen", "accept", "connect", "send", "recv", "shutdown", "close")


@pytest.fixture(scope="module")
def tracked():
    """The netserver installed with §5.3 capability tracking."""
    return install(
        build_netserver(clients=CLIENTS, requests=REQUESTS, spin=60), KEY,
        InstallerOptions(capability_tracking=True),
    )


def _connection_sites(tracked):
    """The accept site's block id, and the server's recv, send and
    close of the accepted connection (the sites whose fd descends from
    accept alone)."""
    (accept,) = [p for p in tracked.policy.sites.values() if p.syscall == "accept"]
    sites = {
        policy.syscall: address
        for address, policy in tracked.policy.sites.items()
        if policy.fd_producers.get(0) == frozenset({accept.block_id})
    }
    return accept.block_id, sites


def _run_tracked(tracked, config, on_recv):
    """Run the tracked netserver on ``config``, calling ``on_recv(kernel,
    vm)`` at each trap of the server's connection recv; returns the
    tasks in pid order (the server first)."""
    kernel = Kernel(key=KEY, **config.kernel_kwargs())
    _, sites = _connection_sites(tracked)
    forward = kernel.handle_trap

    def spy(vm, authenticated):
        if vm.pc == sites["recv"]:
            on_recv(kernel, vm)
        return forward(vm, authenticated)

    kernel.handle_trap = spy  # shadows the bound method for every VM
    multi = kernel.run_many([tracked.binary], timeslice=TIMESLICE)
    return [multi.scheduler.tasks[pid] for pid in sorted(multi.scheduler.tasks)]


class TestCapabilityTracked:
    """§5.3 on the netserver: every socket fd argument, the accepted
    connection's included, is checked against its producing sites."""

    def test_every_socket_fd_site_has_producers(self, tracked):
        sites = [
            policy for policy in tracked.policy.sites.values()
            if policy.syscall in SOCKET_FD_CALLS
        ]
        assert len(sites) == 14
        assert all(policy.fd_producers.get(0) for policy in sites)

    def test_connection_fd_descends_from_accept(self, tracked):
        _, sites = _connection_sites(tracked)
        assert sorted(sites) == ["close", "recv", "send"]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
    def test_serves_every_client(self, tracked, config):
        accept_block, _ = _connection_sites(tracked)
        owners = []
        tasks = _run_tracked(
            tracked, config,
            lambda kernel, vm: owners.append(
                kernel.capability_table(vm).owner.get(vm.regs[1])
            ),
        )
        assert tuple(task.exit_status for task in tasks) == (0,) + (REQUESTS,) * CLIENTS
        assert not any(task.killed for task in tasks)
        # Each accepted fd belongs to the accept site when it is read.
        assert owners and set(owners) == {accept_block}

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
    def test_listening_fd_at_the_connection_recv_dies_as_capability(
        self, tracked, config
    ):
        """fd confusion: the server's connection recv is handed the
        listening fd at trap entry.  The call MAC does not constrain an
        fd argument, so only the capability check can stop it."""
        swapped = []

        def confuse(kernel, vm):
            if not swapped:
                swapped.append((vm.regs[1], vm.regs[12]))
                vm.regs[1] = vm.regs[12]  # r12 holds the listening fd

        server, *clients = _run_tracked(tracked, config, confuse)
        assert swapped and swapped[0][0] != swapped[0][1]
        assert server.killed
        assert violation_family(server.kill_reason) == "capability"
        assert not any(client.killed for client in clients)


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
