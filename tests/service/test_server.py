"""The asyncio campaign server: verbs, auth, backpressure, drain.

Each test stands up a real server (event loop thread, Unix socket) and
talks to it through the sync client — the exact production stack minus
the network between machines.
"""

import socket
import threading
import time

import pytest

from repro.experiments.export import (
    SERVICE_STATS_SCHEMA,
    SERVICE_STATUS_SCHEMA,
    fabric_report_bytes,
)
from repro.sched.campaign import (
    CampaignConfig,
    campaign_report,
    status_document,
    submit_specs,
)
from repro.sched.state import load_state
from repro.sched.worker import Worker
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL_VERSION


def unix_address(handle):
    return handle.endpoints[0][1]


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached within timeout")


def drain_with_worker(directory, stub_run_fn, worker_id="w0"):
    worker = Worker(directory, worker_id=worker_id, run_fn=stub_run_fn,
                    poll_interval=0.05)
    return worker.serve(drain=True, install_signals=False)


class TestBasicVerbs:
    def test_ping_and_server_info(self, server_factory):
        handle = server_factory()
        client = ServiceClient(unix_address(handle))
        assert client.ping()["pong"] is True
        info = client.server_info()
        assert info["protocol_version"] == PROTOCOL_VERSION
        assert info["auth_required"] is False
        assert info["draining"] is False
        assert SERVICE_STATUS_SCHEMA in info["schemas"]

    def test_submit_is_idempotent_and_content_addressed(
            self, server_factory, tiny_specs):
        handle = server_factory()
        client = ServiceClient(unix_address(handle))
        config = CampaignConfig(name="svc", lease_ttl=5.0)
        first = client.submit(tiny_specs, config)
        assert (first["added"], first["total"]) == (3, 3)
        assert sorted(first["keys"]) == \
            sorted(spec.key() for spec in tiny_specs)
        again = client.submit(tiny_specs, config)
        assert again["added"] == 0
        overlap = client.submit(tiny_specs[1:], config)
        assert overlap["added"] == 0

    def test_status_matches_the_filesystem_document_builder(
            self, server_factory, tiny_specs):
        handle = server_factory()
        client = ServiceClient(unix_address(handle))
        client.submit(tiny_specs, CampaignConfig(name="svc"))
        from_socket = client.status()
        from_fs = status_document(load_state(handle.server.directory))
        assert from_socket == from_fs
        assert from_socket["schema"] == SERVICE_STATUS_SCHEMA
        assert from_socket["counts"]["pending"] == 3

    def test_cancel_pending_tasks(self, server_factory, tiny_specs):
        handle = server_factory()
        client = ServiceClient(unix_address(handle))
        client.submit(tiny_specs, CampaignConfig(name="svc"))
        keys = [tiny_specs[0].key()]
        assert client.cancel(keys) == keys
        assert client.cancel(keys) == []  # already terminal
        remaining = client.cancel()
        assert sorted(remaining) == \
            sorted(spec.key() for spec in tiny_specs[1:])
        doc = client.status()
        assert doc["counts"]["failed"] == 3
        assert all(row["failure_kind"] == "cancelled"
                   for row in doc["tasks"])

    def test_stats_document(self, server_factory, tiny_specs):
        handle = server_factory()
        client = ServiceClient(unix_address(handle))
        client.submit(tiny_specs, CampaignConfig(name="svc"))
        client.status()
        stats = client.stats()
        assert stats["schema"] == SERVICE_STATS_SCHEMA
        counters = stats["counters"]
        assert counters["submits"] == 1
        assert counters["submitted_tasks"] == 3
        assert counters["status_served"] == 1
        assert counters["followers_active"] == 0
        assert counters["follower_lag_bytes"] == 0
        assert counters["connections_total"] >= 3
        assert stats["server"]["draining"] is False

    def test_bad_submit_payloads_are_structured_errors(
            self, server_factory):
        handle = server_factory()
        client = ServiceClient(unix_address(handle), retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit([])
        assert excinfo.value.kind == "bad-request"
        with pytest.raises(ServiceError) as excinfo:
            client.submit([{"not": "a spec"}])
        assert excinfo.value.kind == "bad-request"
        with pytest.raises(ServiceError) as excinfo:
            client._request("submit", specs=[{}], config={"bogus": 1})
        assert excinfo.value.kind == "bad-request"

    def test_unknown_job_kind_is_a_bad_request(
            self, server_factory, tiny_specs):
        handle = server_factory()
        client = ServiceClient(unix_address(handle), retries=0)
        payload = dict(tiny_specs[0].to_payload(), kind="bogus")
        with pytest.raises(ServiceError) as excinfo:
            client.submit([payload])
        assert excinfo.value.kind == "bad-request"
        assert "bogus" in str(excinfo.value)
        assert load_state(handle.server.directory).tasks == {}

    def test_invalid_config_rejected_and_journal_untouched(
            self, server_factory, tiny_specs):
        from repro.sched.journal import read_records

        handle = server_factory()
        client = ServiceClient(unix_address(handle), retries=0)
        client.submit(tiny_specs[:1], CampaignConfig(name="svc"))
        before = read_records(handle.server.directory)
        with pytest.raises(ServiceError) as excinfo:
            client._request("submit", specs=[tiny_specs[1].to_payload()],
                            config={"lease_ttl": "soon"})
        assert excinfo.value.kind == "bad-request"
        assert "lease_ttl" in str(excinfo.value)
        assert read_records(handle.server.directory) == before


class TestEndToEnd:
    def test_socket_submission_report_is_byte_identical_to_filesystem(
            self, tmp_path, server_factory, tiny_specs, stub_run_fn):
        config = CampaignConfig(name="identical", lease_ttl=5.0)

        handle = server_factory()
        client = ServiceClient(unix_address(handle))
        client.submit(tiny_specs, config)
        assert drain_with_worker(handle.server.directory, stub_run_fn) == 3
        socket_bytes = client.report_bytes()

        fs_dir = str(tmp_path / "fs-camp")
        submit_specs(fs_dir, tiny_specs, config)
        assert drain_with_worker(fs_dir, stub_run_fn) == 3
        fs_bytes = fabric_report_bytes(
            campaign_report(fs_dir, run_fn=stub_run_fn))

        assert socket_bytes == fs_bytes

    def test_follow_streams_deltas_until_terminal(
            self, server_factory, tiny_specs, stub_run_fn):
        handle = server_factory(follow_poll=0.02)
        client = ServiceClient(unix_address(handle))
        client.submit(tiny_specs, CampaignConfig(name="svc",
                                                 lease_ttl=5.0))
        frames = []
        result = {}

        def watch():
            result["final"] = client.follow(on_frame=frames.append)

        follower = threading.Thread(target=watch)
        follower.start()
        drain_with_worker(handle.server.directory, stub_run_fn)
        follower.join(timeout=30)
        assert not follower.is_alive()
        document, reason = result["final"]
        assert reason == "terminal"
        assert document["all_terminal"] is True
        assert document["counts"]["done"] == 3
        # first frame is the full snapshot; at least one delta follows
        assert frames[0]["stream"] is True
        assert frames[-1]["done"] is True
        assert any("changed" in frame for frame in frames[1:])


class TestAuth:
    def test_requests_without_token_are_rejected(self, server_factory):
        handle = server_factory(token="hunter2")
        client = ServiceClient(unix_address(handle), token="", retries=2)
        with pytest.raises(ServiceError) as excinfo:
            client.ping()
        assert excinfo.value.kind == "auth"
        wrong = ServiceClient(unix_address(handle), token="hunter3",
                              retries=0)
        with pytest.raises(ServiceError) as excinfo:
            wrong.ping()
        assert excinfo.value.kind == "auth"
        assert handle.server.counters["auth_rejects"] == 2

    def test_matching_token_is_accepted(self, server_factory):
        handle = server_factory(token="hunter2")
        client = ServiceClient(unix_address(handle), token="hunter2")
        assert client.ping()["pong"] is True
        info = client.server_info()
        assert info["auth_required"] is True

    def test_env_token_reaches_server_and_client(self, tmp_path,
                                                 monkeypatch):
        from repro.service.server import ServerThread

        monkeypatch.setenv("REPRO_SERVE_TOKEN", "from-env")
        sock = str(tmp_path / "env.sock")
        handle = ServerThread(str(tmp_path / "camp"),
                              unix_path=sock).start()
        try:
            assert ServiceClient(sock).ping()["pong"] is True
            monkeypatch.setenv("REPRO_SERVE_TOKEN", "different")
            with pytest.raises(ServiceError):
                ServiceClient(sock, retries=0).ping()
        finally:
            handle.stop()


class TestBackpressure:
    def test_submit_over_the_inflight_limit_is_busy(
            self, server_factory, tiny_specs):
        handle = server_factory(max_inflight_submits=2)
        # Pin the counter at the limit: the next submit must be refused
        # with a structured transient error, not queued or dropped.
        handle.server._inflight_submits = 2
        try:
            client = ServiceClient(unix_address(handle), retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(tiny_specs, CampaignConfig(name="svc"))
            assert excinfo.value.kind == "busy"
            assert excinfo.value.transient
            assert handle.server.counters["busy_rejects"] == 1
            # other verbs are unaffected by submit backpressure
            assert client.ping()["pong"] is True
        finally:
            # No submit is really in flight: without the reset, the
            # fixture's graceful drain waits out its whole timeout.
            handle.server._inflight_submits = 0

    def test_client_retry_rides_out_a_busy_window(
            self, server_factory, tiny_specs):
        handle = server_factory(max_inflight_submits=1)
        handle.server._inflight_submits = 1

        def release(_delay):
            handle.server._inflight_submits = 0

        client = ServiceClient(unix_address(handle), retries=2,
                               backoff=0.01, sleep=release)
        ack = client.submit(tiny_specs, CampaignConfig(name="svc"))
        assert ack["added"] == 3
        assert handle.server.counters["busy_rejects"] == 1


class TestDrain:
    def test_drain_notifies_followers_and_refuses_new_connections(
            self, tmp_path, tiny_specs, stub_run_fn):
        from repro.service.server import ServerThread

        sock = str(tmp_path / "drain.sock")
        handle = ServerThread(str(tmp_path / "camp"), unix_path=sock,
                              run_fn=stub_run_fn,
                              follow_poll=0.02).start()
        client = ServiceClient(sock)
        client.submit(tiny_specs, CampaignConfig(name="svc"))
        result = {}

        def watch():
            result["final"] = client.follow()

        follower = threading.Thread(target=watch)
        follower.start()
        wait_until(lambda: handle.server._followers)
        # No worker is draining the campaign: the follower can only end
        # because the server said so.
        handle.stop(timeout=30)
        follower.join(timeout=10)
        assert not follower.is_alive()
        _document, reason = result["final"]
        assert reason == "draining"
        # listeners are closed: a fresh connection is refused
        with pytest.raises(ServiceError):
            ServiceClient(sock, retries=0, timeout=0.5).ping()

    def test_drain_is_idempotent(self, server_factory):
        handle = server_factory()
        assert ServiceClient(unix_address(handle)).ping()["pong"] is True
        handle.stop()
        handle.stop()  # second stop must be a no-op, not a crash


class TestWireHygiene:
    def test_half_written_request_is_dropped_and_counted(
            self, server_factory):
        handle = server_factory()
        path = unix_address(handle)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(path)
            sock.sendall(b'{"proto": 1, "verb": "sub')  # no newline, EOF
        client = ServiceClient(path)
        assert client.ping()["pong"] is True  # server is unharmed
        wait_until(lambda: handle.server.counters["half_frames"] == 1)

    def test_unparseable_frame_gets_structured_bad_request(
            self, server_factory):
        handle = server_factory()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(unix_address(handle))
            sock.sendall(b"this is not json\n")
            reply = sock.makefile("rb").readline()
        assert b'"bad-request"' in reply
