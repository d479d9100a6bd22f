"""Generation client behavior against a scripted in-process HTTP endpoint."""

import gc
import json
import os
import socket
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import citepipe.client
from citepipe.client import (
    ClientPolicy,
    EndpointError,
    GenerationRequest,
    GenerationResult,
    _call_with_retries,
    _Transport,
    generate_batch,
    request_summary,
)
from citepipe.jsonl import dump_row

FAST = ClientPolicy(max_parallel=4, max_attempts=3, backoff_seconds=0.0)


def req(sid: str) -> GenerationRequest:
    return GenerationRequest(sample_id=sid, prompt=f"prompt for {sid}")


def row_id(line: str) -> str:
    return json.loads(line)["sample_id"]


class TestHappyPath:
    def test_echo_batch(self, mock_endpoint):
        results = generate_batch([req("b"), req("a"), req("c")], mock_endpoint.url, FAST)
        assert [r.sample_id for r in results] == ["a", "b", "c"]
        assert results[0].text == "echo: prompt for a"
        assert all(r.attempt == 1 for r in results)
        assert all(r.latency_ms > 0 for r in results)

    def test_wire_payload_shape(self, mock_endpoint):
        request = GenerationRequest("a", "hello", max_new_tokens=128, temperature=0.7)
        generate_batch([request], mock_endpoint.url, FAST)
        payload = mock_endpoint.requests[0]["payload"]
        assert payload == {
            "prompt": "hello",
            "max_new_tokens": 128,
            "temperature": 0.7,
            "stop": ["### Response:"],
        }

    def test_no_auth_header_by_default(self, mock_endpoint):
        generate_batch([req("a")], mock_endpoint.url, FAST)
        assert mock_endpoint.requests[0]["auth"] is None

    def test_bearer_token_sent_when_given(self, mock_endpoint):
        generate_batch([req("a"), req("b")], mock_endpoint.url, FAST, auth_token="sekrit")
        assert {entry["auth"] for entry in mock_endpoint.requests} == {"Bearer sekrit"}

    def test_parallelism_is_bounded(self, mock_endpoint):
        mock_endpoint.delay_seconds = 0.15
        policy = ClientPolicy(max_parallel=3, backoff_seconds=0.0)
        batch = [req(f"s{i}") for i in range(8)]
        started = time.monotonic()
        generate_batch(batch, mock_endpoint.url, policy)
        elapsed = time.monotonic() - started
        assert mock_endpoint.max_active <= 3
        assert mock_endpoint.max_active >= 2
        assert elapsed < 8 * 0.15

    def test_duplicate_ids_rejected(self, mock_endpoint):
        with pytest.raises(ValueError, match="duplicate sample_id"):
            generate_batch([req("a"), req("a")], mock_endpoint.url, FAST)
        assert mock_endpoint.requests == []


class TestRetries:
    def test_transient_failures_retried_to_success(self, mock_endpoint):
        mock_endpoint.fail_remaining = 2
        results = generate_batch([req("a")], mock_endpoint.url, FAST)
        assert results[0].attempt == 3
        assert len(mock_endpoint.requests) == 3

    def test_malformed_body_retried(self, mock_endpoint):
        mock_endpoint.malformed_remaining = 1
        results = generate_batch(
            [req("a")], mock_endpoint.url, ClientPolicy(max_attempts=2, backoff_seconds=0.0)
        )
        assert results[0].attempt == 2

    def test_backoff_waits_and_grows(self, mock_endpoint):
        mock_endpoint.fail_remaining = 2
        policy = ClientPolicy(max_attempts=3, backoff_seconds=0.05, backoff_multiplier=2.0)
        started = time.monotonic()
        generate_batch([req("a")], mock_endpoint.url, policy)
        # two sleeps: 0.05 then 0.10
        assert time.monotonic() - started >= 0.14

    def test_exhausted_attempts_raise(self, mock_endpoint):
        mock_endpoint.fail_remaining = 99
        policy = ClientPolicy(max_attempts=2, backoff_seconds=0.0)
        with pytest.raises(EndpointError, match=r"2 request\(s\) failed") as err:
            generate_batch([req("b"), req("a")], mock_endpoint.url, policy)
        assert [sid for sid, _ in err.value.failures] == ["a", "b"]
        assert all("server error 503" in reason for _, reason in err.value.failures)
        assert err.value.results == []

    def test_client_errors_fail_fast(self, mock_endpoint):
        mock_endpoint.status_override = 404
        with pytest.raises(EndpointError) as err:
            generate_batch([req("a")], mock_endpoint.url, FAST)
        assert len(mock_endpoint.requests) == 1
        assert "client error 404" in err.value.failures[0][1]

    def test_unreachable_endpoint(self):
        policy = ClientPolicy(max_attempts=1, backoff_seconds=0.0, timeout_seconds=2.0)
        with pytest.raises(EndpointError) as err:
            generate_batch([req("a")], "http://127.0.0.1:9/generate", policy)
        assert "connection failed" in err.value.failures[0][1]

    def test_failure_preview_truncates(self):
        failures = [(f"s{i}", "boom") for i in range(5)]
        err = EndpointError(failures, [])
        assert "5 request(s) failed (s0, s1, s2, ...)" in str(err)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ClientPolicy(max_parallel=0)
        with pytest.raises(ValueError):
            ClientPolicy(max_attempts=0)


class TestResumableOutput:
    def test_interrupted_run_resumes_without_rerequesting(self, mock_endpoint, tmp_path):
        out = tmp_path / "gen.jsonl"
        batch = [req("s1"), req("s2"), req("s3")]
        # serial worker + one scripted failure kills exactly the first sample
        mock_endpoint.fail_remaining = 1
        policy = ClientPolicy(max_parallel=1, max_attempts=1, backoff_seconds=0.0)
        with pytest.raises(EndpointError) as err:
            generate_batch(batch, mock_endpoint.url, policy, out_path=out)
        assert [sid for sid, _ in err.value.failures] == ["s1"]
        assert len(err.value.results) == 2
        assert out.exists()

        mock_endpoint.requests.clear()
        results = generate_batch(batch, mock_endpoint.url, policy, out_path=out)
        assert mock_endpoint.prompts_seen() == ["prompt for s1"]
        assert [r.sample_id for r in results] == ["s1", "s2", "s3"]
        assert [r.attempt for r in results] == [1, 0, 0]

    def test_rerun_of_complete_file_is_quiet_and_byte_identical(self, mock_endpoint, tmp_path):
        out = tmp_path / "gen.jsonl"
        batch = [req("s2"), req("s1")]
        generate_batch(batch, mock_endpoint.url, FAST, out_path=out)
        first_bytes = out.read_bytes()
        lines = first_bytes.decode().splitlines()
        assert [row_id(line) for line in lines] == ["s1", "s2"]

        mock_endpoint.requests.clear()
        results = generate_batch(batch, mock_endpoint.url, FAST, out_path=out)
        assert mock_endpoint.requests == []
        assert all(r.attempt == 0 for r in results)
        assert out.read_bytes() == first_bytes

    def test_preseeded_rows_are_reused_not_regenerated(self, mock_endpoint, tmp_path):
        out = tmp_path / "gen.jsonl"
        out.write_text(dump_row({"sample_id": "s2", "text": "from before"}) + "\n")
        results = generate_batch(
            [req("s1"), req("s2"), req("s3")], mock_endpoint.url, FAST, out_path=out
        )
        assert sorted(mock_endpoint.prompts_seen()) == ["prompt for s1", "prompt for s3"]
        by_id = {r.sample_id: r for r in results}
        assert by_id["s2"].text == "from before"
        assert by_id["s2"].attempt == 0

    def test_foreign_rows_survive_the_canonical_rewrite(self, mock_endpoint, tmp_path):
        out = tmp_path / "gen.jsonl"
        out.write_text(dump_row({"sample_id": "zzz", "text": "unrelated"}) + "\n")
        generate_batch([req("s1")], mock_endpoint.url, FAST, out_path=out)
        lines = out.read_text().splitlines()
        assert [row_id(line) for line in lines] == ["s1", "zzz"]

    def test_corrupt_output_file_rejected(self, mock_endpoint, tmp_path):
        out = tmp_path / "gen.jsonl"
        out.write_text("{nope\n")
        with pytest.raises(ValueError, match="line 1"):
            generate_batch([req("s1")], mock_endpoint.url, FAST, out_path=out)
        out.write_text('{"sample_id": "s1"}\n')
        with pytest.raises(ValueError, match="not a generation row"):
            generate_batch([req("s1")], mock_endpoint.url, FAST, out_path=out)

    def test_kill_during_the_canonical_rewrite_keeps_every_row(self, mock_endpoint, tmp_path, monkeypatch):
        out = tmp_path / "gen.jsonl"
        out.write_text(dump_row({"sample_id": "s2", "text": "from before"}) + "\n")

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            generate_batch([req("s3"), req("s1"), req("s2")], mock_endpoint.url, FAST, out_path=out)
        monkeypatch.undo()
        assert sorted(row_id(line) for line in out.read_text().splitlines()) == ["s1", "s2", "s3"]
        assert [p.name for p in tmp_path.iterdir()] == ["gen.jsonl"]

        mock_endpoint.requests.clear()
        results = generate_batch([req("s1"), req("s2"), req("s3")], mock_endpoint.url, FAST, out_path=out)
        assert mock_endpoint.requests == []
        assert [r.attempt for r in results] == [0, 0, 0]
        assert [row_id(line) for line in out.read_text().splitlines()] == ["s1", "s2", "s3"]

    def test_no_output_path_keeps_everything_in_memory(self, mock_endpoint, tmp_path):
        results = generate_batch([req("a")], mock_endpoint.url, FAST)
        assert results[0].text == "echo: prompt for a"
        assert list(tmp_path.iterdir()) == []


class _KeepAliveServer(ThreadingHTTPServer):
    """HTTP/1.1 echo endpoint counting the connections it accepts."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.delay_seconds = 0.0
        self.close_after_reply = False  # close the socket without saying so
        self.announce_close = False  # send `Connection: close` and close

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/generate"

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        pass  # a client that timed out leaves the handler writing to a closed socket


class _KeepAliveHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):
        server: _KeepAliveServer = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.requests += 1
        if server.delay_seconds:
            time.sleep(server.delay_seconds)
        body = json.dumps({"text": "echo: " + payload["prompt"]}).encode("utf-8")
        close = "Connection: close\r\n" if server.announce_close else ""
        self.wfile.write(
            f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n{close}"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        self.close_connection = server.close_after_reply or server.announce_close


@pytest.fixture
def keepalive_endpoint():
    server = _KeepAliveServer()
    # a short poll interval, since shutdown() waits for the next poll
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestKeepAlive:
    def test_each_worker_reuses_one_connection(self, keepalive_endpoint):
        batch = [req(f"s{i:02d}") for i in range(20)]
        policy = ClientPolicy(max_parallel=2, backoff_seconds=0.0)
        results = generate_batch(batch, keepalive_endpoint.url, policy)
        assert [r.text for r in results] == [f"echo: prompt for s{i:02d}" for i in range(20)]
        assert all(r.attempt == 1 for r in results)
        assert keepalive_endpoint.requests == 20
        assert 1 <= keepalive_endpoint.connections <= 2

    @pytest.mark.parametrize("announced", [False, True], ids=["silent", "announced"])
    def test_server_closing_after_each_reply_costs_no_attempt(self, keepalive_endpoint, announced):
        keepalive_endpoint.close_after_reply = not announced
        keepalive_endpoint.announce_close = announced
        batch = [req(f"s{i:02d}") for i in range(10)]
        policy = ClientPolicy(max_parallel=2, max_attempts=1, backoff_seconds=0.0)
        results = generate_batch(batch, keepalive_endpoint.url, policy)
        assert [r.attempt for r in results] == [1] * 10
        assert keepalive_endpoint.requests == 10
        assert keepalive_endpoint.connections == 10

    def test_timeout_is_retried_then_fails(self, keepalive_endpoint):
        keepalive_endpoint.delay_seconds = 0.5
        policy = ClientPolicy(max_parallel=1, max_attempts=2, backoff_seconds=0.0, timeout_seconds=0.1)
        with pytest.raises(EndpointError) as err:
            generate_batch([req("a")], keepalive_endpoint.url, policy)
        assert err.value.failures[0][1].startswith("connection failed")
        assert keepalive_endpoint.requests == 2
        assert keepalive_endpoint.connections == 2

    def test_closed_port_is_a_connection_failure(self):
        policy = ClientPolicy(max_attempts=2, backoff_seconds=0.0, timeout_seconds=2.0)
        with pytest.raises(EndpointError) as err:
            generate_batch([req("a")], f"http://127.0.0.1:{closed_port()}/generate", policy)
        assert err.value.failures[0][1].startswith("connection failed")

    @pytest.mark.parametrize("scheme", ["ftp", "https"])
    def test_other_schemes_fail_as_connection_failures(self, keepalive_endpoint, scheme):
        url = keepalive_endpoint.url.replace("http", scheme, 1)
        policy = ClientPolicy(max_attempts=1, backoff_seconds=0.0, timeout_seconds=2.0)
        with pytest.raises(EndpointError) as err:
            generate_batch([req("a")], url, policy)
        assert err.value.failures[0][1].startswith("connection failed")

    def test_no_socket_outlives_the_batch(self, keepalive_endpoint, monkeypatch):
        opened: list[socket.socket] = []
        real_create = socket.create_connection

        def recording_create(*args, **kwargs):
            sock = real_create(*args, **kwargs)
            opened.append(sock)
            return sock

        monkeypatch.setattr(socket, "create_connection", recording_create)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        batch = [req(f"s{i}") for i in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            generate_batch(batch, keepalive_endpoint.url, ClientPolicy(max_parallel=3, backoff_seconds=0.0))
            assert len(opened) == keepalive_endpoint.connections >= 1
            assert all(sock.fileno() == -1 for sock in opened)
            opened.clear()
            gc.collect()
        assert [u.exc_value for u in unraisable] == []


class TestWorkers:
    def test_many_workers_take_each_request_once(self, keepalive_endpoint, tmp_path):
        # more workers than cores and a short switch interval, so a lost update
        # on the shared queue or the result list would show
        out = tmp_path / "gen.jsonl"
        batch = [req(f"s{i:03d}") for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = generate_batch(batch, keepalive_endpoint.url, ClientPolicy(max_parallel=8), out_path=out)
        finally:
            sys.setswitchinterval(interval)
        assert keepalive_endpoint.requests == 200
        assert [(r.sample_id, r.attempt) for r in results] == [(r.sample_id, 1) for r in batch]
        assert [row_id(line) for line in out.read_text().splitlines()] == [r.sample_id for r in batch]

    def test_an_unexpected_worker_error_stops_the_batch_and_is_raised(
        self, keepalive_endpoint, tmp_path, monkeypatch
    ):
        real_dump_row = citepipe.client.dump_row

        def dump_row(obj):
            if obj.get("sample_id") == "s05":
                raise OSError("disk full")
            return real_dump_row(obj)

        monkeypatch.setattr(citepipe.client, "dump_row", dump_row)
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        batch = [req(f"s{i:02d}") for i in range(20)]
        with pytest.raises(OSError, match="disk full"):
            generate_batch(batch, keepalive_endpoint.url, ClientPolicy(max_parallel=2), out_path=tmp_path / "g.jsonl")
        assert uncaught == []
        assert keepalive_endpoint.requests < 20

    def test_stop_cuts_a_backoff_short_and_starts_no_retry(self, mock_endpoint):
        mock_endpoint.fail_remaining = 99
        stop = threading.Event()
        timer = threading.Timer(0.1, stop.set)
        transport = _Transport(mock_endpoint.url, 5.0, {})
        started = time.monotonic()
        timer.start()
        try:
            result = _call_with_retries(transport, req("a"), ClientPolicy(max_attempts=3, backoff_seconds=30.0), stop)
        finally:
            timer.join(timeout=5)
            transport.close()
        assert result is None
        assert time.monotonic() - started < 5
        assert len(mock_endpoint.requests) == 1


class TestRequestSummary:
    def test_counts_latency_and_attempts(self):
        results = [
            GenerationResult("a", "x", latency_ms=10.0, attempt=1),
            GenerationResult("b", "x", latency_ms=30.0, attempt=3),
            GenerationResult("c", "x", latency_ms=20.0, attempt=1),
            GenerationResult("d", "x"),
        ]
        assert request_summary(results) == (
            "requests: 5 sent for 3 new row(s); latency_ms p50 20.0 p95 30.0 max 30.0; attempts 1:2 3:1"
        )

    def test_nothing_sent(self):
        assert request_summary([GenerationResult("d", "x")]) == "requests: 0 sent for 0 new row(s)"
