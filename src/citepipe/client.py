"""Client for a remote text-generation HTTP endpoint.

The endpoint contract: POST a JSON object {"prompt", "max_new_tokens",
"temperature", "stop"} and receive {"text": "..."} back. The client runs up
to `max_parallel` worker threads, which take the pending requests one at a
time from a shared queue. Each worker holds one keep-alive connection for
every request and retry it handles, retries transient failures with
exponential backoff, and appends each completed row to the output file as it
lands, so an interrupted run can resume without re-requesting finished
samples. An interrupt (Ctrl-C) stops the workers from taking another request
or starting another retry; the requests in flight finish and keep their rows
before it propagates.

Completed output files are canonical: rows sorted by sample_id, stable JSON
encoding. Re-running against a complete file performs no requests and leaves
the bytes untouched.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable
from urllib.parse import urlsplit

from .config import DEFAULTS
from .jsonl import dump_row, is_type, read_generations, write_text

DEFAULT_STOP: tuple[str, ...] = ("### Response:",)


@dataclass(frozen=True)
class GenerationRequest:
    sample_id: str
    prompt: str
    max_new_tokens: int = DEFAULTS["endpoint"]["max_new_tokens"]
    temperature: float = DEFAULTS["endpoint"]["temperature"]


@dataclass
class GenerationResult:
    sample_id: str
    text: str
    latency_ms: float = 0.0
    attempt: int = 0  # 0 marks a row loaded from a previous run


@dataclass(frozen=True)
class ClientPolicy:
    max_parallel: int = DEFAULTS["endpoint"]["max_parallel"]
    max_attempts: int = DEFAULTS["endpoint"]["max_attempts"]
    backoff_seconds: float = DEFAULTS["endpoint"]["backoff_seconds"]
    backoff_multiplier: float = DEFAULTS["endpoint"]["backoff_multiplier"]
    timeout_seconds: float = DEFAULTS["endpoint"]["timeout_seconds"]

    def __post_init__(self):
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")


class EndpointError(OSError):
    """Raised when any request fails after all attempts; successes are kept."""

    def __init__(self, failures: list[tuple[str, str]], results: list[GenerationResult]):
        preview = ", ".join(sample_id for sample_id, _ in failures[:3])
        suffix = ", ..." if len(failures) > 3 else ""
        super().__init__(f"{len(failures)} request(s) failed ({preview}{suffix})")
        self.failures = failures
        self.results = results


class _Transient(Exception):
    pass


class _Fatal(Exception):
    pass


class _Transport:
    """One worker's keep-alive connection, opened on first use."""

    def __init__(self, endpoint: str, timeout: float, headers: dict[str, str]):
        # imported here: only `generate` sends requests, and http.client with
        # ssl would add about 20 ms to the start-up of every command
        from http.client import HTTPConnection, HTTPException, HTTPSConnection

        url = urlsplit(endpoint)
        self._scheme = url.scheme
        self._factory = {"http": HTTPConnection, "https": HTTPSConnection}.get(url.scheme)
        self._netloc = url.netloc
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._timeout = timeout
        self._headers = {"Content-Type": "application/json", **headers}
        self._errors = (OSError, HTTPException)
        self._conn = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        """Send one request and read the whole response body."""
        while True:
            if self._conn is None:
                if self._factory is None:
                    raise _Transient(f"connection failed: unsupported URL scheme {self._scheme!r}")
                try:
                    self._conn = self._factory(self._netloc, timeout=self._timeout)
                except self._errors as exc:  # a malformed host or port
                    raise _Transient(f"connection failed: {exc}") from exc
            conn = self._conn
            idle = conn.sock is not None  # None: this request opens a new socket
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError) as exc:  # incl. RemoteDisconnected
                self.close()
                if idle:  # the server closed the idle connection: one free reconnect
                    continue
                raise _Transient(f"connection failed: {exc}") from exc
            except self._errors as exc:
                self.close()
                raise _Transient(f"connection failed: {exc}") from exc
            try:
                return response.status, response.read()
            except self._errors as exc:
                response.close()
                self.close()
                raise _Transient(f"connection failed: {exc}") from exc

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _encode(request: GenerationRequest) -> bytes:
    payload = {
        "prompt": request.prompt,
        "max_new_tokens": request.max_new_tokens,
        "temperature": request.temperature,
        "stop": list(DEFAULT_STOP),
    }
    try:
        return json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:  # NaN or infinite temperature: no attempt can succeed
        raise _Fatal(f"invalid request: {exc}") from exc


def _call_once(transport: _Transport, body: bytes) -> str:
    status, data = transport.post(body)
    if status >= 500:
        raise _Transient(f"server error {status}")
    if not 200 <= status < 300:
        kind = "client error" if status >= 400 else "unexpected status"
        raise _Fatal(f"{kind} {status}: {data.decode('utf-8', 'replace')[:200]}")
    try:
        body = json.loads(data)
    except ValueError as exc:
        raise _Transient(f"invalid json body: {exc}") from exc
    if not is_type(body, dict) or not is_type(body.get("text"), str):
        raise _Transient("response body missing 'text'")
    return body["text"]


def _call_with_retries(
    transport: _Transport,
    request: GenerationRequest,
    policy: ClientPolicy,
    stop: threading.Event,
) -> GenerationResult | None:
    """The request's result, or None when `stop` is set before a retry."""
    body = _encode(request)
    delay = policy.backoff_seconds
    last_reason = "unknown"
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            if stop.wait(max(delay, 0.0)):
                return None
            delay *= policy.backoff_multiplier
        started = time.monotonic()
        try:
            text = _call_once(transport, body)
        except _Transient as exc:
            last_reason = str(exc)
            continue
        latency_ms = (time.monotonic() - started) * 1000.0
        return GenerationResult(request.sample_id, text, latency_ms, attempt)
    raise _Transient(last_reason)


def _write_canonical(path: Path, texts: dict[str, str]) -> None:
    canonical = "".join(
        dump_row({"sample_id": sid, "text": texts[sid]}) + "\n" for sid in sorted(texts)
    )
    if path.exists() and path.read_text(encoding="utf-8") == canonical:
        return
    write_text(path, (canonical,))


def generate_batch(
    batch: Iterable[GenerationRequest],
    endpoint: str,
    policy: ClientPolicy | None = None,
    out_path: str | Path | None = None,
    auth_token: str | None = None,
) -> list[GenerationResult]:
    """Run the batch against `endpoint`, returning results sorted by sample_id.

    `batch` may be a generator; it is read once, before any request is sent.
    With out_path set, rows already present in the file are returned without
    any request and new rows are appended as they complete, so killing and
    re-running converges. If any request exhausts its attempts the completed
    rows are still persisted and EndpointError carries the failures.
    """
    policy = policy or ClientPolicy()
    headers = {"Authorization": f"Bearer {auth_token}"} if auth_token else {}
    out_file = Path(out_path) if out_path is not None else None
    texts = read_generations(out_file) if out_file is not None and out_file.exists() else {}

    seen_ids: set[str] = set()
    results: list[GenerationResult] = []  # reused rows keep their text, not their prompt
    pending: list[GenerationRequest] = []
    for request in batch:
        if request.sample_id in seen_ids:
            raise ValueError(f"duplicate sample_id in batch: {request.sample_id}")
        seen_ids.add(request.sample_id)
        if request.sample_id in texts:
            results.append(GenerationResult(request.sample_id, texts[request.sample_id]))
        else:
            pending.append(request)

    failures: list[tuple[str, str]] = []
    if pending:
        # Each worker takes the next request and records its outcome under one
        # lock. If this thread is interrupted, no worker takes another request
        # or starts another retry; the requests in flight finish and keep their
        # rows before the interrupt propagates. Each worker closes the transport
        # it owns; all are built first, so a malformed endpoint opens nothing.
        workers = min(policy.max_parallel, len(pending))
        transports = [_Transport(endpoint, policy.timeout_seconds, headers) for _ in range(workers)]
        append_handle = open(out_file, "a", encoding="utf-8") if out_file is not None else None
        lock = threading.Lock()
        queue = iter(pending)
        stop = threading.Event()
        errors: list[Exception] = []  # unexpected ones, raised here once the workers stop

        def work(transport: _Transport, done: threading.Event) -> None:
            try:
                while True:
                    with lock:
                        request = None if stop.is_set() else next(queue, None)
                    if request is None:
                        return
                    try:
                        result = _call_with_retries(transport, request, policy, stop)
                    except (_Transient, _Fatal) as exc:
                        with lock:
                            failures.append((request.sample_id, str(exc)))
                        continue
                    if result is None:
                        return
                    with lock:
                        results.append(result)
                        # closed only once a second interrupt cut the wait for this worker
                        if append_handle is not None and not append_handle.closed:
                            append_handle.write(
                                dump_row({"sample_id": result.sample_id, "text": result.text}) + "\n"
                            )
                            append_handle.flush()
            except Exception as exc:
                errors.append(exc)
                stop.set()
            finally:
                transport.close()
                done.set()

        # Each worker sets its own event when it ends, since a Thread.join cut
        # short by Ctrl-C can mark a thread that is still running as stopped
        # (CPython 3.11's does). Daemon threads, so a second interrupt need not
        # wait for a slow server.
        ended: list[threading.Event] = []
        try:
            for transport in transports:
                done = threading.Event()
                threading.Thread(target=work, args=(transport, done), daemon=True).start()
                ended.append(done)
            for done in ended:
                done.wait()
        except BaseException:
            stop.set()
            for done in ended:
                done.wait()
            raise
        finally:
            with lock:
                if append_handle is not None:
                    append_handle.close()
        if errors:
            raise errors[0]

    results.sort(key=lambda r: r.sample_id)
    if failures:
        failures.sort(key=lambda f: f[0])
        raise EndpointError(failures, results)
    if out_file is not None:
        texts.update((r.sample_id, r.text) for r in results)
        _write_canonical(out_file, texts)
    return results


def request_summary(results: list[GenerationResult]) -> str:
    """One line on the requests behind `results`: count, latency, attempts."""
    fresh = [r for r in results if r.attempt > 0]
    sent = sum(r.attempt for r in fresh)
    line = f"requests: {sent} sent for {len(fresh)} new row(s)"
    if not fresh:
        return line
    latencies = sorted(r.latency_ms for r in fresh)

    def rank(q: float) -> float:  # nearest-rank percentile
        return latencies[max(0, math.ceil(q * len(latencies)) - 1)]

    attempts = Counter(r.attempt for r in fresh)
    histogram = " ".join(f"{n}:{attempts[n]}" for n in sorted(attempts))
    return (
        f"{line}; latency_ms p50 {rank(0.5):.1f} p95 {rank(0.95):.1f} "
        f"max {latencies[-1]:.1f}; attempts {histogram}"
    )
