"""Client for a remote text-generation HTTP endpoint.

The endpoint contract: POST a JSON object {"prompt", "max_new_tokens",
"temperature", "stop"} and receive {"text": "..."} back: the prompt comes from
the request, the rest from the run's `ClientPolicy`. The client reads its
batch twice: first for the ids, keeping those of the pending requests but no
prompt, then as up to `max_parallel` worker threads take the pending
requests one at a time from it. Each worker holds one keep-alive connection for
every request and retry it handles, retries transient failures with
exponential backoff, and appends each completed row to the output file as it
lands, so an interrupted run can resume without re-requesting finished
samples. An interrupt (Ctrl-C) stops the workers from taking another request
or starting another retry; the requests in flight finish and keep their rows
before it propagates.

The connection speaks HTTP/1.1 (RFC 9112) on a plain socket: a run against
an http:// endpoint imports neither `http.client`, whose header parsing
brings in the `email` package, nor `ssl`.

Completed output files are canonical: rows sorted by sample_id, stable JSON
encoding. Re-running against a complete file performs no requests and leaves
the bytes untouched.
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import urlsplit

from .config import DEFAULTS
from .jsonl import Frozen, dump_row, is_type, read_generations, write_text

DEFAULT_STOP: tuple[str, ...] = ("### Response:",)


class GenerationRequest(NamedTuple):
    sample_id: str
    prompt: str


class GenerationResult(NamedTuple):
    sample_id: str
    text: str
    latency_ms: float = 0.0
    attempt: int = 0  # 0 marks a row loaded from a previous run


class ClientPolicy(Frozen):
    """A run's settings: the `endpoint` config section but its url, in its
    order: `max_parallel`, `max_attempts`, `backoff_seconds`,
    `backoff_multiplier`, `timeout_seconds`, `max_new_tokens`, `temperature`."""

    _defaults = {key: value for key, value in DEFAULTS["endpoint"].items() if key != "url"}
    __slots__ = tuple(_defaults)

    def _check(self):
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        limit = threading.TIMEOUT_MAX  # a socket timeout past it overflows the platform's time_t
        if not 0 < self.timeout_seconds <= limit:  # NaN fails both comparisons
            raise ValueError(f"timeout_seconds must be positive and at most {limit:.0f}, not {self.timeout_seconds!r}")
        for name in ("backoff_seconds", "backoff_multiplier"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be non-negative and finite, not {value!r}")
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, not {self.temperature!r}")


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


class _BadReply(OSError):
    """A reply that breaks HTTP/1.1 message syntax or the limits on its head."""


_MAX_LINE = 65536  # the limits of http.client: bytes in one line of the head,
_MAX_HEADERS = 100  # and header lines in one reply
_PIECE = 1 << 20  # a body is read this much at a time, whatever length it announces
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?:[ \t]|\r?\n)")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


class _Transport:
    """One worker's keep-alive HTTP/1.1 connection, opened on first use.

    Each request goes out in one write: the request line, `Host`,
    `Content-Type`, `Accept-Encoding: identity`, the extra headers,
    `Content-Length` and the body. A reply is framed by `Content-Length`, by
    chunked transfer coding (trailers are read and dropped) or, with neither,
    by the server closing the connection; interim 1xx replies are skipped. The
    connection is closed after an HTTP/1.0 reply, a `Connection: close`
    header, or any error. `ssl` is imported only for an https:// endpoint.
    """

    def __init__(self, endpoint: str, timeout: float, headers: dict[str, str]):
        url = urlsplit(endpoint)
        if "@" in url.netloc:  # refused below, without echoing the password
            endpoint = endpoint.replace(url.netloc, "***@" + url.netloc.rpartition("@")[2], 1)
        if url.scheme not in ("http", "https") or not url.hostname or "@" in url.netloc:
            raise ValueError(f"endpoint {endpoint!r} is not an http:// or https:// URL with a host and no credentials")
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if not (target.isascii() and target.isprintable()) or " " in target:
            raise ValueError(f"endpoint {endpoint!r} has a space, a control or a non-ASCII character in its path")
        host = url.netloc if url.netloc.isascii() else url.netloc.encode("idna").decode("ascii")
        head = [f"POST {target} HTTP/1.1", f"Host: {host}",
                "Content-Type: application/json", "Accept-Encoding: identity",
                *(f"{name}: {value}" for name, value in headers.items())]
        if not all(line.isprintable() for line in head):
            raise ValueError("a request header holds a control character")
        self._head = "".join(f"{line}\r\n" for line in head).encode("latin-1") + b"Content-Length: "
        self._url = url
        self._timeout = timeout
        self._tls = None
        if url.scheme == "https":
            import ssl  # only here: it costs about 2 MB and 20 ms to import

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        self._sock = None
        self._file = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        """Send one request and read the whole reply body."""
        message = self._head + b"%d\r\n\r\n" % len(body) + body
        while True:
            reused = self._file is not None
            line = b""
            try:
                if not reused:
                    self._open()
                self._sock.sendall(message)
                line = self._line()
                if not line:
                    raise ConnectionResetError("the server closed the connection before replying")
                return self._reply(line)
            except OSError as exc:
                self.close()
                if reused and not line and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                    continue  # the server closed the idle connection: one free reconnect
                raise _Transient(f"connection failed: {exc}") from exc

    def _open(self) -> None:
        try:
            port = self._url.port or (443 if self._tls else 80)
        except ValueError as exc:  # a bad port fails as a connection, not as a usage error
            raise OSError(exc) from None
        sock = socket.create_connection((self._url.hostname, port), self._timeout)
        if self._tls is not None:
            try:
                sock = self._tls.wrap_socket(sock, server_hostname=self._url.hostname)
            except BaseException:
                sock.close()
                raise
        self._sock = sock
        self._file = sock.makefile("rb")

    def _line(self) -> bytes:
        line = self._file.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _BadReply(f"a line of the reply is longer than {_MAX_LINE} bytes")
        return line

    def _fields(self) -> dict[bytes, bytes]:
        """The header (or trailer) lines up to the empty one, by lowercased name."""
        fields = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                return fields
            if not line:
                raise _BadReply("the reply ended inside its head")
            name, _, value = line.partition(b":")
            fields[name.strip().lower()] = value.strip()
        raise _BadReply(f"the reply has more than {_MAX_HEADERS} header lines")

    def _exactly(self, size: int) -> bytes:
        parts = []
        while size:
            part = self._file.read(min(size, _PIECE))
            if not part:
                raise _BadReply("the reply body was cut short")
            parts.append(part)
            size -= len(part)
        return b"".join(parts)

    def _reply(self, line: bytes) -> tuple[int, bytes]:
        """Read the reply whose status line is `line`, skipping interim ones."""
        while True:
            status = _STATUS_LINE.match(line)
            if status is None:
                raise _BadReply(f"malformed status line {line[:80]!r}")
            fields = self._fields()
            code = int(status[2])
            if code >= 200:
                break
            line = self._line()
        options = {option.strip() for option in fields.get(b"connection", b"").lower().split(b",")}
        keep = status[1] != b"0" and b"close" not in options  # HTTP/1.0 closes by default
        codings = fields.get(b"transfer-encoding", b"")
        length = fields.get(b"content-length")
        if code in (204, 304):
            body = b""
        elif codings.rpartition(b",")[2].strip().lower() == b"chunked":
            body = self._chunked()
        elif length is not None and not codings:
            if not length.isdigit():
                raise _BadReply(f"malformed Content-Length {length[:80]!r}")
            body = self._exactly(int(length))
        else:  # no framing, or a transfer coding that does not end in chunked
            body, keep = self._file.read(), False
        if not keep:
            self.close()
        return code, body

    def _chunked(self) -> bytes:
        parts = []
        while True:
            digits = self._line().partition(b";")[0].strip()  # a chunk extension is dropped
            if not _HEX.fullmatch(digits):
                raise _BadReply(f"malformed chunk size {digits[:80]!r}")
            size = int(digits, 16)
            if size == 0:
                self._fields()  # the trailer
                return b"".join(parts)
            parts.append(self._exactly(size))
            if self._line() not in (b"\r\n", b"\n"):
                raise _BadReply("a chunk is longer than its size")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._sock.close()
            self._file = self._sock = None


def _encode(request: GenerationRequest, policy: ClientPolicy) -> bytes:
    payload = {"prompt": request.prompt, "max_new_tokens": policy.max_new_tokens,
               "temperature": policy.temperature, "stop": list(DEFAULT_STOP)}
    return json.dumps(payload).encode("utf-8")


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
    body = _encode(request, policy)
    delay = policy.backoff_seconds
    last_reason = "unknown"
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            # the delay grows without bound, and a wait past TIMEOUT_MAX overflows
            if stop.wait(min(delay, threading.TIMEOUT_MAX)):
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

    `batch` is read twice, so it must be re-iterable, such as a list or an
    object whose `__iter__` reads a file again; an iterator is refused with a
    TypeError. The first read, before any request is sent, checks the ids and
    keeps the ids of the pending requests, not the requests; the second hands
    the pending requests to the workers as they take them. With out_path set,
    rows already present in the file are returned without any request and new
    rows are appended as they complete, so killing and re-running converges.
    If any request exhausts its attempts the completed rows are still
    persisted and EndpointError carries the failures.
    """
    if isinstance(batch, Iterator):
        raise TypeError("batch is read twice, so it must be re-iterable, not an iterator")
    policy = policy or ClientPolicy()
    headers = {"Authorization": f"Bearer {auth_token}"} if auth_token else {}
    first = _Transport(endpoint, policy.timeout_seconds, headers)  # a bad endpoint fails before --out is read
    out_file = Path(out_path) if out_path is not None else None
    texts = read_generations(out_file) if out_file is not None and out_file.exists() else {}

    seen_ids: set[str] = set()
    results: list[GenerationResult] = []  # reused rows keep their text, not their prompt
    pending: set[str] = set()  # the ids of the requests to send, not their prompts
    for request in batch:
        if request.sample_id in seen_ids:
            raise ValueError(f"duplicate sample_id in batch: {request.sample_id}")
        seen_ids.add(request.sample_id)
        if request.sample_id in texts:
            results.append(GenerationResult(request.sample_id, texts[request.sample_id]))
        else:
            pending.add(request.sample_id)
    del seen_ids  # the ids stay only in `pending` and `results`

    failures: list[tuple[str, str]] = []
    if pending:
        # Each worker takes the next request and records its outcome under one
        # lock. If this thread is interrupted, no worker takes another request or
        # starts another retry; the requests in flight finish and keep their rows
        # before the interrupt propagates. Each worker closes the transport it owns.
        workers = min(policy.max_parallel, len(pending))
        transports = [first, *(_Transport(endpoint, policy.timeout_seconds, headers) for _ in range(workers - 1))]
        if texts:  # a last row without its newline gets one, so that no row is appended to it
            with open(out_file, "rb+") as fh:
                fh.seek(-1, 2)  # the last byte
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        append_handle = open(out_file, "a", encoding="utf-8") if out_file is not None else None
        lock = threading.Lock()
        stop = threading.Event()
        errors: list[Exception] = []  # unexpected ones, raised here once the workers stop

        def take() -> Iterator[GenerationRequest]:
            for request in batch:  # the second read
                if request.sample_id in pending:  # each pending id is sent once, whatever the batch holds now
                    pending.remove(request.sample_id)
                    yield request

        queue = take()

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
                queue.close()  # and with it the batch's file, if the workers stopped before its end
                if append_handle is not None:
                    append_handle.close()
        if errors:
            raise errors[0]
        # what is left the second read did not find: the batch changed between the reads
        failures.extend((sample_id, "not in the batch when it was read again") for sample_id in pending)

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
