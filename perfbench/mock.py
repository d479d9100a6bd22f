"""In-process mock of the generation endpoint.

The mock identifies each prompt by the paper markers that open the source
and target abstracts (`[[p00012]]`), looks the answer up in a table built
before any command runs, holds one of `max_concurrent` service slots for a
fixed service time, and logs the request. Each response goes out in one
write with a Content-Length header, so a client that reuses connections is
measured without a delayed-ACK stall between a header write and a body
write.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_SOURCE_RE = re.compile(r"Source abstract: \[\[([\w-]+)\]\]")
_TARGET_RE = re.compile(r"Target paper \d+ abstract: \[\[([\w-]+)\]\]")


@dataclass(frozen=True)
class Request:
    sample_id: str | None  # None when the prompt matched no table entry
    start: float
    end: float


def prompt_key(prompt: str) -> tuple[str, tuple[str, ...]] | None:
    source = _SOURCE_RE.search(prompt)
    if source is None:
        return None
    return source.group(1), tuple(_TARGET_RE.findall(prompt))


class MockEndpoint:
    """`table` maps a prompt key to an object with `sample_id` and `text`."""

    def __init__(self, table: dict, service_s: float, max_concurrent: int):
        self.table = table
        self.service_s = service_s
        self.log: list[Request] = []
        self._slots = threading.BoundedSemaphore(max_concurrent)
        self._log_lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "MockEndpoint":
        mock = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with mock._slots:
                    start = time.perf_counter()
                    try:
                        entry = mock.table.get(prompt_key(json.loads(body)["prompt"]))
                    except (ValueError, KeyError, TypeError):
                        entry = None
                    time.sleep(mock.service_s)
                    if entry is None:
                        status, payload = "400 Bad Request", {"error": "unknown prompt"}
                    else:
                        status, payload = "200 OK", {"text": entry.text}
                    data = json.dumps(payload).encode("utf-8")
                    # logged before the reply, so the log is complete once the client has it
                    with mock._log_lock:
                        mock.log.append(Request(entry.sample_id if entry else None, start, time.perf_counter()))
                    self.wfile.write(
                        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n\r\n".encode("ascii") + data
                    )

            def log_message(self, format, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/generate"

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
