"""Shared fixtures: synthetic corpus builders and a mock generation endpoint."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest


def make_record(
    paper_id: str,
    abstract: str = "",
    sections: list[dict] | None = None,
    fields: tuple[str, ...] = ("Computer Science",),
    title: str | None = None,
) -> dict:
    return {
        "paper_id": paper_id,
        "title": title if title is not None else f"Title of {paper_id}",
        "abstract": abstract,
        "fields_of_study": list(fields),
        "body_sections": sections or [],
    }


def make_section(name: str, sentences: list[str], citations: list[tuple[int, str, str | None]]) -> dict:
    """Section in pre-split form; citations are (sentence_index, marker, resolved_id)."""
    spans = []
    for sent_idx, marker, resolved in citations:
        start = sentences[sent_idx].index(marker)
        spans.append(
            {
                "sentence_index": sent_idx,
                "char_start": start,
                "char_end": start + len(marker),
                "resolved_paper_id": resolved,
            }
        )
    return {"section_name": name, "sentences": list(sentences), "cite_spans": spans}


def write_jsonl_file(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def compact_row(text: str) -> str:
    """A JSON row as the README's "File formats" says every row is encoded:
    sorted keys, unescaped UTF-8, and no space after `,` or `:`. The tests'
    own statement of the rule, independent of the program's `dump_row`."""
    return json.dumps(json.loads(text), ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def compacted(path: Path) -> bytes:
    """The bytes of `path` with each row re-encoded by `compact_row`: every
    line of a `.jsonl` file, or each `per_sample` line of a report, which
    sits indented under its key; every other line is kept as it is."""
    lines = path.read_text(encoding="utf-8").split("\n")  # not splitlines: a row may hold U+2028
    for k, line in enumerate(lines):
        if path.suffix == ".jsonl" and line:
            lines[k] = compact_row(line)
        elif line.startswith("    {"):
            row, comma = (line[4:-1], ",") if line.endswith(",") else (line[4:], "")
            lines[k] = f"    {compact_row(row)}{comma}"
    return "\n".join(lines).encode("utf-8")


def asdict(record):
    """A record, and every record and list in it, as plain dicts and lists."""
    if hasattr(record, "_asdict"):
        return {name: asdict(value) for name, value in record._asdict().items()}
    return [asdict(value) for value in record] if type(record) is list else record


def inline_sample_row(sample) -> dict:
    """The row of a `CitationSample` in the all-inline form of schema version
    1, as the first writers wrote it: its source abstract and every field of
    every target in full, nulls included. Readers of every version take it."""
    return {**asdict(sample), "schema_version": 1}


def inline_enriched_row(es) -> dict:
    """The row of an `EnrichedSample` in the all-inline form: its sample as
    `inline_sample_row` writes it, and every triplet block in full, with its
    paper_id, its section and every triplet type, nulls included."""
    return {**asdict(es), "sample": inline_sample_row(es.sample)}


INTRO_SENTENCES = [
    "Filler sentence about the problem setting.",
    "Prior work [1] and [2] studied the core task.",
    "Both [1] and [2] report consistent gains.",
    "Unrelated analysis [3] took a different route.",
    "Methods [4] and [5] and [6] and [7] overlap heavily.",
]

RELATED_SENTENCES = [
    "Applied work [8] and [9] uses the same data.",
    "Our earlier system [10] and [9] compare well.",
    "A preprint [11] and [9] and [12] explore variants.",
]


def hand_corpus_records() -> list[dict]:
    """Corpus with hand-enumerated extraction results (see test_dataset)."""
    intro = make_section(
        "Introduction",
        INTRO_SENTENCES,
        [
            (1, "[1]", "t1"),
            (1, "[2]", "t2"),
            (2, "[1]", "t1"),
            (2, "[2]", "t2"),
            (3, "[3]", "t3"),
            (4, "[4]", "t4"),
            (4, "[5]", "t5"),
            (4, "[6]", "t1"),
            (4, "[7]", "t2"),
        ],
    )
    related = make_section(
        "Related Work",
        RELATED_SENTENCES,
        [
            (0, "[8]", "t_noabs"),
            (0, "[9]", "t1"),
            (1, "[10]", "s1"),
            (1, "[9]", "t1"),
            (2, "[11]", None),
            (2, "[9]", "t1"),
            (2, "[12]", "t2"),
        ],
    )
    records = [
        make_record("s1", abstract="Source paper abstract about generation.", sections=[intro, related]),
        make_record(
            "t1",
            abstract="Abstract of target one.",
            sections=[
                {"section_name": "Introduction", "sentences": ["Target one intro."], "cite_spans": []},
                {"section_name": "Conclusion", "sentences": ["Target one concludes."], "cite_spans": []},
            ],
        ),
        make_record("t2", abstract="Abstract of target two."),
        make_record("t3", abstract="Abstract of target three."),
        make_record("t4", abstract="Abstract of target four."),
        make_record("t5", abstract="Abstract of target five."),
        make_record("t_noabs", abstract=""),
        make_record("bio1", abstract="Off-topic paper.", fields=("Biology",)),
    ]
    return records


@pytest.fixture
def hand_corpus(tmp_path) -> Path:
    return write_jsonl_file(tmp_path / "corpus.jsonl", hand_corpus_records())


class MockEndpoint:
    """In-process generation endpoint with scripted failures and a request log."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests: list[dict] = []
        self.fail_remaining = 0
        self.malformed_remaining = 0
        self.status_override: int | None = None
        self.delay_seconds = 0.0
        # with hold_after set, every request after that many waits for `release`
        self.hold_after: int | None = None
        self.release = threading.Event()
        self.arrivals = 0
        self.active = 0
        self.max_active = 0
        self.responder = lambda payload: "echo: " + payload["prompt"][-40:]
        self.url = ""

    def prompts_seen(self) -> list[str]:
        with self.lock:
            return [entry["payload"]["prompt"] for entry in self.requests]


class _MockHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        state: MockEndpoint = self.server.state
        arrived = time.monotonic()
        with state.lock:
            state.active += 1
            state.max_active = max(state.max_active, state.active)
            state.arrivals += 1
            held = state.hold_after is not None and state.arrivals > state.hold_after
        try:
            if held:
                state.release.wait()
            if state.delay_seconds:
                time.sleep(state.delay_seconds)
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            with state.lock:
                state.requests.append(
                    {"payload": payload, "auth": self.headers.get("Authorization"), "arrived": arrived}
                )
                if state.status_override is not None:
                    mode = ("status", state.status_override)
                elif state.fail_remaining > 0:
                    state.fail_remaining -= 1
                    mode = ("status", 503)
                elif state.malformed_remaining > 0:
                    state.malformed_remaining -= 1
                    mode = ("malformed", None)
                else:
                    mode = ("ok", state.responder(payload))
            if mode[0] == "status":
                self.send_response(mode[1])
                self.send_header("Content-Type", "text/plain")
                self.end_headers()
                self.wfile.write(b"scripted failure")
            elif mode[0] == "malformed":
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(b"{not json")
            else:
                body = json.dumps({"text": mode[1]}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body)
        finally:
            with state.lock:
                state.active -= 1


@pytest.fixture
def mock_endpoint():
    state = MockEndpoint()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _MockHandler)
    server.state = state
    state.url = f"http://127.0.0.1:{server.server_address[1]}/generate"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield state
    finally:
        state.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::test_criterion_" in nodeid:
                name = nodeid.split("::")[-1]
                if status != "passed" or name not in outcomes:
                    outcomes[name] = status
    if outcomes:
        terminalreporter.section("acceptance criteria")
        for name in sorted(outcomes):
            status = "PASS" if outcomes[name] == "passed" else "FAIL"
            terminalreporter.write_line(f"{status}: {name}")
