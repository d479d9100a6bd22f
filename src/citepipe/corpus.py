"""Streaming ingest of sharded JSONL paper corpora.

Records arrive one JSON object per line. Each holds a paper id, optional
title and abstract, field-of-study tags, and sectioned body text whose
citation spans point at the papers the text cites. Section text may come
pre-split into sentences (spans carry a sentence index and sentence-local
offsets) or as raw text (spans carry offsets into the section string and
are mapped onto sentences here). Either way each span's offsets are checked
against its text, and a section keeps, for each sentence, the ids its
citations resolve to in offset order. The exact accepted field names are
listed in the README mapping table.

Streaming is line-by-line, so memory tracks the largest single record, not
the corpus. The one cumulative structure is the set of seen paper ids kept
for duplicate detection, a few dozen bytes per record.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .config import DEFAULTS
from .jsonl import is_type, iter_jsonl


class ValidationError(ValueError):
    """A record violated the corpus schema. `field_name` is the first bad field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class BodySection:
    """One body section. `cited[i]` holds the resolved ids of the citations in
    `sentences[i]`, in offset order; None marks an unresolved citation."""

    section_name: str
    sentences: list[str]
    cited: list[list[str | None]]


@dataclass
class PaperRecord:
    paper_id: str
    title: str = ""
    abstract: str = ""
    fields_of_study: list[str] = field(default_factory=list)
    body_sections: list[BodySection] = field(default_factory=list)


@dataclass
class IngestStats:
    files_read: int = 0
    lines_read: int = 0
    records_yielded: int = 0
    parse_errors: int = 0
    validation_errors: int = 0
    duplicate_ids: int = 0
    filtered_out: int = 0

    @property
    def skipped(self) -> int:
        return self.parse_errors + self.validation_errors + self.duplicate_ids


# A sentence ends at . ! or ? followed by whitespace and either an uppercase
# letter or a bracketed citation opener. Everything else stays inside the
# sentence, so abbreviations mid-clause survive unless the next word is
# capitalized.
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+(?=[A-Z\[\(])")


def _split_with_offsets(text: str) -> list[tuple[str, int]]:
    """Split into sentences, keeping each sentence's offset into `text`."""
    pieces: list[tuple[str, int]] = []
    prev = 0
    for m in _SENTENCE_BOUNDARY.finditer(text):
        pieces.append((text[prev:m.start()], prev))
        prev = m.end()
    pieces.append((text[prev:], prev))

    out: list[tuple[str, int]] = []
    for raw, offset in pieces:
        stripped = raw.strip()
        if not stripped:
            continue
        lead = len(raw) - len(raw.lstrip())
        out.append((stripped, offset + lead))
    return out


def sentence_split(text: str) -> list[str]:
    """Deterministic sentence splitter.

    Joining the result recovers the input up to the whitespace that separated
    sentences. Empty input gives an empty list and no output sentence is
    empty.
    """
    return [sentence for sentence, _ in _split_with_offsets(text)]


def _require_str(raw: dict, key: str, *aliases: str, default: str | None = "") -> str | None:
    for k in (key, *aliases):
        if k in raw:
            value = raw[k]
            if not is_type(value, str):
                raise ValidationError(key, f"expected a string, got {type(value).__name__}")
            return value
    return default


def _raw_spans(raw_section: dict) -> list[dict]:
    raw_spans = raw_section.get("cite_spans", [])
    if not is_type(raw_spans, list) or not all(is_type(s, dict) for s in raw_spans):
        raise ValidationError("cite_spans", "expected a list of objects")
    return raw_spans


def _span_fields(raw_span: dict) -> tuple[int, int, str | None]:
    start = raw_span.get("char_start", raw_span.get("start"))
    end = raw_span.get("char_end", raw_span.get("end"))
    if not is_type(start, int) or not is_type(end, int):
        raise ValidationError("cite_spans", "span offsets must be integers")
    resolved = raw_span.get("resolved_paper_id", raw_span.get("ref_paper_id"))
    if not is_type(resolved, (str, None)):
        raise ValidationError("cite_spans", "resolved_paper_id must be a string or null")
    return start, end, resolved


def _cited_ids(n_sentences: int, citations: list[tuple[int, int, str | None]]) -> list[list[str | None]]:
    """Group (sentence index, offset, resolved id) citations by sentence in
    offset order; the sort is stable, so citations at one offset keep their
    input order."""
    cited: list[list[str | None]] = [[] for _ in range(n_sentences)]
    for idx, _, resolved in sorted(citations, key=itemgetter(0, 1)):
        cited[idx].append(resolved)
    return cited


def _section_from_sentences(raw_section: dict, name: str) -> BodySection:
    sentences = raw_section["sentences"]
    if not is_type(sentences, list) or not all(is_type(s, str) for s in sentences):
        raise ValidationError("sentences", "expected a list of strings")
    citations = []
    for raw_span in _raw_spans(raw_section):
        idx = raw_span.get("sentence_index")
        if not is_type(idx, int) or idx < 0 or idx >= len(sentences):
            raise ValidationError("cite_spans", f"sentence_index {idx!r} out of range")
        start, end, resolved = _span_fields(raw_span)
        if start < 0 or end <= start or end > len(sentences[idx]):
            raise ValidationError("cite_spans", f"span ({start}, {end}) out of range for sentence {idx}")
        citations.append((idx, start, resolved))
    return BodySection(name, list(sentences), _cited_ids(len(sentences), citations))


def _section_from_text(raw_section: dict, name: str) -> BodySection:
    text = raw_section["text"]
    if not is_type(text, str):
        raise ValidationError("text", "expected a string")
    with_offsets = _split_with_offsets(text)
    sentences = [s for s, _ in with_offsets]
    starts = [off for _, off in with_offsets]
    citations = []
    for raw_span in _raw_spans(raw_section):
        start, end, resolved = _span_fields(raw_span)
        if start < 0 or end <= start or end > len(text):
            raise ValidationError("cite_spans", f"span ({start}, {end}) out of range for section text")
        idx = bisect_right(starts, start) - 1
        if idx < 0:
            raise ValidationError("cite_spans", f"span ({start}, {end}) falls before the first sentence")
        if end - starts[idx] > len(sentences[idx]):
            raise ValidationError("cite_spans", f"span ({start}, {end}) crosses a sentence boundary")
        # within one sentence, section offsets order citations as local ones do
        citations.append((idx, start, resolved))
    return BodySection(name, sentences, _cited_ids(len(sentences), citations))


def validate_record(raw: dict) -> PaperRecord:
    """Parse one raw record dict into a PaperRecord, or raise ValidationError.

    The error names the first field that failed. Accepted aliases:
    paper_id/source_paper_id, abstract/source_abstract,
    fields_of_study/fieldsOfStudy, body_sections/body_text,
    section_name/section, char_start/start, char_end/end,
    resolved_paper_id/ref_paper_id.
    """
    if not is_type(raw, dict):
        raise ValidationError("record", "expected a JSON object")

    paper_id = _require_str(raw, "paper_id", "source_paper_id", default=None)
    if not paper_id:
        raise ValidationError("paper_id", "missing or empty")

    title = _require_str(raw, "title")
    abstract = _require_str(raw, "abstract", "source_abstract")

    fos = raw.get("fields_of_study", raw.get("fieldsOfStudy", []))
    if not is_type(fos, list) or not all(is_type(f, str) for f in fos):
        raise ValidationError("fields_of_study", "expected a list of strings")

    raw_sections = raw.get("body_sections", raw.get("body_text", []))
    if not is_type(raw_sections, list):
        raise ValidationError("body_sections", "expected a list of sections")

    sections: list[BodySection] = []
    for raw_section in raw_sections:
        if not is_type(raw_section, dict):
            raise ValidationError("body_sections", "each section must be an object")
        name = _require_str(raw_section, "section_name", "section")
        if "sentences" in raw_section:
            sections.append(_section_from_sentences(raw_section, name))
        elif "text" in raw_section:
            sections.append(_section_from_text(raw_section, name))
        else:
            raise ValidationError("body_sections", "section needs either 'sentences' or 'text'")

    return PaperRecord(paper_id, title, abstract, list(fos), sections)


def corpus_files(path: str | Path) -> list[Path]:
    """Input files for a corpus path: one file, or a directory's sorted shards."""
    p = Path(path)
    if p.is_dir():
        shards = sorted(f for f in p.iterdir() if f.is_file() and f.suffix == ".jsonl")
        if not shards:
            raise FileNotFoundError(f"no .jsonl shards under {p}")
        return shards
    if not p.exists():
        raise FileNotFoundError(str(p))
    return [p]


def stream_corpus(
    path: str | Path,
    fields_of_study: Iterable[str] = frozenset(DEFAULTS["filter"]["fields_of_study"]),
    stats: IngestStats | None = None,
) -> Iterator[PaperRecord]:
    """Stream matching PaperRecords from a JSONL file or a directory of shards.

    A record matches when one of its fields of study is in `fields_of_study`;
    membership is exact and case-sensitive, and an empty set keeps nothing.
    Shards in a directory are processed in lexicographic filename order.
    Malformed lines (bad JSON, schema violations, duplicate ids) are counted
    on `stats` and skipped; an unreadable path is fatal. Two passes over the
    same input yield identical record sequences.
    """
    wanted = frozenset(fields_of_study)
    if stats is None:
        stats = IngestStats()

    seen_ids: set[str] = set()
    for shard in corpus_files(path):
        stats.files_read += 1
        for _, line in iter_jsonl(shard):
            stats.lines_read += 1
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                stats.parse_errors += 1
                continue
            try:
                record = validate_record(raw)
            except ValidationError:
                stats.validation_errors += 1
                continue
            if record.paper_id in seen_ids:
                stats.duplicate_ids += 1
                continue
            seen_ids.add(record.paper_id)
            if wanted.isdisjoint(record.fields_of_study):
                stats.filtered_out += 1
                continue
            stats.records_yielded += 1
            yield record
