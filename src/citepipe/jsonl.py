"""How every artifact goes on disk and comes back: one atomic writer, one
canonical row encoding (with a per-write cache for objects shared between
rows), one strict line reader (lazy, or listed whole), and file and JSON
digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, raw line) for non-blank lines of a file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def iter_rows(
    path: str | Path, parse: Callable[[Any], Any] = lambda row: row, error=ValueError
) -> Iterator:
    """Each row of a JSONL file through `parse`, one at a time as the file is
    read. Bad JSON, or a ValueError, KeyError or TypeError from `parse`,
    raises `error` naming the line once the reader gets there."""
    for lineno, line in iter_jsonl(path):
        try:
            row = parse(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise error(f"{path}: line {lineno}: {exc}") from exc
        yield row


def read_jsonl(
    path: str | Path, parse: Callable[[Any], Any] = lambda row: row, error=ValueError
) -> list:
    """Every row of `iter_rows`, so a bad line fails before any row is used."""
    return list(iter_rows(path, parse, error))


def read_prompt_file(path: str | Path) -> list[dict]:
    """The rows of a prompts file, which `generate` checks for its fields."""
    return read_jsonl(path)


def _generation_row(row) -> tuple[str, str]:
    if not isinstance(row, dict) or "sample_id" not in row or "text" not in row:
        raise ValueError("not a generation row")
    return row["sample_id"], row["text"]


def read_generations(path: str | Path) -> dict[str, str]:
    """Text by sample id from a generations file; the first row of an id wins."""
    texts: dict[str, str] = {}
    for sample_id, text in read_jsonl(path, _generation_row):
        texts.setdefault(sample_id, text)
    return texts


def dump_row(obj: Any) -> str:
    # sort_keys keeps files byte-stable across runs
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def all_text(values: Iterable[Any]) -> bool:
    """True when every value is a string or None. Such values are equal
    exactly when they encode alike; 1, 1.0 and true are equal but do not."""
    return all(v is None or type(v) is str for v in values)


def encoded_by_identity(encode: Callable[[Any], str]) -> Callable[[Any], str]:
    """`encode`, run once per distinct object for as long as the returned
    function is kept. Objects are keyed by identity and held meanwhile, so an
    id is never reused; the cache assumes nobody mutates them while it lives."""
    seen: dict[int, tuple[Any, str]] = {}

    def encoded(obj: Any) -> str:
        hit = seen.get(id(obj))
        if hit is None:
            hit = seen[id(obj)] = (obj, encode(obj))
        return hit[1]

    return encoded


def write_text(path: str | Path, chunks: Iterable[str]) -> int:
    """Replace `path` with the chunks via a hidden temp file and `os.replace`,
    so a failure or interrupt leaves `path` as it was. Returns the chunk count."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    count = 0
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            for count, chunk in enumerate(chunks, start=1):
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> int:
    """Write one canonical JSON row per line; returns the row count."""
    return write_text(path, (dump_row(row) + "\n" for row in rows))


def write_json(path: str | Path, obj: Any) -> None:
    """Write one indented, key-sorted JSON document with a trailing newline,
    as the encoder yields it, so no encoded copy of the whole document is held.
    The bytes are `json.dumps(obj, indent=2, sort_keys=True)`'s, since an
    indented dump runs this same encoder."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    write_text(path, itertools.chain(chunks, ("\n",)))


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def json_digest(obj: Any) -> str:
    return hashlib.sha256(dump_row(obj).encode("utf-8")).hexdigest()
