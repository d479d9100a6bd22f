"""How every artifact goes on disk and comes back: one atomic writer, one
canonical row encoding (an object shared by rows is encoded by the rule of
`dataset.last_entry`), indented JSON documents (with a long list written from
its rows' encodings, a row per line), one strict line reader (lazy, or listed
whole), the one field-type rule every row reader checks with, and file and
JSON digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, raw line) for non-blank lines of a file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def iter_rows(path: str | Path, parse: Callable[[Any], Any] = lambda row: row) -> Iterator:
    """Each row of a JSONL file through `parse`, one at a time as the file is
    read. Bad JSON, or a ValueError, KeyError or TypeError from `parse`,
    raises a ValueError naming the file and line once the reader gets there."""
    for lineno, line in iter_jsonl(path):
        try:
            row = parse(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        yield row


def read_jsonl(path: str | Path, parse: Callable[[Any], Any] = lambda row: row) -> list:
    """Every row of `iter_rows`, so a bad line fails before any row is used."""
    return list(iter_rows(path, parse))


def read_prompt_file(path: str | Path) -> list[dict]:
    """The rows of a prompts file, which `generate` checks for its fields."""
    return read_jsonl(path)


# each type's JSON name, for messages
_NOUNS = {str: "a string", int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}
_ABSENT = object()


def is_type(value: Any, kind: type | tuple[type, None]) -> bool:
    """Whether `value` is exactly a `kind`, so True is not an int; the pair
    `(kind, None)` lets null through as well."""
    return type(value) is kind or (type(kind) is tuple and (value is None or type(value) is kind[0]))


def _type_name(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def row_fields(row: Any, spec: Mapping[str, Any], defaults: Mapping[str, Any] | None = None) -> list:
    """The values of the fields `spec` names, in its order, from the object
    `row`. `spec` gives each name's type in the form `is_type` takes; a name
    in `defaults` may be absent and then reads as its default. Any other row
    is a ValueError naming the first bad field."""
    if type(row) is not dict:
        raise ValueError(f"expected an object, got {_type_name(row)}")
    values = []
    for name, kind in spec.items():
        value = row.get(name, _ABSENT)
        if type(value) is not kind:  # a value of exactly its type, the common case, needs no more
            if value is _ABSENT and defaults:
                value = defaults.get(name, _ABSENT)
            if not is_type(value, kind):
                if value is _ABSENT:
                    raise ValueError(f"{name} is missing")
                noun = _NOUNS[kind if type(kind) is type else kind[0]]
                raise ValueError(f"{name} is {_type_name(value)}, not {noun}")
        values.append(value)
    return values


def _generation_row(row) -> list:
    try:
        return row_fields(row, {"sample_id": str, "text": str})
    except ValueError as exc:
        raise ValueError(f"not a generation row: {exc}") from exc


def read_generations(path: str | Path) -> dict[str, str]:
    """Text by sample id from a generations file; the first row of an id wins."""
    texts: dict[str, str] = {}
    for sample_id, text in read_jsonl(path, _generation_row):
        texts.setdefault(sample_id, text)
    return texts


def dump_row(obj: Any) -> str:
    # sort_keys keeps files byte-stable across runs
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def write_text(path: str | Path, chunks: Iterable[str]) -> int:
    """Replace `path` with the chunks via a hidden temp file and `os.replace`,
    so a failure or interrupt leaves `path` as it was; first it removes the
    temp files that killed writes to `path` left. Returns the chunk count."""
    path = Path(path)
    # `.<name>.<8 hex digits>.tmp`; the exact length spares the temp files of a
    # longer name that starts with this one, such as `<name>.run.json`
    prefix, length = f".{path.name}.", len(path.name) + 14
    with os.scandir(path.parent) as entries:
        stale = [e.path for e in entries if len(e.name) == length and e.name.startswith(prefix) and e.name.endswith(".tmp")]
    for name in stale:
        Path(name).unlink(missing_ok=True)
    tmp = path.with_name(f"{prefix}{os.urandom(4).hex()}.tmp")
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


def write_json_rows(path: str | Path, head: dict, key: str, rows: Iterable[str]) -> None:
    """Write the document `{**head, key: [...]}`, whose `key` sorts after every
    key of `head`, as `write_json` lays it out, but for the list, which holds
    one row per line: each of `rows` is a row's `dump_row` encoding, taken as
    it comes. The indented encoder is pure Python, and a row per line is
    smaller and several times faster."""
    text = json.dumps(head, indent=2, sort_keys=True)

    def chunks() -> Iterator[str]:
        # the head ends in "\n}", which the rows' key and list replace
        yield f"{text[:-2]},\n  {dump_row(key)}: ["
        separator = "\n    "
        for row in rows:
            yield separator + row
            separator = ",\n    "
        # with no row, the list closes on the key's line
        yield "]\n}\n" if separator == "\n    " else "\n  ]\n}\n"

    write_text(path, chunks())


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def json_digest(obj: Any) -> str:
    return hashlib.sha256(dump_row(obj).encode("utf-8")).hexdigest()
