"""Canonical JSONL encoding and digest helpers."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citepipe
from citepipe.jsonl import (
    dump_row,
    file_digest,
    is_type,
    iter_jsonl,
    json_digest,
    read_jsonl,
    row_fields,
    write_json,
    write_json_rows,
    write_jsonl,
    write_text,
)


def test_dump_row_is_canonical():
    row = {"b": 2, "a": 1}
    assert dump_row(row) == '{"a": 1, "b": 2}'
    assert dump_row({"a": 1, "b": 2}) == dump_row(row)


def test_dump_row_keeps_unicode():
    assert dump_row({"t": "naïve"}) == '{"t": "naïve"}'


def test_iter_jsonl_line_numbers_skip_blanks(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 2}\n   \n{"a": 3}\n', encoding="utf-8")
    rows = list(iter_jsonl(path))
    assert [lineno for lineno, _ in rows] == [1, 3, 5]
    assert [json.loads(line)["a"] for _, line in rows] == [1, 2, 3]


def test_write_jsonl_round_trip(tmp_path):
    path = tmp_path / "out.jsonl"
    rows = [{"k": i} for i in range(5)]
    assert write_jsonl(path, rows) == 5
    back = [json.loads(line) for _, line in iter_jsonl(path)]
    assert back == rows


def test_write_text_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a much longer previous content\n", encoding="utf-8")
    write_text(path, ["short", "\n"])
    assert path.read_text(encoding="utf-8") == "short\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_interrupted_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"k": 1}, {"k": 2}])
    before = path.read_bytes()

    def rows():
        yield {"k": 3}
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_jsonl(path, rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


KILLED_WRITE = """\
import os, signal, sys
from citepipe.jsonl import write_text

def chunks():
    yield "partial\\n"
    os.kill(os.getpid(), signal.SIGKILL)

write_text(sys.argv[1], chunks())
"""


def test_a_killed_write_leaves_no_temp_file_after_the_next_write(tmp_path):
    # SIGKILL runs no cleanup, so the killed writes leave their temp files
    path = tmp_path / "out[1].jsonl"  # a name glob would misread
    path.write_text("previous\n", encoding="utf-8")
    longer = tmp_path / ".out[1].jsonl.run.json.0123abcd.tmp"  # another target's temp file
    longer.write_text("", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(citepipe.__file__).parents[1])}
    for _ in range(2):
        killed = subprocess.run([sys.executable, "-c", KILLED_WRITE, str(path)], env=env, timeout=60)
        assert killed.returncode == -signal.SIGKILL
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert len(list(tmp_path.iterdir())) > 2
    write_text(path, ["new\n"])
    assert path.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [longer.name, path.name]


def test_write_json_is_indented_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": [1], "a": "é"})
    assert path.read_text(encoding="utf-8") == '{\n  "a": "\\u00e9",\n  "b": [\n    1\n  ]\n}\n'


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@given(json_values)
@settings(deadline=None)
def test_write_json_streams_the_bytes_of_an_indented_dump(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "streamed.json"
    write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_write_json_rows_indents_the_head_and_writes_a_row_per_line(tmp_path):
    path = tmp_path / "out.json"
    # the rows come encoded, and may come from a generator
    write_json_rows(path, {"n": 2, "label": "é"}, "rows", map(dump_row, [{"b": 1, "a": "é"}, {"a": [2]}]))
    assert path.read_text(encoding="utf-8") == (
        '{\n  "label": "\\u00e9",\n  "n": 2,\n  "rows": [\n    {"a": "é", "b": 1},\n    {"a": [2]}\n  ]\n}\n'
    )
    write_json_rows(path, {"n": 0}, "rows", iter([]))
    assert path.read_text(encoding="utf-8") == '{\n  "n": 0,\n  "rows": []\n}\n'


finite_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)


@given(st.dictionaries(st.text("ab", min_size=1), finite_values, min_size=1), st.lists(finite_values))
@settings(deadline=None)
def test_write_json_rows_parses_to_what_write_json_writes(tmp_path_factory, head, rows):
    obj = {**head, "per_sample": rows}
    path = tmp_path_factory.getbasetemp() / "rows.json"
    write_json_rows(path, head, "per_sample", map(dump_row, rows))
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == obj
    lines = text.split("\n")  # not splitlines: a row may hold U+2028 or U+0085 raw
    assert lines[-len(rows) - 3 : -3] == ["    " + dump_row(row) + "," * (i < len(rows) - 1) for i, row in enumerate(rows)]


def test_read_jsonl_names_the_bad_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 2}\n{"b": 3}\n', encoding="utf-8")
    assert read_jsonl(path) == [{"a": 1}, {"a": 2}, {"b": 3}]
    with pytest.raises(ValueError, match=r"rows.jsonl: line 4: 'a'"):
        read_jsonl(path, lambda row: row["a"])
    path.write_text('{"a": 1}\n{oops\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_jsonl(path)


def test_is_type_is_exact():
    assert is_type(1, int) and not is_type(True, int) and not is_type(1.0, int)
    assert is_type(True, bool) and not is_type(1, bool)
    assert not is_type(None, str) and is_type(None, (str, None)) and is_type("", (str, None))
    assert not is_type(0, (str, None)) and not is_type(False, (int, None))


SPEC = {"a": str, "n": int, "note": (str, None)}


def test_row_fields_returns_the_fields_in_spec_order():
    assert row_fields({"note": None, "n": 2, "a": "x", "extra": []}, SPEC) == ["x", 2, None]
    assert row_fields({"a": "x", "n": 2}, SPEC, {"note": "default"}) == ["x", 2, "default"]


@pytest.mark.parametrize(("row", "message"), [
    ({"a": 1, "n": 2, "note": None}, "a is int, not a string"),
    ({"a": None, "n": 2, "note": None}, "a is null, not a string"),
    ({"a": "x", "n": True, "note": None}, "n is bool, not an integer"),
    ({"a": "x", "n": 2, "note": ["y"]}, "note is list, not a string"),
    ({"a": "x", "n": 2}, "note is missing"),
    (["x", 2, None], "expected an object, got list"),
    (None, "expected an object, got null"),
])
def test_row_fields_names_the_first_bad_field(row, message):
    with pytest.raises(ValueError) as err:
        row_fields(row, SPEC)
    assert str(err.value) == message


def test_file_digest_tracks_content(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("same", encoding="utf-8")
    b.write_text("same", encoding="utf-8")
    assert file_digest(a) == file_digest(b)
    b.write_text("different", encoding="utf-8")
    assert file_digest(a) != file_digest(b)


def test_json_digest_ignores_key_order():
    assert json_digest({"x": 1, "y": [2, 3]}) == json_digest({"y": [2, 3], "x": 1})
    assert json_digest({"x": 1}) != json_digest({"x": 2})
