"""Corpus ingest: sentence splitting, record validation, streaming behavior."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citepipe.corpus import (
    IngestStats,
    ValidationError,
    corpus_files,
    sentence_split,
    stream_corpus,
    validate_record,
)

from conftest import make_record, write_jsonl_file


def one_section(**section):
    return {"paper_id": "x", "body_sections": [{"section_name": "A", **section}]}


class TestSentenceSplit:
    def test_citation_marker_starts_a_sentence(self):
        assert sentence_split("See [1]. [2] agrees.") == ["See [1].", "[2] agrees."]

    def test_uppercase_after_terminal(self):
        text = "We train a model. It works well."
        assert sentence_split(text) == ["We train a model.", "It works well."]

    def test_abbreviation_before_lowercase_stays_joined(self):
        assert sentence_split("We use U.S. data for training.") == [
            "We use U.S. data for training."
        ]
        assert sentence_split("Metrics improve, e.g. on long inputs.") == [
            "Metrics improve, e.g. on long inputs."
        ]

    def test_parenthesis_and_question_boundaries(self):
        text = "Results are strong! (See below.) Are they robust? Yes."
        # ".)" hides the terminal dot from the boundary, so the parenthetical
        # stays attached to the sentence that follows it.
        assert sentence_split(text) == [
            "Results are strong!",
            "(See below.) Are they robust?",
            "Yes.",
        ]

    def test_empty_and_whitespace(self):
        assert sentence_split("") == []
        assert sentence_split("   \n\t ") == []

    def test_single_sentence_unchanged(self):
        assert sentence_split("No boundary here") == ["No boundary here"]

    @given(
        st.text(
            alphabet=st.sampled_from(list("abz AB.!?[]() \n")),
            max_size=120,
        )
    )
    def test_split_preserves_non_whitespace_content(self, text):
        sentences = sentence_split(text)
        assert "".join("".join(s.split()) for s in sentences) == "".join(text.split())
        for sentence in sentences:
            assert sentence
            assert sentence == sentence.strip()
            assert sentence in text


class TestValidateRecord:
    def test_minimal_record(self):
        record = validate_record({"paper_id": "p1"})
        assert record.paper_id == "p1"
        assert record.title == ""
        assert record.abstract == ""
        assert record.fields_of_study == []
        assert record.body_sections == []

    def test_field_aliases(self):
        raw = {
            "source_paper_id": "p2",
            "source_abstract": "An abstract.",
            "fieldsOfStudy": ["Computer Science"],
            "body_text": [
                {
                    "section": "Intro",
                    "text": "Alpha beta [1]. Gamma [2] delta.",
                    "cite_spans": [
                        {"start": 11, "end": 14, "ref_paper_id": "q1"},
                        {"start": 22, "end": 25, "ref_paper_id": None},
                    ],
                }
            ],
        }
        text = raw["body_text"][0]["text"]
        assert text[11:14] == "[1]" and text[22:25] == "[2]"
        record = validate_record(raw)
        assert record.paper_id == "p2"
        assert record.abstract == "An abstract."
        assert record.fields_of_study == ["Computer Science"]
        section = record.body_sections[0]
        assert section.section_name == "Intro"
        assert section.sentences == ["Alpha beta [1].", "Gamma [2] delta."]

    def test_global_offsets_become_sentence_local(self):
        text = "Alpha beta [1]. Gamma [2] delta."
        raw = {
            "paper_id": "p3",
            "body_sections": [
                {
                    "section_name": "Intro",
                    "text": text,
                    "cite_spans": [
                        {"char_start": 11, "char_end": 14, "resolved_paper_id": "q1"},
                        {"char_start": 22, "char_end": 25, "resolved_paper_id": "q2"},
                    ],
                }
            ],
        }
        section = validate_record(raw).body_sections[0]
        assert section.cited == [["q1"], ["q2"]]

    def test_span_crossing_sentence_boundary_rejected(self):
        raw = {
            "paper_id": "p4",
            "body_sections": [
                {
                    "section_name": "Intro",
                    "text": "First one. Second one.",
                    "cite_spans": [{"char_start": 6, "char_end": 14}],
                }
            ],
        }
        with pytest.raises(ValidationError) as err:
            validate_record(raw)
        assert err.value.field_name == "cite_spans"

    @pytest.mark.parametrize(
        "raw, field_name",
        [
            ({}, "paper_id"),
            ({"paper_id": ""}, "paper_id"),
            ({"paper_id": "x", "abstract": 7}, "abstract"),
            ({"paper_id": "x", "fields_of_study": "CS"}, "fields_of_study"),
            ({"paper_id": "x", "body_sections": {}}, "body_sections"),
            ({"paper_id": "x", "body_sections": [{"section_name": "A"}]}, "body_sections"),
            (
                {
                    "paper_id": "x",
                    "body_sections": [
                        {
                            "section_name": "A",
                            "sentences": ["Short."],
                            "cite_spans": [{"sentence_index": 5, "char_start": 0, "char_end": 2}],
                        }
                    ],
                },
                "cite_spans",
            ),
            (
                {
                    "paper_id": "x",
                    "body_sections": [
                        {
                            "section_name": "A",
                            "sentences": ["Short."],
                            "cite_spans": [{"sentence_index": 0, "char_start": 0, "char_end": 99}],
                        }
                    ],
                },
                "cite_spans",
            ),
        ],
    )
    def test_errors_name_the_field(self, raw, field_name):
        with pytest.raises(ValidationError) as err:
            validate_record(raw)
        assert err.value.field_name == field_name

    @pytest.mark.parametrize(
        "raw, message",
        [
            (["not", "an", "object"], "record: expected a JSON object"),
            ({"paper_id": "x", "body_sections": ["A"]}, "body_sections: each section must be an object"),
            (one_section(sentences="Short."), "sentences: expected a list of strings"),
            (one_section(sentences=["Short.", 3]), "sentences: expected a list of strings"),
            (
                one_section(
                    sentences=["Short."], cite_spans=[{"sentence_index": 0, "char_start": "0", "char_end": 2}]
                ),
                "cite_spans: span offsets must be integers",
            ),
            (
                one_section(text="Short [1].", cite_spans=[{"start": 6, "end": 9, "ref_paper_id": 12}]),
                "cite_spans: resolved_paper_id must be a string or null",
            ),
            (one_section(text=["Short."]), "text: expected a string"),
            (
                one_section(text="Short [1].", cite_spans=[{"char_start": 6, "char_end": 11}]),
                "cite_spans: span (6, 11) out of range for section text",
            ),
            (
                one_section(text="  Short [1].", cite_spans=[{"char_start": 0, "char_end": 1}]),
                "cite_spans: span (0, 1) falls before the first sentence",
            ),
            (one_section(sentences=["Short."], cite_spans=5), "cite_spans: expected a list of objects"),
            (one_section(text="Short [1].", cite_spans=None), "cite_spans: expected a list of objects"),
            (one_section(text="Short [1].", cite_spans=["oops"]), "cite_spans: expected a list of objects"),
            (one_section(sentences=["Short."], cite_spans=[None]), "cite_spans: expected a list of objects"),
        ],
    )
    def test_each_schema_violation_has_its_own_message(self, raw, message):
        with pytest.raises(ValidationError) as err:
            validate_record(raw)
        assert str(err.value) == message


def old_sentence_target_ids(spans, sentence_index):
    """The regroup extraction did over (sentence_index, char_start, char_end,
    resolved_paper_id) spans before sections carried `cited`."""
    matching = [s for s in spans if s[0] == sentence_index]
    matching.sort(key=lambda s: s[1])
    return [s[3] for s in matching]


# sentences that `sentence_split` keeps apart when joined by one space
cite_sentences = st.lists(st.integers(1, 5).map(lambda n: "A" + "b" * n + "."), min_size=1, max_size=4)


@st.composite
def sentences_and_spans(draw):
    sentences = draw(cite_sentences)
    spans = draw(st.lists(
        st.integers(0, len(sentences) - 1).flatmap(lambda i: st.tuples(
            st.just(i),
            st.integers(0, len(sentences[i]) - 1),
            st.sampled_from(["p1", "p2", "p3", None]),
        )),
        max_size=8,
    ))
    return sentences, [(i, start, start + 1, resolved) for i, start, resolved in spans]


class TestCitedIds:
    @given(sentences_and_spans())
    def test_cited_is_the_old_regroup_in_both_section_forms(self, drawn):
        sentences, spans = drawn
        expected = [old_sentence_target_ids(spans, i) for i in range(len(sentences))]
        split = one_section(sentences=sentences, cite_spans=[
            {"sentence_index": i, "char_start": start, "char_end": end, "resolved_paper_id": resolved}
            for i, start, end, resolved in spans
        ])
        text = " ".join(sentences)
        assert sentence_split(text) == sentences
        offsets = [sum(len(s) + 1 for s in sentences[:i]) for i in range(len(sentences))]
        raw = one_section(text=text, cite_spans=[
            {"char_start": offsets[i] + start, "char_end": offsets[i] + end, "resolved_paper_id": resolved}
            for i, start, end, resolved in spans
        ])
        for record in (split, raw):
            assert validate_record(record).body_sections[0].cited == expected


class TestStreamCorpus:
    def test_counts_and_skips(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = make_record("p1", abstract="A.")
        dup = make_record("p1", abstract="Duplicate.")
        off_topic = make_record("p2", abstract="B.", fields=("Biology",))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(good) + "\n")
            fh.write("{broken json\n")
            fh.write(json.dumps({"title": "no id"}) + "\n")
            fh.write(json.dumps(dup) + "\n")
            fh.write(json.dumps(off_topic) + "\n")
            fh.write("\n")
        stats = IngestStats()
        records = list(stream_corpus(path, stats=stats))
        assert [r.paper_id for r in records] == ["p1"]
        assert stats.lines_read == 5
        assert stats.parse_errors == 1
        assert stats.validation_errors == 1
        assert stats.duplicate_ids == 1
        assert stats.filtered_out == 1
        assert stats.records_yielded == 1
        assert stats.skipped == 3

    def test_shards_in_lexicographic_order(self, tmp_path):
        write_jsonl_file(tmp_path / "b.jsonl", [make_record("from_b")])
        write_jsonl_file(tmp_path / "a.jsonl", [make_record("from_a")])
        (tmp_path / "notes.txt").write_text("ignored", encoding="utf-8")
        assert [p.name for p in corpus_files(tmp_path)] == ["a.jsonl", "b.jsonl"]
        ids = [r.paper_id for r in stream_corpus(tmp_path)]
        assert ids == ["from_a", "from_b"]

    def test_duplicate_detection_spans_shards(self, tmp_path):
        write_jsonl_file(tmp_path / "a.jsonl", [make_record("p1")])
        write_jsonl_file(tmp_path / "b.jsonl", [make_record("p1"), make_record("p2")])
        stats = IngestStats()
        ids = [r.paper_id for r in stream_corpus(tmp_path, stats=stats)]
        assert ids == ["p1", "p2"]
        assert stats.duplicate_ids == 1
        assert stats.files_read == 2

    def test_custom_filter(self, tmp_path):
        path = write_jsonl_file(
            tmp_path / "c.jsonl",
            [make_record("p1", fields=("Biology",)), make_record("p2")],
        )
        ids = [
            r.paper_id
            for r in stream_corpus(path, {"Biology"})
        ]
        assert ids == ["p1"]

    def test_two_passes_identical(self, hand_corpus):
        first = [r.paper_id for r in stream_corpus(hand_corpus)]
        second = [r.paper_id for r in stream_corpus(hand_corpus)]
        assert first == second and first

    def test_missing_path_is_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(stream_corpus(tmp_path / "nope.jsonl"))
        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        with pytest.raises(FileNotFoundError):
            list(stream_corpus(empty_dir))

    def test_streaming_memory_stays_bounded(self, tmp_path):
        path = tmp_path / "big.jsonl"
        filler = "x" * 900
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(2000):
                fh.write(json.dumps(make_record(f"p{i}", abstract=filler)) + "\n")
        file_size = path.stat().st_size
        assert file_size > 1_500_000

        tracemalloc.start()
        count = 0
        for _ in stream_corpus(path):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 2000
        # Peak must track one record plus the seen-id set, not the file.
        assert peak < file_size / 2
