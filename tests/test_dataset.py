"""Sample extraction, seeded splitting, statistics, and dataset files."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citepipe.corpus import validate_record
from citepipe.dataset import (
    CitationSample,
    ExtractStats,
    SplitSpec,
    TargetPaper,
    build_lookup,
    compute_stats,
    extract_samples,
    read_dataset,
    sample_from_dict,
    split_dataset,
    split_sizes,
    write_dataset,
)
from citepipe.jsonl import dump_row

from conftest import INTRO_SENTENCES, RELATED_SENTENCES, hand_corpus_records, inline_sample_row, make_record, make_section


@pytest.fixture
def hand_records():
    return [validate_record(raw) for raw in hand_corpus_records()]


@pytest.fixture
def hand_samples(hand_records):
    lookup = build_lookup(hand_records)
    stats = ExtractStats()
    samples = extract_samples(hand_records, lookup, stats=stats)
    return samples, stats


class TestExtraction:
    def test_exact_samples(self, hand_samples):
        samples, _ = hand_samples
        assert [s.sample_id for s in samples] == ["s1:0:1", "s1:0:4", "s1:1:2"]

    def test_seed_extends_over_adjacent_subset_sentence(self, hand_samples):
        samples, _ = hand_samples
        first = samples[0]
        assert first.citation_text == INTRO_SENTENCES[1] + " " + INTRO_SENTENCES[2]
        assert [t.paper_id for t in first.targets] == ["t1", "t2"]
        assert first.section_name == "Introduction"

    def test_consumed_sentence_never_reseeds(self, hand_samples):
        samples, _ = hand_samples
        # Sentence 2 cites two resolvable papers and would qualify on its
        # own, but it was absorbed into the previous passage.
        assert "s1:0:2" not in {s.sample_id for s in samples}

    def test_targets_capped_at_three_in_citation_order(self, hand_samples):
        samples, _ = hand_samples
        trimmed = samples[1]
        assert trimmed.sample_id == "s1:0:4"
        assert [t.paper_id for t in trimmed.targets] == ["t4", "t5", "t1"]
        assert trimmed.citation_text == INTRO_SENTENCES[4]

    def test_unresolved_citations_are_dropped_not_fatal(self, hand_samples):
        samples, _ = hand_samples
        last = samples[2]
        assert last.sample_id == "s1:1:2"
        assert [t.paper_id for t in last.targets] == ["t1", "t2"]
        assert last.citation_text == RELATED_SENTENCES[2]
        assert last.section_name == "Related Work"

    def test_extraction_tallies(self, hand_samples):
        _, stats = hand_samples
        assert stats.sentences_scanned == 10
        assert stats.samples_emitted == 3
        assert stats.unresolved_citations == 1
        assert stats.missing_abstract == 1
        assert stats.self_citations == 1
        assert stats.targets_trimmed == 1
        assert stats.sources_without_abstract == 1
        assert stats.trimmed_by_source_cap == 0

    def test_targets_carry_section_text_from_lookup(self, hand_samples):
        samples, _ = hand_samples
        t1 = samples[0].targets[0]
        assert t1.paper_id == "t1"
        assert t1.introduction == "Target one intro."
        assert t1.conclusion == "Target one concludes."
        t2 = samples[0].targets[1]
        assert t2.introduction is None and t2.conclusion is None

    def test_max_per_source_cap(self, hand_records):
        lookup = build_lookup(hand_records)
        stats = ExtractStats()
        samples = extract_samples(hand_records, lookup, max_per_source=1, stats=stats)
        assert [s.sample_id for s in samples] == ["s1:0:1"]
        assert stats.trimmed_by_source_cap == 2

    @staticmethod
    def extract_section(sentences, citations):
        """Samples of one section of source `s`, whose citations resolve to `a`, `b` or `c`."""
        raw = [
            make_record("s", abstract="Source.", sections=[make_section("Intro", sentences, citations)]),
            *(make_record(pid, abstract=f"Abstract {pid}.") for pid in "abc"),
        ]
        records = [validate_record(r) for r in raw]
        return extract_samples(records, build_lookup(records))

    def test_passage_extends_to_the_left(self):
        sentences = ["Early work [1] set the stage.", "Later [1] and [2] went further.", "Filler."]
        samples = self.extract_section(sentences, [(0, "[1]", "a"), (1, "[1]", "a"), (1, "[2]", "b")])
        assert [(s.sample_id, s.citation_text) for s in samples] == [("s:0:1", " ".join(sentences[:2]))]

    def test_consumed_sentence_never_joins_a_later_passage(self):
        sentences = ["First [1] and [2] agree.", "Then [1] again.", "Finally [1] and [3] differ."]
        citations = [(0, "[1]", "a"), (0, "[2]", "b"), (1, "[1]", "a"), (2, "[1]", "a"), (2, "[3]", "c")]
        samples = self.extract_section(sentences, citations)
        # sentence 1 cites only `a`, a target of both passages, but the first took it
        assert [(s.sample_id, s.citation_text) for s in samples] == [
            ("s:0:0", " ".join(sentences[:2])),
            ("s:0:2", sentences[2]),
        ]
        assert [t.paper_id for t in samples[1].targets] == ["a", "c"]

    def test_a_paper_cited_twice_is_one_target(self):
        sentences = ["See [1] and [2]; see also p. 4.", "Filler.", "Only [1], and again p. 9."]
        citations = [(0, "[1]", "a"), (0, "[2]", "b"), (0, "p. 4", "a"), (2, "[1]", "a"), (2, "p. 9", "a")]
        samples = self.extract_section(sentences, citations)
        # sentence 2 has two citation spans but one distinct paper
        assert [(s.sample_id, s.citation_text) for s in samples] == [("s:0:0", sentences[0])]
        assert [t.paper_id for t in samples[0].targets] == ["a", "b"]

    def test_source_without_abstract_yields_nothing(self, hand_records):
        lookup = build_lookup(hand_records)
        bare = [r for r in hand_records if r.paper_id == "t_noabs"]
        stats = ExtractStats()
        assert extract_samples(bare, lookup, stats=stats) == []
        assert stats.sources_without_abstract == 1


class TestSplit:
    def test_reference_sizes(self):
        assert split_sizes(17210, SplitSpec()) == (13779, 1716, 1715)

    def test_sizes_tiny(self):
        assert sum(split_sizes(1, SplitSpec())) == 1
        assert sum(split_sizes(2, SplitSpec())) == 2

    @given(st.integers(min_value=0, max_value=100_000))
    def test_sizes_partition_and_track_fractions(self, n):
        spec = SplitSpec()
        sizes = split_sizes(n, spec)
        assert sum(sizes) == n
        for size, frac in zip(sizes, (0.8006, 0.0997, 0.0997)):
            assert size >= int(n * frac)
            assert size <= int(n * frac) + 3

    def _samples(self, n):
        return [
            CitationSample(
                sample_id=f"p{i}:0:0",
                source_paper_id=f"p{i}",
                source_abstract="a",
                targets=[],
                citation_text="c",
            )
            for i in range(n)
        ]

    def test_split_is_deterministic_partition(self):
        samples = self._samples(100)
        spec = SplitSpec(seed=7)
        first = split_dataset(samples, spec)
        second = split_dataset(samples, spec)
        for part_a, part_b in zip(first, second):
            assert [s.sample_id for s in part_a] == [s.sample_id for s in part_b]
        ids = [s.sample_id for part in first for s in part]
        assert sorted(ids) == sorted(s.sample_id for s in samples)
        assert len(first[0]) + len(first[1]) + len(first[2]) == 100

    def test_seed_changes_membership(self):
        samples = self._samples(200)
        a = split_dataset(samples, SplitSpec(seed=0))
        b = split_dataset(samples, SplitSpec(seed=1))
        assert [s.sample_id for s in a[0]] != [s.sample_id for s in b[0]]

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.5, val_fraction=0.2, test_fraction=0.2)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=-0.5, val_fraction=0.75, test_fraction=0.75)


class TestStats:
    def test_hand_values(self):
        samples = [
            CitationSample(
                sample_id="a:0:0",
                source_paper_id="a",
                source_abstract="ssss",
                targets=[
                    TargetPaper("x", abstract="ab"),
                    TargetPaper("y", abstract="abcd"),
                ],
                citation_text="aaaa",
            ),
            CitationSample(
                sample_id="a:0:5",
                source_paper_id="a",
                source_abstract="ssss",
                targets=[
                    TargetPaper("x", abstract="ab"),
                    TargetPaper("y", abstract="abcd"),
                    TargetPaper("z", abstract="abcdef"),
                ],
                citation_text="aa",
            ),
        ]
        stats = compute_stats(samples)
        assert stats.n_samples == 2
        assert stats.n_unique_source_papers == 1
        assert stats.citation_chars_avg == 3.0
        assert stats.citation_chars_max == 4
        assert stats.source_abstract_chars_avg == 4.0
        assert stats.source_abstract_chars_max == 4
        assert stats.target_abstract_chars_avg == pytest.approx((2 + 4 + 2 + 4 + 6) / 5)
        assert stats.target_abstract_chars_max == 6
        assert stats.avg_targets_per_sample == 2.5
        assert stats.empty is False

    def test_empty(self):
        assert compute_stats([]).empty is True


class TestDatasetFiles:
    def test_round_trip(self, hand_samples, tmp_path):
        samples, _ = hand_samples
        path = tmp_path / "dataset.jsonl"
        manifest = write_dataset(samples, path)
        assert manifest["samples"] == len(samples)
        back = read_dataset(path)
        assert [s.sample_id for s in back] == [s.sample_id for s in samples]
        assert back[1].targets[0].paper_id == samples[1].targets[0].paper_id
        assert back[0].citation_text == samples[0].citation_text

    def test_rewrite_is_byte_identical(self, hand_samples, tmp_path):
        samples, _ = hand_samples
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        first = path.read_bytes()
        write_dataset(samples, path)
        assert path.read_bytes() == first

    def test_failed_rewrite_keeps_the_previous_file(self, hand_samples, tmp_path):
        samples, _ = hand_samples
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        before = path.read_bytes()
        bad = [samples[0], samples[1]._replace(targets=None)]
        with pytest.raises(TypeError):
            write_dataset(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]

    def test_identical_targets_come_back_as_one_object(self, tmp_path):
        first = TargetPaper("t1", "Title", "Abstract.", None, "Done.")
        second = TargetPaper("t2", abstract="Other.")
        samples = [
            CitationSample(f"s:0:{i}", "s", "Source.", [first._replace(), second], "Cited.")
            for i in range(5)
        ]
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        # hand edits: one field differs in row 2, and row 3 has an empty
        # introduction where the others have none
        rows[2]["targets"][0]["conclusion"] = "Edited."
        rows[3]["targets"][0]["introduction"] = ""
        path.write_text("".join(dump_row(r) + "\n" for r in rows), encoding="utf-8")

        back = read_dataset(path)
        firsts = [s.targets[0] for s in back]
        # an entry equal to the last full entry of its paper is that object;
        # one equal to an earlier entry, after a different one, is a new object
        assert firsts[0] is firsts[1]
        assert firsts[4] == firsts[0] and firsts[4] is not firsts[0]
        assert len({id(t) for t in firsts}) == 4
        assert firsts[3].introduction == ""
        assert len({id(s.targets[1]) for s in back}) == 1
        assert firsts[2].conclusion == "Edited."
        again = tmp_path / "again.jsonl"
        write_dataset(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_a_target_given_by_its_id_is_the_last_full_entry_of_that_paper(self, tmp_path):
        first, edited = TargetPaper("t1", abstract="One."), TargetPaper("t1", abstract="One, edited.")
        rows = [
            inline_sample_row(CitationSample(f"s:0:{i}", "s", "Source.", [target], "Cited."))
            for i, target in enumerate([first, edited, first])
        ]
        papers = {}
        read = [sample_from_dict(row, papers) for row in rows[:2]]
        rows[2]["targets"] = ["t1"]
        assert sample_from_dict(rows[2], papers).targets == [edited]
        assert sample_from_dict(rows[2], papers).targets[0] is read[1].targets[0]
        with pytest.raises(ValueError, match="target 't1' is a bare id with no earlier full entry"):
            sample_from_dict(rows[2])
        # a dataset file takes the same rule, naming the line of the id it cannot resolve
        rows[0]["targets"] = ["t1"]
        path = tmp_path / "dataset.jsonl"
        path.write_text("".join(dump_row(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: target 't1' is a bare id"):
            read_dataset(path)

    def test_target_field_holding_a_list_names_its_line(self, hand_samples, tmp_path):
        samples, _ = hand_samples
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[1]["targets"][0]["abstract"] = ["not", "text"]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(path)

    @pytest.mark.parametrize(("field", "value"), [
        ("title", 1), ("title", True), ("abstract", None), ("paper_id", 2.0), ("conclusion", 0),
        ("abstract", ["not", "text"]), ("title", {"a": 1}), ("paper_id", ["t1"]),
    ])
    def test_target_field_that_is_not_text_names_its_line(self, field, value, hand_samples, tmp_path):
        samples, _ = hand_samples
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[1]["targets"][0][field] = value
        path.write_text("".join(dump_row(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 2: {field} is .*, not a string"):
            read_dataset(path)

    def test_corrupt_line_names_line_number(self, hand_samples, tmp_path):
        samples, _ = hand_samples
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"sample_id": "broken"'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(path)
