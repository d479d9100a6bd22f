"""Triplet ingest, normalization, sample enrichment, and rendering."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citepipe.dataset import CitationSample, TargetPaper, read_dataset, sample_to_dict, write_dataset
from citepipe.jsonl import dump_row
from citepipe.kg import (
    SCIERC_RELATIONS,
    SECTIONS,
    AttachStats,
    EnrichedSample,
    KGTriplet,
    TargetTriplets,
    TripletSet,
    TripletStore,
    attach_triplets,
    enriched_from_dict,
    enriched_to_dict,
    load_triplets,
    normalize_phrase,
    pooled_triplets,
    read_enriched,
    render_triplets,
    write_enriched,
)

from conftest import write_jsonl_file


def block(paper_id, section, triplets):
    return {
        "paper_id": paper_id,
        "section": section,
        "triplets": [{"head": h, "relation": r, "tail": t} for h, r, t in triplets],
    }


def sample(sample_id="s1:0:0", source="s1", target_ids=("t1", "t2")):
    return CitationSample(
        sample_id=sample_id,
        source_paper_id=source,
        source_abstract="Source abstract.",
        targets=[TargetPaper(tid, abstract=f"Abstract {tid}.") for tid in target_ids],
        citation_text="Cited passage.",
    )


class TestNormalize:
    def test_collapses_internal_whitespace(self):
        assert normalize_phrase("  deep \t learning\nmodel ") == "deep learning model"

    def test_empty(self):
        assert normalize_phrase("   ") == ""


class TestLoadTriplets:
    def test_loads_blocks_by_paper_and_section(self, tmp_path):
        path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [
                block("t1", "abstract", [("bert", "Used-For", "ner")]),
                block("t1", "introduction", [("corpus", "Part-Of", "benchmark")]),
                block("t2", "conclusion", [("method", "Compare", "baseline")]),
            ],
        )
        store = load_triplets(path)
        assert store.stats.blocks_loaded == 3
        assert store.get("t1", "abstract").triplets == [KGTriplet("bert", "Used-For", "ner")]
        assert store.get("t1", "introduction").triplets[0].tail == "benchmark"
        assert store.get("t2", "conclusion") is not None
        assert store.get("t2", "abstract") is None
        assert "t1" in store and "t9" not in store

    def test_duplicate_blocks_merge_with_dedup(self, tmp_path):
        path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [
                block("t1", "abstract", [("a", "Used-For", "b"), ("c", "Used-For", "d")]),
                block("t1", "abstract", [("a", "Used-For", "b"), ("e", "Used-For", "f")]),
            ],
        )
        store = load_triplets(path)
        merged = store.get("t1", "abstract")
        assert [(t.head, t.tail) for t in merged.triplets] == [("a", "b"), ("c", "d"), ("e", "f")]
        assert store.stats.blocks_loaded == 1
        assert store.stats.blocks_merged == 1
        assert store.stats.duplicate_triplets == 1

    def test_whitespace_normalization_applies_before_dedup(self, tmp_path):
        path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [
                block(
                    "t1",
                    "abstract",
                    [("deep  learning", "Used-For", "nlp"), ("deep learning", "Used-For", "nlp")],
                )
            ],
        )
        store = load_triplets(path)
        tset = store.get("t1", "abstract")
        assert len(tset) == 1
        assert tset.triplets[0].head == "deep learning"
        assert store.stats.duplicate_triplets == 1

    def test_invalid_triplets_counted_and_skipped(self, tmp_path):
        path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [
                block(
                    "t1",
                    "abstract",
                    [
                        ("", "Used-For", "thing"),
                        ("thing", "", "other"),
                        ("same", "Compare", "same"),
                        ("good", "Used-For", "fine"),
                    ],
                )
            ],
        )
        store = load_triplets(path)
        assert store.stats.invalid_triplets == 3
        assert len(store.get("t1", "abstract")) == 1

    def test_triplet_entries_that_are_not_objects_are_invalid(self, tmp_path):
        row = block("t1", "abstract", [("good", "Used-For", "fine")])
        row["triplets"] += ["head relation tail", ["a", "Used-For", "b"], None]
        store = load_triplets(write_jsonl_file(tmp_path / "kg.jsonl", [row]))
        assert (store.stats.invalid_triplets, store.stats.malformed_lines) == (3, 0)
        assert [(t.head, t.tail) for t in store.get("t1", "abstract").triplets] == [("good", "fine")]

    @pytest.mark.parametrize("bad", [
        pytest.param({"head": None}, id="null-head"),
        pytest.param({"relation": 5}, id="int-relation"),
        pytest.param({"tail": True}, id="bool-tail"),
        pytest.param({"head": ["x"]}, id="list-head"),
        pytest.param({"head_type": 3}, id="int-head-type"),
        pytest.param({"tail_type": False}, id="bool-tail-type"),
        pytest.param({"head_type": {"a": 1}}, id="object-head-type"),
    ])
    def test_triplet_fields_that_are_not_strings_are_invalid(self, bad, tmp_path):
        row = block("t1", "abstract", [("good", "Used-For", "fine"), ("other", "Used-For", "thing")])
        row["triplets"][0].update(head_type=None, tail_type="Task")  # a type may be null
        row["triplets"][1].update(bad)
        store = load_triplets(write_jsonl_file(tmp_path / "kg.jsonl", [row]))
        assert (store.stats.invalid_triplets, store.stats.malformed_lines) == (1, 0)
        assert store.get("t1", "abstract").triplets == [KGTriplet("good", "Used-For", "fine", None, "Task")]

    def test_malformed_lines_counted(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        rows = [
            json.dumps(block("t1", "abstract", [("a", "Used-For", "b")])),
            "{broken",
            json.dumps({"paper_id": "t2", "section": "methods", "triplets": []}),
            json.dumps({"section": "abstract", "triplets": []}),
            json.dumps({"paper_id": "t3", "section": "abstract", "triplets": "nope"}),
            json.dumps([1, 2, 3]),
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        store = load_triplets(path)
        assert store.stats.lines_read == 6
        assert store.stats.malformed_lines == 5
        assert store.stats.blocks_loaded == 1

    def test_unknown_relations_counted_but_kept(self, tmp_path):
        path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [block("t1", "abstract", [("a", "Made-Up", "b"), ("c", "Used-For", "d")])],
        )
        store = load_triplets(path, vocabulary=SCIERC_RELATIONS)
        assert store.stats.unknown_relations == 1
        relations = [t.relation for t in store.get("t1", "abstract").triplets]
        assert relations == ["Made-Up", "Used-For"]
        # Without a vocabulary nothing is flagged.
        assert load_triplets(path).stats.unknown_relations == 0


class TestAttach:
    def test_attach_preserves_order_and_flags(self, tmp_path):
        path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [
                block("s1", "abstract", [("task", "Used-For", "study")]),
                block("t1", "abstract", [("model", "Used-For", "task")]),
                block("t1", "conclusion", [("result", "Evaluate-For", "model")]),
                block("orphan", "abstract", [("x", "Used-For", "y")]),
            ],
        )
        store = load_triplets(path)
        samples = [sample("s1:0:0"), sample("s1:0:5", target_ids=("t3", "t4"))]
        stats = AttachStats()
        enriched = list(attach_triplets(samples, store, stats))

        assert [e.sample.sample_id for e in enriched] == ["s1:0:0", "s1:0:5"]
        first = enriched[0]
        assert len(first.source_triplets) == 1
        assert first.target_triplets[0].abstract.triplets[0].head == "model"
        assert first.target_triplets[0].conclusion is not None
        assert first.target_triplets[0].introduction is None
        assert first.target_triplets[1].has_any() is False
        assert first.missing_target_triplets is False

        second = enriched[1]
        assert second.missing_target_triplets is True
        assert len(second.source_triplets) == 1

        assert stats.samples_enriched == 2
        assert stats.samples_without_target_triplets == 1
        assert stats.orphan_papers == 1

    def test_source_without_block_gets_empty_set(self):
        enriched = list(attach_triplets([sample()], TripletStore()))
        assert len(enriched[0].source_triplets) == 0
        assert enriched[0].source_triplets.paper_id == "s1"


class TestRender:
    def test_render_format(self):
        tset = TripletSet(
            "t1",
            "abstract",
            [KGTriplet("a", "Used-For", "b"), KGTriplet("c", "Part-Of", "d")],
        )
        assert render_triplets(tset) == "(a | Used-For | b); (c | Part-Of | d)"

    def test_budget_keeps_prefix(self):
        tset = TripletSet(
            "t1",
            "abstract",
            [KGTriplet(f"h{i}", "Used-For", f"t{i}") for i in range(5)],
        )
        assert render_triplets(tset, budget=2) == "(h0 | Used-For | t0); (h1 | Used-For | t1)"
        assert render_triplets(tset, budget=0) == ""
        assert render_triplets(tset, budget=99).count(";") == 4

    def test_none_and_empty_render_empty(self):
        assert render_triplets(None) == ""
        assert render_triplets(TripletSet("t1", "abstract")) == ""

    def test_pooled_dedups_across_sections(self):
        shared = KGTriplet("a", "Used-For", "b")
        target = TargetTriplets(
            "t1",
            abstract=TripletSet("t1", "abstract", [shared]),
            introduction=TripletSet("t1", "introduction", [shared, KGTriplet("c", "Compare", "d")]),
            conclusion=TripletSet("t1", "conclusion", [KGTriplet("e", "Conjunction", "f")]),
        )
        pooled = pooled_triplets(target)
        assert [(t.head, t.tail) for t in pooled.triplets] == [("a", "b"), ("c", "d"), ("e", "f")]


class TestEnrichedFiles:
    def test_round_trip(self, tmp_path):
        store_path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [
                block("s1", "abstract", [("task", "Used-For", "study")]),
                block("t2", "introduction", [("corpus", "Feature-Of", "domain")]),
            ],
        )
        store = load_triplets(store_path)
        enriched = list(attach_triplets([sample()], store))
        out = tmp_path / "enriched.jsonl"
        assert write_enriched(enriched, out) == 1
        back = read_enriched(out)
        assert len(back) == 1
        assert back[0].sample.sample_id == enriched[0].sample.sample_id
        assert back[0].source_triplets.triplets == enriched[0].source_triplets.triplets
        assert back[0].target_triplets[1].introduction.triplets[0].head == "corpus"
        assert back[0].missing_target_triplets == enriched[0].missing_target_triplets

    def test_dict_round_trip_exact(self):
        es = list(attach_triplets([sample()], TripletStore()))[0]
        again = enriched_from_dict(enriched_to_dict(es))
        assert enriched_to_dict(again) == enriched_to_dict(es)

    def test_corrupt_line_names_line_number(self, tmp_path):
        out = tmp_path / "enriched.jsonl"
        enriched = attach_triplets([sample()], TripletStore())
        write_enriched(enriched, out)
        out.write_text(out.read_text(encoding="utf-8") + "{bad\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_enriched(out)


# text that JSON must escape or pass through: quotes, backslashes, newlines,
# control characters, non-ASCII and astral characters
TEXT = st.text(st.sampled_from('ab "\\\n\r\t\x00\x1f\x7f\u2028é中😀'), max_size=6)
MAYBE_TEXT = st.none() | TEXT
TARGETS = st.builds(TargetPaper, TEXT, TEXT, TEXT, MAYBE_TEXT, MAYBE_TEXT)
TRIPLET_SETS = st.builds(
    TripletSet,
    TEXT,
    st.sampled_from(SECTIONS),
    st.lists(st.builds(KGTriplet, TEXT, TEXT, TEXT, MAYBE_TEXT, MAYBE_TEXT), max_size=3),
)


@st.composite
def enriched_rows(draw):
    """Enriched samples whose targets and blocks are drawn from shared pools,
    as equal-content copies of pool objects, or fresh."""
    papers = draw(st.lists(TARGETS, min_size=1, max_size=3))
    blocks = draw(st.lists(TRIPLET_SETS, min_size=1, max_size=3))

    def pick(pool, fresh, nullable=False):
        choices = [st.sampled_from(pool), st.sampled_from(pool).map(dataclasses.replace), fresh]
        return draw(st.one_of(choices + [st.none()] * nullable))

    rows = []
    for i in range(draw(st.integers(1, 4))):
        targets = [pick(papers, TARGETS) for _ in range(draw(st.integers(0, 3)))]
        sample = CitationSample(f"s:{i}", draw(TEXT), draw(TEXT), targets, draw(TEXT), draw(TEXT))
        per_target = [
            TargetTriplets(t.paper_id, *(pick(blocks, TRIPLET_SETS, nullable=True) for _ in range(3)))
            for t in targets
        ]
        rows.append(EnrichedSample(sample, pick(blocks, TRIPLET_SETS), per_target, draw(st.booleans())))
    return rows


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("rows")


class TestEncoding:
    @settings(max_examples=100, deadline=None)
    @given(rows=enriched_rows())
    def test_written_rows_equal_the_reference_encoding(self, scratch_dir, rows):
        out = scratch_dir
        samples = [es.sample for es in rows]
        write_dataset(samples, out / "dataset.jsonl")
        write_enriched(rows, out / "enriched.jsonl")
        assert (out / "dataset.jsonl").read_bytes() == "".join(
            dump_row(sample_to_dict(s)) + "\n" for s in samples
        ).encode("utf-8")
        assert (out / "enriched.jsonl").read_bytes() == "".join(
            dump_row(enriched_to_dict(es)) + "\n" for es in rows
        ).encode("utf-8")
        # the shared objects read back write the same bytes again
        write_dataset(read_dataset(out / "dataset.jsonl"), out / "dataset-again.jsonl")
        write_enriched(read_enriched(out / "enriched.jsonl"), out / "enriched-again.jsonl")
        assert (out / "dataset-again.jsonl").read_bytes() == (out / "dataset.jsonl").read_bytes()
        assert (out / "enriched-again.jsonl").read_bytes() == (out / "enriched.jsonl").read_bytes()

    def test_identical_blocks_come_back_as_one_object(self, tmp_path):
        store_path = write_jsonl_file(
            tmp_path / "kg.jsonl",
            [
                block("t1", "abstract", [("a", "Used-For", "b")]),
                block("t2", "abstract", [("c", "Used-For", "d")]),
            ],
        )
        samples = [sample(f"s{i}:0:0", f"s{i}") for i in range(4)]
        out = tmp_path / "enriched.jsonl"
        write_enriched(attach_triplets(samples, load_triplets(store_path)), out)
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        # hand edit: one field differs in row 2
        rows[2]["target_triplets"][0]["abstract"]["triplets"][0]["tail"] = "edited"
        out.write_text("".join(dump_row(r) + "\n" for r in rows), encoding="utf-8")

        back = read_enriched(out)
        t1_blocks = [es.target_triplets[0].abstract for es in back]
        assert t1_blocks[0] is t1_blocks[1] is t1_blocks[3] is not t1_blocks[2]
        assert t1_blocks[2].triplets[0].tail == "edited"
        t2_blocks = [es.target_triplets[1].abstract for es in back]
        assert len({id(b) for b in t2_blocks}) == 1
        assert back[0].sample.targets[0] is back[2].sample.targets[0]
        again = tmp_path / "again.jsonl"
        write_enriched(back, again)
        assert again.read_bytes() == out.read_bytes()

        # a type that is neither a string nor null is a corrupt line, not a block of its own
        rows[1]["target_triplets"][1]["abstract"]["triplets"][0]["head_type"] = True
        out.write_text("".join(dump_row(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: head_type is bool, not a string"):
            read_enriched(out)
