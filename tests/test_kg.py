"""Triplet ingest, normalization, sample enrichment, and rendering."""

import copy
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citepipe import dataset, kg
from citepipe.dataset import (
    SCHEMA_VERSION,
    CitationSample,
    TargetPaper,
    iter_dataset,
    read_dataset,
    sample_from_dict,
    write_dataset,
)
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
    iter_enriched,
    load_triplets,
    normalize_phrase,
    pooled_triplets,
    read_enriched,
    render_triplets,
    write_enriched,
)

from conftest import inline_enriched_row, inline_sample_row, write_jsonl_file


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
        with pytest.raises(ValueError, match="triplet budget must not be negative: -1"):
            render_triplets(tset, budget=-1)

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
        again = enriched_from_dict(inline_enriched_row(es))
        assert again == es
        assert inline_enriched_row(again) == inline_enriched_row(es)

    @pytest.mark.parametrize(
        "misplace, message",
        [
            (lambda es, one, two: es._replace(
                target_triplets=[one._replace(abstract=TripletSet("t2", "abstract")), two]),
             r"the block of \('t2', 'abstract'\) is at \('t1', 'abstract'\)"),
            (lambda es, one, two: es._replace(
                target_triplets=[one, two._replace(introduction=TripletSet("t2", "conclusion"))]),
             r"the block of \('t2', 'conclusion'\) is at \('t2', 'introduction'\)"),
            (lambda es, one, two: es._replace(source_triplets=TripletSet("t1", "abstract")),
             r"the block of \('t1', 'abstract'\) is at \('s1', 'abstract'\)"),
            (lambda es, one, two: es._replace(target_triplets=[one]),
             "target_triplets do not name its targets in order"),
            (lambda es, one, two: es._replace(target_triplets=[two, one]),
             "target_triplets do not name its targets in order"),
        ],
        ids=["another-paper", "another-section", "source", "fewer-entries", "swapped-entries"],
    )
    def test_a_block_away_from_its_place_is_refused_and_nothing_is_written(self, tmp_path, misplace, message):
        # kg-merge takes each block from the store by its place; a block
        # placed elsewhere would read back under its place's key
        rows = list(attach_triplets([sample("s1:0:0"), sample("s1:0:1")], TripletStore()))
        rows[1] = misplace(rows[1], *rows[1].target_triplets)
        out = tmp_path / "enriched.jsonl"
        with pytest.raises(ValueError, match=f"^sample 's1:0:1': {message}$"):
            write_enriched(rows, out)
        assert list(tmp_path.iterdir()) == []

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
TRIPLETS = st.lists(st.builds(KGTriplet, TEXT, TEXT, TEXT, MAYBE_TEXT, MAYBE_TEXT), max_size=3)


@st.composite
def enriched_rows(draw):
    """Enriched samples whose targets are drawn from a shared pool, and each
    block from a pool of its place, as pool objects, equal-content copies of
    them, or fresh, and whose source ids and abstracts come from small pools,
    so a source repeats with the same abstract or another."""
    papers = draw(st.lists(TARGETS, min_size=1, max_size=3))
    sources = draw(st.lists(TEXT, min_size=1, max_size=2))
    abstracts = draw(st.lists(TEXT, min_size=1, max_size=2))
    blocks: dict = {}  # by place, the block first drawn there

    def pick(pool, fresh, nullable=False):
        choices = [st.sampled_from(pool), st.sampled_from(pool).map(copy.copy), fresh]
        return draw(st.one_of(choices + [st.none()] * nullable))

    def block_at(paper_id, section, nullable=False):
        fresh = st.builds(TripletSet, st.just(paper_id), st.just(section), TRIPLETS)
        return pick(blocks.setdefault((paper_id, section), [draw(fresh)]), fresh, nullable)

    rows = []
    for i in range(draw(st.integers(1, 4))):
        targets = [pick(papers, TARGETS) for _ in range(draw(st.integers(0, 3)))]
        source, abstract = draw(st.sampled_from(sources)), draw(st.sampled_from(abstracts))
        sample = CitationSample(f"s:{i}", source, abstract, targets, draw(TEXT), draw(TEXT))
        per_target = [
            TargetTriplets(t.paper_id, *(block_at(t.paper_id, s, nullable=True) for s in SECTIONS)) for t in targets
        ]
        # the flag attach_triplets sets, which the reader checks
        missing = not any(tt.has_any() for tt in per_target)
        rows.append(EnrichedSample(sample, block_at(source, "abstract"), per_target, missing))
    return rows


def written_sample_row(sample: CitationSample) -> dict:
    """What `write_dataset` writes for `sample` alone: its all-inline row at
    today's schema version, with a target's null section left out."""
    row = {**inline_sample_row(sample), "schema_version": SCHEMA_VERSION}
    row["targets"] = [{k: v for k, v in t.items() if v is not None} for t in row["targets"]]
    return row


def reference_enriched_rows(rows: list[EnrichedSample]) -> list[dict]:
    """What `write_enriched` writes for `rows`: each all-inline row, with its
    sample as `written_sample_row` writes it, but for a target that equals the
    last full entry of its paper_id, which is its bare id, a source abstract
    equal to the last one of its source_paper_id, which is left out, a null
    triplet type, which is left out, and a block's paper_id and section, which
    its place in the row gives."""
    last_target, last_source = {}, {}
    expected = []
    for es in rows:
        row = {**inline_enriched_row(es), "sample": written_sample_row(es.sample)}
        sample = row["sample"]
        if last_source.get(sample["source_paper_id"]) == sample["source_abstract"]:
            del sample["source_abstract"]
        else:
            last_source[sample["source_paper_id"]] = sample["source_abstract"]
        targets = sample["targets"]
        for i, target in enumerate(targets):
            if last_target.get(target["paper_id"]) == target:
                targets[i] = target["paper_id"]
            last_target[target["paper_id"]] = target
        blocks = [row["source_triplets"], *(tt[s] for tt in row["target_triplets"] for s in SECTIONS)]
        for block in filter(None, blocks):
            block["triplets"] = [{k: v for k, v in t.items() if v is not None} for t in block["triplets"]]
            del block["paper_id"], block["section"]
        expected.append(row)
    return expected


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
        write_dataset(samples, out / "part.jsonl", referencing=True)
        write_enriched(rows, out / "enriched.jsonl")
        assert (out / "dataset.jsonl").read_bytes() == "".join(
            dump_row(written_sample_row(s)) + "\n" for s in samples
        ).encode("utf-8")
        expected = reference_enriched_rows(rows)
        assert (out / "enriched.jsonl").read_bytes() == "".join(
            dump_row(row) + "\n" for row in expected
        ).encode("utf-8")
        # a split part is the sample of each enriched row
        assert (out / "part.jsonl").read_bytes() == "".join(
            dump_row(row["sample"]) + "\n" for row in expected
        ).encode("utf-8")
        # every written file reads to the samples of its all-inline form
        inline, inline_enriched = out / "inline.jsonl", out / "inline-enriched.jsonl"
        inline.write_text("".join(dump_row(inline_sample_row(s)) + "\n" for s in samples), encoding="utf-8")
        inline_enriched.write_text("".join(dump_row(inline_enriched_row(es)) + "\n" for es in rows), encoding="utf-8")
        assert read_enriched(out / "enriched.jsonl") == read_enriched(inline_enriched) == rows
        assert read_dataset(out / "part.jsonl") == read_dataset(out / "dataset.jsonl") == read_dataset(inline) == samples
        # the shared objects read back write the same bytes again
        write_dataset(read_dataset(out / "dataset.jsonl"), out / "dataset-again.jsonl")
        write_dataset(read_dataset(out / "part.jsonl"), out / "part-again.jsonl", referencing=True)
        write_enriched(read_enriched(out / "enriched.jsonl"), out / "enriched-again.jsonl")
        assert (out / "dataset-again.jsonl").read_bytes() == (out / "dataset.jsonl").read_bytes()
        assert (out / "part-again.jsonl").read_bytes() == (out / "part.jsonl").read_bytes()
        assert (out / "enriched-again.jsonl").read_bytes() == (out / "enriched.jsonl").read_bytes()

    def test_equal_copies_are_encoded_once_per_run_of_a_key(self, tmp_path):
        one, edited = TargetPaper("t1", abstract="One."), TargetPaper("t1", abstract="One, edited.")
        two = TargetPaper("t2", abstract="Two.")
        a = one, TripletSet("t1", "abstract", [KGTriplet("a", "Used-For", "b")])
        b = edited, TripletSet("t1", "abstract", [KGTriplet("a", "Used-For", "c", "Task")])
        source_block = TripletSet("s", "abstract", [KGTriplet("x", "Compare", "y")])
        two_block = TripletSet("t2", "conclusion", [KGTriplet("d", "Part-Of", "e")])
        rows = []
        # t1 and its abstract block run A, A, B, A, A; every object is a distinct copy
        for i, (target, target_block) in enumerate([a, a, b, a, a]):
            cited = CitationSample(f"s:{i}", "s", "Source.", [target, two], "Cited.")
            per_target = [TargetTriplets("t1", target_block), TargetTriplets("t2", conclusion=two_block)]
            rows.append(copy.deepcopy(EnrichedSample(cited, source_block, per_target)))
        samples = [es.sample for es in rows]
        expected = reference_enriched_rows(rows)
        with (
            mock.patch.object(kg, "_tset_to_dict", wraps=kg._tset_to_dict) as tsets,
            mock.patch.object(dataset, "_target_to_dict", wraps=dataset._target_to_dict) as targets,
        ):
            write_dataset(samples, tmp_path / "dataset.jsonl")
            assert [c.args[0].abstract for c in targets.call_args_list] == ["One.", "Two.", "One, edited.", "One."]
            targets.reset_mock()
            write_enriched(rows, tmp_path / "enriched.jsonl")
        assert [c.args[0].abstract for c in targets.call_args_list] == ["One.", "Two.", "One, edited.", "One."]
        # the first row's blocks, targets' before the source's, then t1's B and A
        assert [(c.args[0].paper_id, c.args[0].triplets[0].tail) for c in tsets.call_args_list] == [
            ("t1", "b"), ("t2", "e"), ("s", "y"), ("t1", "c"), ("t1", "b"),
        ]
        assert (tmp_path / "dataset.jsonl").read_bytes() == "".join(
            dump_row(written_sample_row(s)) + "\n" for s in samples
        ).encode("utf-8")
        assert (tmp_path / "enriched.jsonl").read_bytes() == "".join(
            dump_row(row) + "\n" for row in expected
        ).encode("utf-8")

    def test_a_paper_is_written_in_full_again_when_its_fields_change(self, tmp_path):
        first, edited = TargetPaper("t1", abstract="One."), TargetPaper("t1", abstract="One, edited.")
        other = TargetPaper("t2", abstract="Two.")
        samples = [
            CitationSample(f"s:{i}", "s", "Source.", [target, other], "Cited.")
            for i, target in enumerate([first, first._replace(), edited, first, first])
        ]
        out = tmp_path / "enriched.jsonl"
        write_enriched(attach_triplets(samples, TripletStore()), out)
        written = [
            [t if isinstance(t, str) else t["abstract"] for t in json.loads(line)["sample"]["targets"]]
            for line in out.read_text(encoding="utf-8").splitlines()
        ]
        assert written == [
            ["One.", "Two."], ["t1", "t2"], ["One, edited.", "t2"], ["One.", "t2"], ["t1", "t2"],
        ]
        back = [es.sample for es in read_enriched(out)]
        assert back == samples
        # a bare id is the last full entry; a full entry equal to an earlier
        # one, after a different one, is a new, equal object
        assert back[0].targets[0] is back[1].targets[0]
        assert back[3].targets[0] is back[4].targets[0]
        assert back[3].targets[0] == back[0].targets[0] and back[3].targets[0] is not back[0].targets[0]

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
        assert t1_blocks[0] is t1_blocks[1] is not t1_blocks[2]
        assert t1_blocks[3] == t1_blocks[0] and t1_blocks[3] is not t1_blocks[0]
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


# Raw rows for the last-entry rule: every entry written in full, drawn from
# pools of at most two targets, sources and blocks, so entries of one key
# repeat, alternate and revert. A pool entry may hold one field of another
# JSON type; 1 == 1.0 == True in Python, and null or an absent field is valid
# for some fields and not for others. Each entry of target_triplets names the
# sample's target at its position, and a block leaves out its paper_id and
# section or names its place's, but now and then another.
ABSENT = object()
HOSTILE = st.sampled_from([1, 1.0, True, None, ["a"], {"a": "a"}, ABSENT])
LETTER = st.sampled_from(["a", "b"])
OPTIONAL = st.sampled_from(["a", None, ABSENT])  # an explicit null beside an absent field


@st.composite
def raw_entry(draw, **fields):
    entry = {name: draw(values) for name, values in fields.items()}
    if draw(st.booleans()):
        entry[draw(st.sampled_from(sorted(fields)))] = draw(HOSTILE)
    return {name: value for name, value in entry.items() if value is not ABSENT}


RAW_TARGETS = raw_entry(
    paper_id=st.sampled_from(["t1", "t2"]), title=LETTER, abstract=LETTER, introduction=OPTIONAL, conclusion=OPTIONAL
)
RAW_TRIPLETS = raw_entry(head=LETTER, relation=LETTER, tail=LETTER, head_type=OPTIONAL, tail_type=OPTIONAL)
PLACE = object()  # a block's paper_id or section that names its place
RAW_BLOCKS = raw_entry(
    paper_id=st.sampled_from([PLACE, ABSENT] * 5 + ["t2"]),
    section=st.sampled_from([PLACE, ABSENT] * 5 + ["introduction"]),
    triplets=st.lists(RAW_TRIPLETS, max_size=2),
)
RAW_SOURCES = raw_entry(source_paper_id=st.sampled_from(["s1", "s2"]), source_abstract=LETTER)


@st.composite
def raw_rows(draw):
    targets = draw(st.lists(RAW_TARGETS, min_size=1, max_size=2))
    blocks = draw(st.lists(st.none() | RAW_BLOCKS, min_size=1, max_size=2))
    sources = draw(st.lists(RAW_SOURCES, min_size=1, max_size=2))

    def block_at(paper_id, section):
        block, place = draw(st.sampled_from(blocks)), {"paper_id": paper_id, "section": section}
        if block is None:
            return None
        return {name: place[name] if value is PLACE else value for name, value in block.items()}

    rows = []
    for i in range(draw(st.integers(1, 6))):
        # a row holds its source abstract, so it stands alone
        source = {"source_abstract": "a", **draw(st.sampled_from(sources))}
        sample = {"sample_id": f"s:{i}", "citation_text": "c", **source, "targets": []}
        per_target = []
        for _ in range(draw(st.integers(0, 3))):
            target = draw(st.sampled_from(targets))
            sample["targets"].append(target)
            paper_id = draw(st.sampled_from([target.get("paper_id")] * 9 + ["t2"]))
            per_target.append({"paper_id": paper_id, **{s: block_at(paper_id, s) for s in SECTIONS}})
        rows.append((sample, {
            "sample": sample,
            "source_triplets": block_at(source.get("source_paper_id"), "abstract"),
            "target_triplets": per_target,
            "missing_target_triplets": False,
        }))
    return rows


def read_each(rows, path, parse):
    """What reading each row alone, with a fresh table, gives: the samples
    before the first failing row, and that row's error as a file read names it."""
    read = []
    for lineno, row in enumerate(rows, start=1):
        try:
            read.append(parse(row))
        except (ValueError, KeyError, TypeError) as exc:
            return read, f"{path}: line {lineno}: {exc}"
    return read, None


def read_file(path, rows_of):
    read = []
    try:
        read.extend(rows_of(path))
    except ValueError as exc:
        return read, str(exc)
    return read, None


@settings(max_examples=300, deadline=None)
@given(rows=raw_rows())
def test_a_file_reads_as_its_rows_read_alone(scratch_dir, rows):
    for rows_of, parse, index in ((iter_dataset, sample_from_dict, 0), (iter_enriched, enriched_from_dict, 1)):
        path = scratch_dir / "raw.jsonl"
        path.write_text("".join(dump_row(row[index]) + "\n" for row in rows), encoding="utf-8")
        assert read_file(path, rows_of) == read_each([row[index] for row in rows], path, parse)
