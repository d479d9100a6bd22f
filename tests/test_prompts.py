"""Prompt composition, budget enforcement, and the truncation ladder.

The ladder tests walk budgets downward empirically: each render's token
estimate minus one becomes the next budget, which must trigger exactly the
next rung. Golden prompt texts are frozen as full literals. The ladder's
running-total arithmetic is checked against a reference copy that composes
the prompt at every step and binary-searches each trim.
"""

import copy
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citepipe import prompts
from citepipe.dataset import CitationSample, TargetPaper
from citepipe.kg import EnrichedSample, KGTriplet, TargetTriplets, TripletSet
from citepipe.prompts import (
    BASELINE_TEMPLATE,
    KG_TEMPLATE,
    PREAMBLE,
    RESPONSE_MARKER,
    SOURCE_ABSTRACT_FLOOR_TOKENS,
    BudgetExhausted,
    TokenBudget,
    Truncation,
    default_estimator,
    emit_finetune_file,
    read_prompt_file,
    render_baseline,
    render_kg,
    triplet_renderer,
)

BIG = TokenBudget(max_tokens=100_000, reserve_for_response=0)


def tiny_sample() -> CitationSample:
    return CitationSample(
        sample_id="p1:0:0",
        source_paper_id="p1",
        source_abstract="Source abstract.",
        targets=[
            TargetPaper("t1", abstract="First target."),
            TargetPaper("t2", abstract="Second target."),
        ],
        citation_text="Cited passage [1] [2].",
    )


def tiny_enriched() -> EnrichedSample:
    sample = tiny_sample()
    return EnrichedSample(
        sample=sample,
        source_triplets=TripletSet("p1", "abstract", [KGTriplet("model", "used-for", "task")]),
        target_triplets=[
            TargetTriplets(
                "t1",
                abstract=TripletSet(
                    "t1",
                    "abstract",
                    [KGTriplet("a", "part-of", "b"), KGTriplet("c", "feature-of", "d")],
                ),
                conclusion=TripletSet("t1", "conclusion", [KGTriplet("e", "hyponym-of", "f")]),
            ),
            TargetTriplets("t2"),
        ],
    )


GOLDEN_BASELINE = (
    "Below is an instruction that describes a task, paired with an input that "
    "provides further context. Write a response that appropriately completes the request."
    "\n\n### Instruction:\n"
    "Write the passage of a research paper that cites all of the target papers, "
    "staying consistent with the source paper's abstract. Cover every target paper's "
    "contribution in the passage."
    "\n\n### Input:\n"
    "Source abstract: Source abstract."
    "\n\nTarget paper 1 abstract: First target."
    "\n\nTarget paper 2 abstract: Second target."
    "\n\n### Response:\n"
)

GOLDEN_KG = GOLDEN_BASELINE.replace(
    "Source abstract: Source abstract.",
    "Source abstract: Source abstract."
    "\n\nSource abstract relations: (model | used-for | task)",
).replace(
    "Target paper 1 abstract: First target.",
    "Target paper 1 abstract: First target."
    "\n\nTarget paper 1 abstract relations: (a | part-of | b); (c | feature-of | d)"
    "\n\nTarget paper 1 introduction relations:"
    "\n\nTarget paper 1 conclusion relations: (e | hyponym-of | f)",
).replace(
    "Target paper 2 abstract: Second target.",
    "Target paper 2 abstract: Second target."
    "\n\nTarget paper 2 abstract relations:"
    "\n\nTarget paper 2 introduction relations:"
    "\n\nTarget paper 2 conclusion relations:",
)


class TestEstimator:
    @pytest.mark.parametrize(
        ("text", "want"),
        [("", 0), ("a", 1), ("abcd", 1), ("abcde", 2), ("x" * 8, 2), ("x" * 9, 3)],
    )
    def test_ceiling_of_quarters(self, text, want):
        assert default_estimator(text) == want

    @given(st.text(max_size=200), st.integers(min_value=0, max_value=200))
    def test_prefix_never_costs_more(self, text, cut):
        assert default_estimator(text[:cut]) <= default_estimator(text)


class TestTokenBudget:
    def test_usable(self):
        assert TokenBudget(2048, 256).usable == 1792

    @pytest.mark.parametrize(
        ("max_tokens", "reserve"), [(0, 0), (100, 100), (100, 101), (100, -1)]
    )
    def test_validation(self, max_tokens, reserve):
        with pytest.raises(ValueError):
            TokenBudget(max_tokens, reserve)


class TestGoldenPrompts:
    def test_baseline_text(self):
        instance = render_baseline(tiny_sample(), BIG)
        assert instance.text == GOLDEN_BASELINE
        assert instance.template_name == "instruct-baseline"
        assert instance.sample_id == "p1:0:0"
        assert instance.gold_response == "Cited passage [1] [2]."
        assert instance.truncations == []
        assert instance.token_estimate == default_estimator(GOLDEN_BASELINE)

    def test_kg_text(self):
        instance = render_kg(tiny_enriched(), BIG)
        assert instance.text == GOLDEN_KG
        assert instance.template_name == "instruct-kg"

    def test_templates_share_one_instruction(self):
        assert BASELINE_TEMPLATE.instruction == KG_TEMPLATE.instruction

    def test_marker_closes_the_prompt(self):
        text = render_baseline(tiny_sample(), BIG).text
        assert text.endswith("### Response:\n")
        assert text.count("### Response:") == 1

    def test_block_order_interleaves_relations(self):
        text = render_kg(tiny_enriched(), BIG).text
        landmarks = [
            "Source abstract:",
            "Source abstract relations:",
            "Target paper 1 abstract:",
            "Target paper 1 abstract relations:",
            "Target paper 1 introduction relations:",
            "Target paper 1 conclusion relations:",
            "Target paper 2 abstract:",
        ]
        positions = [text.index(mark) for mark in landmarks]
        assert positions == sorted(positions)

    def test_zeroed_kg_prompt_equals_baseline(self):
        enriched = tiny_enriched()
        kg_text = render_kg(
            enriched, BIG, triplet_budget=0, include_empty_kg_headers=False
        ).text
        assert kg_text == render_baseline(enriched.sample, BIG).text

    def test_triplet_budget_keeps_the_first_k(self):
        text = render_kg(tiny_enriched(), BIG, triplet_budget=1).text
        assert "(a | part-of | b)" in text
        assert "(c | feature-of | d)" not in text

    def test_pooled_relations_collapse_sections(self):
        text = render_kg(tiny_enriched(), BIG, pooled=True).text
        assert "Target paper 1 relations: (a | part-of | b); (c | feature-of | d); (e | hyponym-of | f)" in text
        assert "abstract relations" not in text.replace("Source abstract relations", "")
        assert "Target paper 1 introduction relations:" not in text

    def test_optional_body_text_sections(self):
        sample = tiny_sample()
        sample.targets[0].introduction = "Intro text."
        sample.targets[0].conclusion = "Concl text."
        off = render_baseline(sample, BIG).text
        assert "Target paper 1 introduction:" not in off
        on = render_baseline(
            sample, BIG, include_introductions=True, include_conclusions=True
        ).text
        assert "Target paper 1 introduction: Intro text." in on
        assert "Target paper 1 conclusion: Concl text." in on


def ladder_enriched() -> EnrichedSample:
    def rels(paper, section, n, stem):
        return TripletSet(
            paper,
            section,
            [KGTriplet(f"{stem}-head-{i}", "used-for", f"{stem}-tail-{i}") for i in range(n)],
        )

    sample = CitationSample(
        sample_id="lad:0:0",
        source_paper_id="lad",
        source_abstract="source words " * 120,
        targets=[
            TargetPaper(
                "t1",
                abstract="target abstract words " * 18,
                introduction="target introduction words " * 8,
                conclusion="target conclusion words " * 8,
            )
        ],
        citation_text="gold",
    )
    return EnrichedSample(
        sample=sample,
        source_triplets=rels("lad", "abstract", 2, "src"),
        target_triplets=[
            TargetTriplets(
                "t1",
                abstract=rels("t1", "abstract", 3, "abs"),
                introduction=rels("t1", "introduction", 2, "intro"),
                conclusion=rels("t1", "conclusion", 2, "concl"),
            )
        ],
    )


def render_at(usable: int):
    return render_kg(
        ladder_enriched(),
        TokenBudget(max_tokens=usable, reserve_for_response=0),
        include_introductions=True,
        include_conclusions=True,
    )


class TestTruncationLadder:
    def test_rungs_fire_in_order(self):
        full = render_at(100_000)
        assert full.truncations == []

        expected_rungs = [
            ("target_kg_conclusion[1]", "Target paper 1 conclusion relations:"),
            ("target_kg_introduction[1]", "Target paper 1 introduction relations:"),
            ("target_conclusion[1]", "Target paper 1 conclusion:"),
            ("target_introduction[1]", "Target paper 1 introduction:"),
        ]
        estimate = full.token_estimate
        seen_slots: list[str] = []
        for slot, landmark in expected_rungs:
            instance = render_at(estimate - 1)
            seen_slots.append(slot)
            assert [t.slot for t in instance.truncations] == seen_slots
            assert landmark not in instance.text
            assert instance.token_estimate <= estimate - 1
            estimate = instance.token_estimate

        # next squeeze tail-trims the remaining target abstract
        instance = render_at(estimate - 1)
        assert [t.slot for t in instance.truncations] == seen_slots + ["target_abstract[1]"]
        trimmed = instance.truncations[-1]
        assert 0 < trimmed.kept_len < trimmed.original_len
        assert "Target paper 1 abstract: target abstract words" in instance.text

    def test_source_abstract_is_the_last_resort(self):
        # walk budgets down one token at a time until the source gets cut
        instance = render_at(100_000)
        while "source_abstract" not in [t.slot for t in instance.truncations]:
            instance = render_at(instance.token_estimate - 1)
        slots = [t.slot for t in instance.truncations]
        assert slots[-2:] == ["target_abstract[1]", "source_abstract"]
        source_cut = instance.truncations[-1]
        # the floor: about 200 estimated tokens of source abstract survive
        assert default_estimator("x" * source_cut.kept_len) >= 200
        assert "Source abstract: source words" in instance.text

    def test_impossible_budget_raises_with_the_sample_id(self):
        with pytest.raises(BudgetExhausted, match="lad:0:0") as err:
            render_at(150)
        assert err.value.sample_id == "lad:0:0"

    def test_first_block_drop_that_fits_ends_the_rung(self):
        full = render_kg(tiny_enriched(), BIG)
        squeezed = render_kg(
            tiny_enriched(),
            TokenBudget(max_tokens=full.token_estimate - 1, reserve_for_response=0),
        )
        # rung 1 cuts target 1's conclusion relations and refits; target 2's
        # empty conclusion header never needs to go
        assert [t.slot for t in squeezed.truncations] == ["target_kg_conclusion[1]"]
        assert squeezed.truncations[0].kept_len == 0
        assert "Target paper 1 conclusion relations:" not in squeezed.text
        assert "Target paper 2 conclusion relations:" in squeezed.text

    def test_header_only_blocks_drop_silently(self):
        bare = EnrichedSample(
            sample=tiny_sample(),
            source_triplets=TripletSet("p1", "abstract"),
            target_triplets=[TargetTriplets("t1"), TargetTriplets("t2")],
        )
        full = render_kg(bare, BIG)
        squeezed = render_kg(
            bare, TokenBudget(max_tokens=full.token_estimate - 1, reserve_for_response=0)
        )
        # dropping an empty header frees tokens but records no truncation
        assert squeezed.truncations == []
        assert "Target paper 1 conclusion relations:" not in squeezed.text
        assert "Target paper 2 conclusion relations:" in squeezed.text

    def test_render_does_not_mutate_the_sample(self):
        enriched = ladder_enriched()
        before = enriched.sample.targets[0].abstract
        render_kg(
            enriched,
            TokenBudget(max_tokens=400, reserve_for_response=0),
            include_introductions=True,
            include_conclusions=True,
        )
        assert enriched.sample.targets[0].abstract == before


class TestLongestFirstTrim:
    def make(self, len_a: int, len_b: int) -> CitationSample:
        return CitationSample(
            sample_id="s:0:0",
            source_paper_id="s",
            source_abstract="short source.",
            targets=[
                TargetPaper("a", abstract="a" * len_a),
                TargetPaper("b", abstract="b" * len_b),
            ],
            citation_text="gold",
        )

    def test_only_the_longest_is_cut_first(self):
        full = render_baseline(self.make(800, 200), BIG)
        squeezed = render_baseline(
            self.make(800, 200),
            TokenBudget(max_tokens=full.token_estimate - 10, reserve_for_response=0),
        )
        assert [t.slot for t in squeezed.truncations] == ["target_abstract[1]"]
        assert "Target paper 2 abstract: " + "b" * 200 in squeezed.text

    def test_second_target_cut_once_the_first_is_empty(self):
        instance = render_baseline(self.make(800, 200), BIG)
        while len(instance.truncations) < 2:
            instance = render_baseline(
                self.make(800, 200),
                TokenBudget(max_tokens=instance.token_estimate - 1, reserve_for_response=0),
            )
        slots = [t.slot for t in instance.truncations]
        assert slots == ["target_abstract[1]", "target_abstract[2]"]
        assert instance.truncations[0].kept_len == 0


def reference_compose(instruction, blocks):
    parts = []
    for b in blocks:
        if b.dropped:
            continue
        if b.content:
            parts.append(f"{b.label} {b.content}")
        elif b.header_when_empty:
            parts.append(b.label)
    body = "\n\n".join(parts)
    return (
        f"{PREAMBLE}\n\n### Instruction:\n{instruction}\n\n### Input:\n{body}"
        f"\n\n{RESPONSE_MARKER}\n"
    )


def reference_chars_for_tokens(text, tokens):
    lo, hi, best = 0, len(text), 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if default_estimator(text[:mid]) <= tokens:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def reference_fit(instruction, blocks, budget, sample_id):
    """The ladder as first written: recompose after every step, binary-search every trim."""
    truncations = []

    def fits():
        return default_estimator(reference_compose(instruction, blocks)) <= budget.usable

    def shrink_to_fit(block, floor_chars):
        original = block.content
        lo, hi, best = floor_chars, len(original), None
        while lo <= hi:
            mid = (lo + hi) // 2
            block.content = original[:mid]
            if fits():
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        kept = best if best is not None else floor_chars
        block.content = original[:kept]
        if kept < len(original):
            truncations.append(Truncation(block.slot, len(original), kept))
        return best is not None

    if fits():
        return reference_compose(instruction, blocks), truncations
    for rung in (1, 2, 3, 4):
        for block in blocks:
            if block.rung != rung or block.dropped:
                continue
            block.dropped = True
            if block.content:
                truncations.append(Truncation(block.slot, len(block.content), 0))
            if fits():
                return reference_compose(instruction, blocks), truncations
    while True:
        candidates = [b for b in blocks if b.rung == 5 and not b.dropped and b.content]
        if not candidates:
            break
        longest = max(candidates, key=lambda b: len(b.content))
        if shrink_to_fit(longest, 0):
            return reference_compose(instruction, blocks), truncations
    for block in blocks:
        if block.rung == 6 and not block.dropped and block.content:
            floor_chars = min(
                len(block.content),
                reference_chars_for_tokens(block.content, SOURCE_ABSTRACT_FLOOR_TOKENS),
            )
            if shrink_to_fit(block, floor_chars):
                return reference_compose(instruction, blocks), truncations
    raise BudgetExhausted(sample_id, budget.max_tokens)


def outcome(call):
    """The result of `call()`, or the BudgetExhausted message it raised."""
    try:
        return call()
    except BudgetExhausted as exc:
        return str(exc)


WORDS = "lorem ipsum dolor sit amet consectetur adipiscing elit " * 40
texts = st.integers(min_value=0, max_value=1400).map(lambda n: WORDS[:n])
triplet_sets = st.none() | st.integers(min_value=0, max_value=4).map(
    lambda n: TripletSet("p", "abstract", [KGTriplet(f"head {i}", "used-for", f"tail {i}") for i in range(n)])
)


@st.composite
def enriched_samples(draw):
    targets, per_target = [], []
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        targets.append(
            TargetPaper(
                f"t{k}",
                abstract=draw(texts),
                introduction=draw(st.none() | texts),
                conclusion=draw(st.none() | texts),
            )
        )
        per_target.append(TargetTriplets(f"t{k}", draw(triplet_sets), draw(triplet_sets), draw(triplet_sets)))
    # often longer than the floor, so the source-abstract trim is reached
    source = draw(texts | st.integers(min_value=700, max_value=1400).map(lambda n: WORDS[:n]))
    sample = CitationSample("s:0:0", "s", source, targets, "gold")
    return EnrichedSample(sample, draw(triplet_sets) or TripletSet("s", "abstract"), per_target)


blocks_lists = st.lists(
    st.builds(
        prompts._Block,
        slot=st.sampled_from(["a", "b", "c"]),
        label=st.text(alphabet="Lab:", max_size=12),
        content=texts,
        rung=st.integers(min_value=0, max_value=6),
        header_when_empty=st.booleans(),
    ),
    max_size=8,
)


class TestFitMatchesReference:
    @given(
        enriched=enriched_samples(),
        percent=st.integers(min_value=25, max_value=100),
        triplet_budget=st.none() | st.integers(min_value=0, max_value=3),
        headers=st.booleans(),
        pooled=st.booleans(),
        introductions=st.booleans(),
        conclusions=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_render_kg(
        self, enriched, percent, triplet_budget, headers, pooled, introductions, conclusions
    ):
        options = (triplet_budget, headers, pooled, introductions, conclusions)
        # a share of what the uncut prompt needs, so every rung is within reach
        budget = TokenBudget(render_kg(enriched, BIG, *options).token_estimate * percent // 100 + 1, 0)

        def render():
            return render_kg(enriched, budget, *options)

        got = outcome(render)
        with mock.patch.object(prompts, "_fit", reference_fit):
            assert got == outcome(render)

    @given(
        instruction=texts,
        blocks=blocks_lists,
        max_tokens=st.integers(min_value=1, max_value=1400),
    )
    @example(  # room for the frame alone: a block fits only as no part at all
        instruction="x" * (-len(reference_compose("", [])) % 4),
        blocks=[prompts._Block("a", "L:", "abc", rung=5, header_when_empty=False)],
        max_tokens=(len(reference_compose("", [])) + 3) // 4,
    )
    @settings(max_examples=300, deadline=None)
    def test_any_blocks(self, instruction, blocks, max_tokens):
        budget = TokenBudget(max_tokens, 0)
        twin = copy.deepcopy(blocks)
        assert outcome(lambda: prompts._fit(instruction, blocks, budget, "x")) == outcome(
            lambda: reference_fit(instruction, twin, budget, "x")
        )


class TestTripletRenderer:
    def test_each_shared_block_renders_once(self):
        shared = tiny_enriched()
        samples = [shared, copy.copy(shared), tiny_enriched()]
        with mock.patch.object(prompts, "render_triplets", wraps=prompts.render_triplets) as spy:
            blocks = triplet_renderer(1)
            got = [render_kg(es, BIG, 1, render_block=blocks) for es in samples]
        # three blocks and None, then the second distinct sample's three blocks
        assert spy.call_count == 7
        assert got == [render_kg(es, BIG, 1) for es in samples]


class TestBudgetSafety:
    @given(
        source=st.text(alphabet="abcde ", max_size=1200),
        abstracts=st.lists(st.text(alphabet="vwxyz ", min_size=1, max_size=1200), min_size=1, max_size=3),
        max_tokens=st.integers(min_value=150, max_value=1200),
        reserve=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_estimate_never_exceeds_the_budget(self, source, abstracts, max_tokens, reserve):
        sample = CitationSample(
            sample_id="f:0:0",
            source_paper_id="f",
            source_abstract=source,
            targets=[TargetPaper(f"t{i}", abstract=a) for i, a in enumerate(abstracts)],
            citation_text="gold",
        )
        budget = TokenBudget(max_tokens, min(reserve, max_tokens - 1))
        try:
            instance = render_baseline(sample, budget)
        except BudgetExhausted:
            return
        assert instance.token_estimate <= budget.usable
        assert instance.token_estimate == default_estimator(instance.text)


class TestPromptFiles:
    def test_round_trip_with_responses(self, tmp_path):
        instances = [
            render_baseline(tiny_sample(), BIG),
            render_kg(tiny_enriched(), BIG),
        ]
        out = tmp_path / "prompts.jsonl"
        counts = emit_finetune_file(instances, out)
        assert counts == {
            "prompts": 2,
            "templates": ["instruct-baseline", "instruct-kg"],
            "truncated": 0,
            "with_responses": True,
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prompts.jsonl"]
        rows = read_prompt_file(out)
        assert [r["sample_id"] for r in rows] == ["p1:0:0", "p1:0:0"]
        assert rows[0]["prompt"] == GOLDEN_BASELINE
        assert rows[0]["response"] == "Cited passage [1] [2]."
        # multi-line prompts stay one record per line
        assert len(out.read_text().splitlines()) == 2

    def test_one_shot_generator_counts_like_a_list(self, tmp_path):
        def instances():
            return [render_baseline(tiny_sample(), BIG), render_kg(tiny_enriched(), TokenBudget(211, 0))]

        from_list = emit_finetune_file(instances(), tmp_path / "list.jsonl")
        from_stream = emit_finetune_file((i for i in instances()), tmp_path / "stream.jsonl")
        assert from_stream == from_list
        assert from_list["truncated"] == 1
        assert (tmp_path / "stream.jsonl").read_bytes() == (tmp_path / "list.jsonl").read_bytes()

    def test_without_responses(self, tmp_path):
        out = tmp_path / "prompts.jsonl"
        manifest = emit_finetune_file([render_baseline(tiny_sample(), BIG)], out, include_response=False)
        assert manifest["with_responses"] is False
        assert "response" not in read_prompt_file(out)[0]

    def test_missing_gold_response_rejected(self, tmp_path):
        instance = render_baseline(tiny_sample(), BIG)
        instance.gold_response = None
        with pytest.raises(ValueError, match="p1:0:0"):
            emit_finetune_file([instance], tmp_path / "prompts.jsonl")

    def test_failed_rewrite_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "prompts.jsonl"
        emit_finetune_file([render_baseline(tiny_sample(), BIG), render_kg(tiny_enriched(), BIG)], out)
        before = out.read_bytes()
        broken = render_kg(tiny_enriched(), BIG)
        broken.gold_response = None
        with pytest.raises(ValueError, match="no gold response"):
            emit_finetune_file([render_baseline(tiny_sample(), BIG), broken], out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["prompts.jsonl"]

    def test_corrupt_line_is_located(self, tmp_path):
        bad = tmp_path / "prompts.jsonl"
        bad.write_text('{"sample_id": "a", "prompt": "p"}\n{oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_prompt_file(bad)
