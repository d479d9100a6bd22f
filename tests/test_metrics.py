"""Metric oracles and frozen hand values.

The alignment oracle enumerates every stage-respecting maximum alignment
and takes the true chunk minimum; the LCS oracle is an independent memoized
recursion, and a row DP checks the bit-parallel LCS on long inputs; the
greedy alignment is checked against a scan-every-cell reference copy;
ROUGE overlaps are recounted from scratch. Hand values below were computed
on paper from the definitions.
"""

import functools
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citepipe.metrics
from citepipe.metrics import (
    EvalReport,
    _align,
    _chunk_count,
    _greedy_longest_run,
    _lcs_length,
    _ref_index,
    evaluate_corpus,
    meteor,
    render_report_table,
    report_from_dict,
    report_to_dict,
    rouge_l,
    rouge_n,
    tokenize,
)
from citepipe.stemmer import stem

WORDS = ["the", "cat", "cats", "sat", "mat", "dog", "run", "runs", "running"]

token_lists = st.lists(st.sampled_from(WORDS), max_size=5)

WORDS_12 = [f"w{k}" for k in range(12)]

# inflection families share one stem, so stage-2 (stem-only) matches occur
FAMILIES = [
    ["walk", "walks", "walked", "walking"],
    ["jump", "jumps", "jumped", "jumping"],
    ["talk", "talks", "talked", "talking"],
    ["mark", "marks", "marked", "marking"],
]
INFLECTED = [w for family in FAMILIES for w in family] + ["the", "of", "a"]


def sized_lists(words: list[str], min_size: int, max_size: int):
    # draw the length first so long lists are as likely as short ones
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.lists(st.sampled_from(words), min_size=n, max_size=n)
    )


long_token_lists = sized_lists(INFLECTED, 17, 120)
# pairs from the first band have at most 10,000 cells and pairs from the
# second more, so the greedy is checked on small and large pairs alike
switch_bands = st.sampled_from([(17, 99), (101, 120)]).flatmap(
    lambda band: st.tuples(sized_lists(INFLECTED, *band), sized_lists(INFLECTED, *band))
)


def _positions_by_key(tokens, key, skip=()):
    grouped: dict[str, list[int]] = {}
    for idx, tok in enumerate(tokens):
        if idx in skip:
            continue
        grouped.setdefault(key(tok), []).append(idx)
    return grouped


def _class_matchings(cand_groups, ref_groups):
    """Yield every maximum matching over shared classes as a pair list."""
    keys = sorted(set(cand_groups) & set(ref_groups))
    per_key_options = []
    for k in keys:
        cps, rps = cand_groups[k], ref_groups[k]
        take = min(len(cps), len(rps))
        options = [
            tuple(zip(chosen_c, chosen_r))
            for chosen_c in combinations(cps, take)
            for chosen_r in permutations(rps, take)
        ]
        per_key_options.append(options)
    for combo in product(*per_key_options):
        yield [pair for group in combo for pair in group]


def oracle_align(cand: list[str], ref: list[str]) -> tuple[int, int]:
    """Exhaustive (matches, min chunks) under exact-then-stem staging."""
    best = None
    matches = 0
    surface_c = _positions_by_key(cand, lambda t: t)
    surface_r = _positions_by_key(ref, lambda t: t)
    for stage1 in _class_matchings(surface_c, surface_r):
        used_c = {i for i, _ in stage1}
        used_r = {j for _, j in stage1}
        stem_c = _positions_by_key(cand, stem, skip=used_c)
        stem_r = _positions_by_key(ref, stem, skip=used_r)
        for stage2 in _class_matchings(stem_c, stem_r):
            pairs = stage1 + stage2
            chunks = _chunk_count(pairs)
            if best is None or chunks < best:
                best = chunks
                matches = len(pairs)
    if best is None:
        return 0, 0
    return matches, best


def oracle_lcs(a: list[str], b: list[str]) -> int:
    @functools.lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def reference_lcs(a: list[str], b: list[str]) -> int:
    """Rolling-row LCS DP, the textbook O(n*m) recurrence."""
    prev = [0] * (len(b) + 1)
    for ai in a:
        cur = [0] * (len(b) + 1)
        for j, bj in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if ai == bj else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def reference_longest_run(cand, ref, stems_c, stems_r):
    """Longest free diagonal run per stage, ties to the earliest, scanning every cell."""
    used_c = [False] * len(cand)
    used_r = [False] * len(ref)
    pairs = []

    def compatible(stage, i, j):
        if stage == 1:
            return cand[i] == ref[j]
        return cand[i] != ref[j] and stems_c[i] == stems_r[j]

    for stage in (1, 2):
        while True:
            best_len = 0
            best = None
            for i in range(len(cand)):
                if used_c[i]:
                    continue
                for j in range(len(ref)):
                    if used_r[j] or not compatible(stage, i, j):
                        continue
                    length = 0
                    while (
                        i + length < len(cand)
                        and j + length < len(ref)
                        and not used_c[i + length]
                        and not used_r[j + length]
                        and compatible(stage, i + length, j + length)
                    ):
                        length += 1
                    if length > best_len:
                        best_len = length
                        best = (i, j)
            if best is None:
                break
            i, j = best
            for k in range(best_len):
                used_c[i + k] = True
                used_r[j + k] = True
                pairs.append((i + k, j + k))
    return pairs


def oracle_clipped_overlap(cand_grams, ref_grams) -> int:
    ref_counts = Counter(ref_grams)
    used: Counter = Counter()
    overlap = 0
    for gram in cand_grams:
        if used[gram] < ref_counts[gram]:
            used[gram] += 1
            overlap += 1
    return overlap


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("The CAT, sat!") == ["the", "cat", "sat"]

    def test_underscores_and_digits(self):
        assert tokenize("layer_norm eps=1e-5") == ["layer", "norm", "eps", "1e", "5"]

    def test_empty(self):
        assert tokenize("") == []


class TestRougeHandValues:
    CAND = "the cat sat"
    REF = "the cat sat on the mat"

    def test_rouge_1(self):
        score = rouge_n(self.CAND, self.REF, 1)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(0.5)
        assert score.f == pytest.approx(2 / 3, abs=1e-9)

    def test_rouge_2(self):
        score = rouge_n(self.CAND, self.REF, 2)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(0.4)
        assert score.f == pytest.approx(4 / 7, abs=1e-9)

    def test_rouge_l(self):
        score = rouge_l(self.CAND, self.REF)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(0.5)
        assert score.f == pytest.approx(2 / 3, abs=1e-9)

    def test_clipping_caps_repeats(self):
        # "the" appears once in the reference, so the second copy cannot count.
        score = rouge_n("the the the", "the dog", 1)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 2)

    def test_empty_candidate_scores_zero(self):
        score = rouge_n("", "the cat", 1)
        assert (score.precision, score.recall, score.f) == (0.0, 0.0, 0.0)
        assert rouge_l("", "the cat").f == 0.0

    def test_rouge_n_rejects_bad_n(self):
        with pytest.raises(ValueError):
            rouge_n("a", "a", 0)


class TestRougeProperties:
    @given(token_lists, token_lists)
    def test_overlap_matches_recount(self, cand, ref):
        for n in (1, 2):
            grams_c = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
            grams_r = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            overlap = oracle_clipped_overlap(grams_c, grams_r)
            score = rouge_n(" ".join(cand), " ".join(ref), n)
            assert score.precision == pytest.approx(overlap / max(1, len(grams_c)))
            assert score.recall == pytest.approx(overlap / max(1, len(grams_r)))

    @given(token_lists, token_lists)
    def test_lcs_matches_brute_force(self, cand, ref):
        score = rouge_l(" ".join(cand), " ".join(ref))
        lcs = oracle_lcs(cand, ref)
        assert score.precision == pytest.approx(lcs / max(1, len(cand)))
        assert score.recall == pytest.approx(lcs / max(1, len(ref)))

    @given(token_lists, token_lists)
    def test_swap_swaps_precision_and_recall(self, cand, ref):
        ab = rouge_n(" ".join(cand), " ".join(ref), 1)
        ba = rouge_n(" ".join(ref), " ".join(cand), 1)
        assert ab.precision == pytest.approx(ba.recall)
        assert ab.recall == pytest.approx(ba.precision)


class TestLcsLength:
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda k: st.tuples(sized_lists(WORDS_12[:k], 0, 200), sized_lists(WORDS_12[:k], 0, 200))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_row_dp(self, lists):
        # up to 200 reference tokens, so the match masks span several 64-bit words
        a, b = lists
        assert _lcs_length(a, b) == reference_lcs(a, b)


class TestMeteorHandValues:
    def test_identity_six_tokens(self):
        text = "the cat sat on the mat"
        score = meteor(text, text)
        assert score.precision == 1.0 and score.recall == 1.0
        assert score.f == pytest.approx(1 - 0.5 * (1 / 6) ** 3, abs=1e-9)
        assert score.f == pytest.approx(0.9976851851851852, abs=1e-9)

    def test_reordering_costs_a_chunk(self):
        score = meteor("sat the cat", "the cat sat")
        # Three forced matches in two chunks.
        assert score.f == pytest.approx(1 - 0.5 * (2 / 3) ** 3, abs=1e-9)
        assert score.f == pytest.approx(23 / 27, abs=1e-9)

    def test_duplicate_tokens_take_the_chunk_minimum(self):
        matches, chunks = _align(["a", "a", "b"], ["a", "b", "a"])
        assert (matches, chunks) == (3, 2)

    def test_exact_stage_blocks_cross_stem_shuffle(self):
        # Both words match exactly in swapped positions; the stem stage must
        # not steal them to build a prettier diagonal.
        matches, chunks = _align(["runs", "running"], ["running", "runs"])
        assert (matches, chunks) == (2, 2)
        assert meteor("runs running", "running runs").f == pytest.approx(0.5)

    def test_stem_match_counts(self):
        score = meteor("running fast", "runs fast")
        # fast matches exactly, running/runs via stems; the two pairs sit on
        # one diagonal, so they count as a single chunk.
        assert score.precision == 1.0 and score.recall == 1.0
        matches, chunks = _align(["running", "fast"], ["runs", "fast"])
        assert matches == 2 and chunks == 1
        assert score.f == pytest.approx(1 - 0.5 * (1 / 2) ** 3, abs=1e-9)

    def test_no_matches_scores_zero(self):
        assert meteor("alpha beta", "gamma delta").f == 0.0
        assert meteor("", "something").f == 0.0
        assert meteor("something", "").f == 0.0

    def test_recall_weighted_fmean(self):
        # One matched token out of two on each side: P=R=0.5, single chunk of
        # one match carries the maximum penalty.
        score = meteor("the dog", "the mat")
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)
        assert score.f == pytest.approx(0.5 * (1 - 0.5), abs=1e-9)


class TestMeteorAgainstOracle:
    @given(token_lists, token_lists)
    @settings(max_examples=200, deadline=None)
    def test_align_matches_exhaustive_search(self, cand, ref):
        got_matches, got_chunks = _align(cand, ref)
        want_matches, want_chunks = oracle_align(cand, ref)
        assert got_matches == want_matches
        assert got_chunks == want_chunks

    def test_search_out_of_nodes_keeps_the_best_alignment_found(self, monkeypatch):
        cand = "b d c d b b c b c".split()
        ref = "a b a d c c b d b".split()
        exact_ref, stem_ref = _ref_index(ref, ref)  # one-letter tokens are their own stems
        greedy_chunks = _chunk_count(_greedy_longest_run(cand, ref, cand, exact_ref, stem_ref))
        matches, min_chunks = oracle_align(cand, ref)
        assert (greedy_chunks, min_chunks) == (6, 4)
        # 10 nodes find a 5-chunk alignment but not the 4-chunk minimum
        monkeypatch.setattr(citepipe.metrics, "_EXACT_NODE_BUDGET", 10)
        got_matches, got_chunks = _align(cand, ref)
        assert got_matches == matches
        assert min_chunks < got_chunks < greedy_chunks

    def test_one_chunk_greedy_alignment_skips_the_exact_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("exact chunk search ran")

        monkeypatch.setattr(citepipe.metrics, "_exact_min_chunks", search)
        verbatim = "the cat sat on the mat".split()
        assert _align(verbatim, verbatim) == (6, 1)
        # running/runs and jumped/jumping match only by stem, on one diagonal
        assert _align(["running", "jumped"], ["runs", "jumping"]) == (2, 1)
        with pytest.raises(AssertionError, match="exact chunk search ran"):
            _align(["sat", "the", "cat"], ["the", "cat", "sat"])

    @given(token_lists, token_lists)
    def test_score_range(self, cand, ref):
        score = meteor(" ".join(cand), " ".join(ref))
        assert 0.0 <= score.f <= 1.0
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0

    @given(token_lists)
    def test_identity_beats_any_other_candidate(self, ref):
        if not ref:
            return
        text = " ".join(ref)
        assert meteor(text, text).f >= meteor(" ".join(ref[::-1]), text).f - 1e-12


class TestGreedyAlignments:
    """The heap greedy commits exactly the pairs a scan of every cell commits."""

    @staticmethod
    def _inputs(cand, ref):
        stems_c = [stem(t) for t in cand]
        stems_r = [stem(t) for t in ref]
        return stems_c, stems_r, *_ref_index(ref, stems_r)

    def test_families_share_a_stem(self):
        for family in FAMILIES:
            assert len({stem(w) for w in family}) == 1

    @given(long_token_lists, long_token_lists)
    @settings(max_examples=40, deadline=None)
    def test_longest_run_equals_scan(self, cand, ref):
        stems_c, stems_r, exact_ref, stem_ref = self._inputs(cand, ref)
        got = _greedy_longest_run(cand, ref, stems_c, exact_ref, stem_ref)
        assert got == reference_longest_run(cand, ref, stems_c, stems_r)

    @given(long_token_lists, long_token_lists)
    @settings(max_examples=40, deadline=None)
    def test_greedy_reaches_the_staged_maxima(self, cand, ref):
        stems_c, stems_r, exact_ref, stem_ref = self._inputs(cand, ref)
        pairs = _greedy_longest_run(cand, ref, stems_c, exact_ref, stem_ref)
        # the stage maxima from counts alone: per token, then per stem over
        # what stage 1 leaves
        cand_counts, ref_counts = Counter(cand), Counter(ref)
        m1 = sum((cand_counts & ref_counts).values())
        left_c, left_r = Counter(), Counter()
        for tok, count in (cand_counts - ref_counts).items():
            left_c[stem(tok)] += count
        for tok, count in (ref_counts - cand_counts).items():
            left_r[stem(tok)] += count
        m2 = sum((left_c & left_r).values())
        assert sum(cand[i] == ref[j] for i, j in pairs) == m1
        assert _align(cand, ref)[0] == len(pairs) == m1 + m2

    @given(switch_bands)
    @settings(max_examples=40, deadline=None)
    def test_align_equals_scan_on_both_sides_of_the_switch(self, lists):
        cand, ref = lists
        stems_c = [stem(t) for t in cand]
        stems_r = [stem(t) for t in ref]
        pairs = reference_longest_run(cand, ref, stems_c, stems_r)
        assert _align(cand, ref) == (len(pairs), _chunk_count(pairs))

    def test_interleaved_repeat_is_two_chunks_above_ten_thousand_cells(self):
        # 120 x 120 tokens: cand[i] == ref[i + 1] makes one chunk of 119
        # pairs, and the last "the" pairs with the first in a second
        cand = [tok for k in range(60) for tok in (f"w{k}", "the")]
        ref = [tok for k in range(60) for tok in ("the", f"w{k}")]
        assert len(cand) * len(ref) > 10_000
        assert _align(cand, ref) == (120, 2)


class TestEvaluateCorpus:
    def test_corpus_means_scaled_and_rounded(self):
        pairs = [("the cat sat", "the cat sat"), ("a b", "c d")]
        report = evaluate_corpus(pairs)
        assert report.n == 2
        per_meteor = [s["METEOR"].f for s in report.per_sample]
        expected = round(100 * sum(per_meteor) / 2, 2)
        assert report.corpus["METEOR"] == expected
        assert set(report.corpus) == {"METEOR", "Rouge-1", "Rouge-2", "Rouge-L"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_corpus([])

    def test_sample_ids_checked(self):
        with pytest.raises(ValueError):
            evaluate_corpus([("a", "a")], sample_ids=["x", "y"])

    def test_table_columns_exact(self):
        report = evaluate_corpus([("the cat", "the cat")])
        table = render_report_table(report, label="demo")
        lines = table.splitlines()
        assert lines[0].split() == ["Model", "METEOR", "Rouge-1", "Rouge-2", "Rouge-L"]
        assert lines[1].split()[0] == "demo"
        # every cell renders with two decimals
        for cell in lines[1].split()[1:]:
            assert cell.count(".") == 1 and len(cell.split(".")[1]) == 2

    def test_report_round_trip(self):
        report = evaluate_corpus(
            [("the cat sat", "the cat sat on the mat")], sample_ids=["s1:0:0"]
        )
        back = report_from_dict(report_to_dict(report))
        assert back.n == report.n
        assert back.corpus == report.corpus
        assert back.sample_ids == ["s1:0:0"]
        assert back.per_sample[0]["Rouge-2"].f == report.per_sample[0]["Rouge-2"].f
