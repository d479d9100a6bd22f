"""Reference-based text metrics: ROUGE-1/2, ROUGE-L, and METEOR.

All metrics share one tokenizer (lowercase, split on runs of
non-alphanumeric characters) and take text or its token list. ROUGE-N uses
clipped n-gram overlap, ROUGE-L the bit-parallel LCS length, and METEOR a
two-stage unigram alignment: exact matches first, then stem matches on the
leftovers, maximizing the match count and, among maximum alignments,
minimizing the number of contiguous chunks. Every pair is first aligned by
one deterministic greedy that repeatedly commits the longest remaining
diagonal run. Its match count is always the maximum: within a stage the
compatible pairs fall into classes (one per token, then one per stem) in
which every pair is compatible, so the greedy, which stops only when no
free compatible pair is left, cannot be cut short. Pairs of at most 16
tokens a side then get an exact branch-and-bound search for the chunk
minimum, seeded with the greedy's alignment; if it runs out of nodes, the
best alignment it found so far stands.

`evaluate_corpus` encodes each sample's report row, its four scores and its
id, as one `dump_row` line as soon as the pair is scored. A report holds those
lines and the corpus means, not a score object per metric, and decodes its
per-sample scores only when they are asked for.
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
from collections import Counter
from typing import NamedTuple

from .jsonl import dump_row
from .stemmer import stem

# exact chunk search limits: above the token limit the longest-run greedy's
# alignment stands, past the node budget the best one the search found
_EXACT_MAX_TOKENS = 16
_EXACT_NODE_BUDGET = 300_000

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; no empty tokens."""
    return _TOKEN_RE.findall(text.lower())


def _tokens(text: str | list[str]) -> list[str]:
    return tokenize(text) if isinstance(text, str) else text


class MetricScore(NamedTuple):
    precision: float
    recall: float
    f: float


def _harmonic(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _ngrams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def rouge_n(candidate: str | list[str], reference: str | list[str], n: int) -> MetricScore:
    """Clipped n-gram overlap; each reference n-gram matches at most its own count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _ngrams(_tokens(candidate), n)
    ref = _ngrams(_tokens(reference), n)
    cand_counts = Counter(cand)
    ref_counts = Counter(ref)
    overlap = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
    precision = overlap / max(1, len(cand))
    recall = overlap / max(1, len(ref))
    return MetricScore(precision, recall, _harmonic(precision, recall))


def _lcs_length(a: list[str], b: list[str]) -> int:
    """LCS length by the bit-parallel row recurrence (Allison & Dix 1986; Hyyrö 2004).

    Bit j of `row` is 0 exactly where the DP row over `b` steps up at j, so
    the LCS length is the number of zero bits once every token of `a` has
    been folded in with one add/or/and step.
    """
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    row = full
    for tok in a:
        match = row & masks.get(tok, 0)
        row = ((row + match) | (row - match)) & full
    return len(b) - row.bit_count()


def rouge_l(candidate: str | list[str], reference: str | list[str]) -> MetricScore:
    cand = _tokens(candidate)
    ref = _tokens(reference)
    lcs = _lcs_length(cand, ref)
    precision = lcs / max(1, len(cand))
    recall = lcs / max(1, len(ref))
    return MetricScore(precision, recall, _harmonic(precision, recall))


# METEOR alignment.
#
# A pair (i, j) is stage-1 compatible when cand[i] == ref[j] and stage-2
# compatible when the tokens differ but their stems agree. Stage 1 must
# reach its maximum cardinality before stage 2 fills in. The greedy reaches
# both maxima (see the module docstring), so the search only decides which
# positions pair up, which is what the chunk count depends on.
#
# Every search reads the reference through one index per pair: ascending
# reference positions by token (`exact_ref`) and by stem (`stem_ref`). The
# exact search walks i in order and, for each i, the indexed positions in
# order, and the greedy breaks ties to the smallest (i, j), so both meet
# the compatible cells in the same i-then-j order as a scan of every cell.


def _ref_index(ref: list[str], stems_r: list[str]) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Ascending reference positions by token and by stem."""
    exact_ref: dict[str, list[int]] = {}
    stem_ref: dict[str, list[int]] = {}
    for j, (tok, s) in enumerate(zip(ref, stems_r)):
        exact_ref.setdefault(tok, []).append(j)
        stem_ref.setdefault(s, []).append(j)
    return exact_ref, stem_ref


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    if not pairs:
        return 0
    ordered = sorted(pairs)
    chunks = 1
    for (i0, j0), (i1, j1) in zip(ordered, ordered[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    return chunks


def _greedy_longest_run(
    cand: list[str], ref: list[str], stems_c, exact_ref, stem_ref
) -> list[tuple[int, int]]:
    """Commit the longest available diagonal run per stage, ties to the earliest.

    Each stage tabulates the run length at every indexed free cell once,
    back to front, and keeps the cells in a lazy max-heap keyed
    (-length, i, j). Committed runs only shorten other runs, so a popped
    cell whose recount still equals its key is the longest run left and,
    among equals, the earliest (i, j); a cell that shrank goes back in with
    its new length.
    """
    used_c = [False] * len(cand)
    used_r = [False] * len(ref)
    pairs: list[tuple[int, int]] = []
    for index, keys in ((exact_ref, cand), (stem_ref, stems_c)):
        # stage 1 leaves no free exact pair, so in stage 2 every free pair in
        # the same stem class is compatible
        heap: list[tuple[int, int, int]] = []
        below: dict[int, int] = {}
        for i in range(len(cand) - 1, -1, -1):
            row: dict[int, int] = {}
            if not used_c[i]:
                for j in index.get(keys[i], ()):
                    if not used_r[j]:
                        row[j] = below.get(j + 1, 0) + 1
                        heap.append((-row[j], i, j))
            below = row
        heapq.heapify(heap)
        while heap:
            key, i, j = heapq.heappop(heap)
            bound = -key
            length = 0
            while length < bound and not used_c[i + length] and not used_r[j + length]:
                length += 1
            if length < bound:
                if length:
                    heapq.heappush(heap, (-length, i, j))
                continue
            for k in range(length):
                used_c[i + k] = True
                used_r[j + k] = True
                pairs.append((i + k, j + k))
    return pairs


def _exact_min_chunks(
    cand: list[str],
    ref: list[str],
    stems_c,
    exact_ref: dict[str, list[int]],
    stem_ref: dict[str, list[int]],
    seed_pairs: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Branch-and-bound over position assignments with the exact and total
    match counts of `seed_pairs`, a maximum alignment. The incumbent starts
    as `seed_pairs` and only improves, so when the node budget runs out the
    best alignment found so far is returned."""
    n, m = len(cand), len(ref)
    m1 = sum(cand[i] == ref[j] for i, j in seed_pairs)
    total_needed = len(seed_pairs)
    best_chunks = _chunk_count(seed_pairs)
    best_pairs = list(seed_pairs)
    nodes = 0
    budget_hit = False

    used_r = [False] * m
    chosen: list[tuple[int, int]] = []

    def dfs(i: int, n_exact: int, n_total: int, chunks: int, last: tuple[int, int] | None):
        nonlocal best_chunks, best_pairs, nodes, budget_hit
        nodes += 1
        if nodes > _EXACT_NODE_BUDGET:
            budget_hit = True
            return
        # chunks never decrease as pairs are added in candidate order, so a
        # path already at the incumbent count cannot improve on it
        if chunks >= best_chunks:
            return
        remaining = n - i
        if n_total + remaining < total_needed or n_exact + remaining < m1:
            return
        if i == n:
            if n_exact == m1 and n_total == total_needed and chunks < best_chunks:
                best_chunks = chunks
                best_pairs = list(chosen)
            return

        options: list[tuple[int, bool]] = []
        for j in exact_ref.get(cand[i], []):
            if not used_r[j]:
                options.append((j, True))
        for j in stem_ref.get(stems_c[i], []):
            if not used_r[j] and ref[j] != cand[i]:
                options.append((j, False))
        # try the diagonal continuation first so good bounds arrive early
        if last is not None and last[0] == i - 1:
            options.sort(key=lambda o: (o[0] != last[1] + 1, o[0]))
        else:
            options.sort(key=lambda o: o[0])

        for j, is_exact in options:
            extends = last is not None and last == (i - 1, j - 1)
            used_r[j] = True
            chosen.append((i, j))
            dfs(
                i + 1,
                n_exact + (1 if is_exact else 0),
                n_total + 1,
                chunks if extends else chunks + 1,
                (i, j),
            )
            chosen.pop()
            used_r[j] = False
            if budget_hit:
                return
        if not budget_hit:
            dfs(i + 1, n_exact, n_total, chunks, last)

    dfs(0, 0, 0, 0, None)
    return best_pairs


def _align(cand: list[str], ref: list[str]) -> tuple[int, int]:
    """Return (matched unigrams, chunk count) for the METEOR alignment."""
    if not cand or not ref:
        return 0, 0
    stem_of = {tok: stem(tok) for tok in {*cand, *ref}}
    stems_c = [stem_of[tok] for tok in cand]
    stems_r = [stem_of[tok] for tok in ref]
    exact_ref, stem_ref = _ref_index(ref, stems_r)

    pairs = _greedy_longest_run(cand, ref, stems_c, exact_ref, stem_ref)
    chunks = _chunk_count(pairs)
    # the greedy always reaches the maximum match count, and an alignment with
    # a match has at least one chunk, so a one-chunk greedy needs no search
    if chunks > 1 and len(cand) <= _EXACT_MAX_TOKENS and len(ref) <= _EXACT_MAX_TOKENS:
        pairs = _exact_min_chunks(cand, ref, stems_c, exact_ref, stem_ref, pairs)
        chunks = _chunk_count(pairs)
    return len(pairs), chunks


def meteor(candidate: str | list[str], reference: str | list[str]) -> MetricScore:
    """Unigram alignment score with the standard fragmentation penalty.

    Fmean weights recall 9:1 over precision; the penalty is
    0.5 * (chunks / matches)^3 and the final score Fmean * (1 - penalty).
    Zero matches score zero.
    """
    cand = _tokens(candidate)
    ref = _tokens(reference)
    matches, chunks = _align(cand, ref)
    if matches == 0:
        return MetricScore(0.0, 0.0, 0.0)
    precision = matches / len(cand)
    recall = matches / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return MetricScore(precision, recall, fmean * (1 - penalty))


REPORT_COLUMNS = ("METEOR", "Rouge-1", "Rouge-2", "Rouge-L")


class EvalReport(NamedTuple):
    """A scored corpus: each sample's report row as its `dump_row` line, in
    pair order, and the corpus means."""

    n: int
    rows: list[str]
    corpus: dict[str, float]
    sample_ids: list[str] | None = None

    @property
    def per_sample(self) -> list[dict[str, MetricScore]]:
        """Each sample's scores by metric, decoded from its row on each access."""
        return [_row_scores(json.loads(line)) for line in self.rows]


def _score_all(candidate: str, reference: str) -> dict[str, MetricScore]:
    cand = tokenize(candidate)
    ref = tokenize(reference)
    return {
        "METEOR": meteor(cand, ref),
        "Rouge-1": rouge_n(cand, ref, 1),
        "Rouge-2": rouge_n(cand, ref, 2),
        "Rouge-L": rouge_l(cand, ref),
    }


def _encode_row(scores: dict[str, MetricScore], sample_id: str | None) -> str:
    """A sample's report row: precision, recall and f by metric, and its id if it has one."""
    row: dict = {metric: {"precision": s.precision, "recall": s.recall, "f": s.f} for metric, s in scores.items()}
    if sample_id is not None:
        row["sample_id"] = sample_id
    return dump_row(row)


def _row_scores(row: dict) -> dict[str, MetricScore]:
    return {metric: MetricScore(v["precision"], v["recall"], v["f"]) for metric, v in row.items() if metric != "sample_id"}


def evaluate_corpus(pairs: list[tuple[str, str]], sample_ids: list[str] | None = None) -> EvalReport:
    """Score (candidate, reference) pairs and average over the corpus.

    Corpus numbers are means of the per-sample scores scaled by 100 and
    rounded to two decimals. An empty pair list is an error. Each pair's row
    is encoded as soon as it is scored; only its f scores stay numbers, one
    column per metric for the means.
    """
    if not pairs:
        raise ValueError("evaluate_corpus needs at least one (candidate, reference) pair")
    if sample_ids is not None and len(sample_ids) != len(pairs):
        raise ValueError("sample_ids length must match pairs")

    rows: list[str] = []
    columns: dict[str, list[float]] = {column: [] for column in REPORT_COLUMNS}
    for (cand, ref), sample_id in zip(pairs, sample_ids if sample_ids is not None else itertools.repeat(None)):
        scores = _score_all(cand, ref)
        for column, values in columns.items():
            values.append(scores[column].f)
        rows.append(_encode_row(scores, sample_id))
    corpus = {column: round(100 * sum(values) / len(rows), 2) for column, values in columns.items()}
    return EvalReport(n=len(rows), rows=rows, corpus=corpus, sample_ids=sample_ids)


def render_report_table(report: EvalReport, label: str = "corpus") -> str:
    """Fixed-width table with exactly the four metric columns."""
    headers = ["Model", *REPORT_COLUMNS]
    values = [label] + [f"{report.corpus[c]:.2f}" for c in REPORT_COLUMNS]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    header_row = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    value_row = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return header_row + "\n" + value_row + "\n"


def report_to_dict(report: EvalReport) -> dict:
    return {"n": report.n, "corpus": dict(report.corpus), "per_sample": [json.loads(line) for line in report.rows]}


def report_from_dict(raw: dict) -> EvalReport:
    rows = []
    sample_ids: list[str] | None = [] if raw["per_sample"] and "sample_id" in raw["per_sample"][0] else None
    for row in raw["per_sample"]:
        sample_id = None
        if sample_ids is not None:
            sample_id = row["sample_id"]
            sample_ids.append(sample_id)
        rows.append(_encode_row(_row_scores(row), sample_id))
    return EvalReport(n=raw["n"], rows=rows, corpus=raw["corpus"], sample_ids=sample_ids)
