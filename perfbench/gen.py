"""Seeded synthetic inputs for the benchmark, with their planted ground truth.

`generate(spec, seed)` returns the corpus lines, the triplet lines and a
`Truth` holding what a correct pipeline must produce from them: the sample
ids with their targets and gold passages, the ingest and extraction
tallies, and the deduplicated triplet lists. The truth is known by
construction, never by running the pipeline.

Text comes from a fixed vocabulary: a Zipf-weighted set of function words
and of invented content words, each with an inflection family
(base, +s, +ed, +ing) whose members share one Porter stem. So passages
repeat tokens and mock answers can match a gold passage on stems only, as
real text does. `word_class` maps a token to its stem class without the
stemmer; the benchmark's tests confirm it agrees with the program's stemmer.

Body sections are laid out from segments: a citing run (a seed sentence
citing two or three papers, then followers citing only those papers), a
distractor sentence, or plain sentences. Segments are separated by at least
one plain sentence, so every run becomes exactly one sample and every
distractor adds exactly one to one extraction tally.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from itertools import accumulate

FIELD = "Computer Science"
OFF_FIELD = "Biology"
RELATIONS = ("Used-For", "Part-Of", "Feature-Of", "Compare", "Conjunction", "Evaluate-For", "Hyponym-Of")

FUNCTION_WORDS = (
    "the", "of", "and", "a", "in", "to", "is", "for", "with", "on", "that", "by",
    "we", "as", "are", "from", "this", "an", "be", "which", "our", "at", "or", "not",
)
SUFFIXES = ("", "s", "ed", "ing")
SUFFIX_WEIGHTS = (55, 20, 12, 13)
FUNCTION_SHARE = 0.4
N_FAMILIES = 900

# distractors, each with a known tally
ABSTRACTLESS_PAPERS = 3
OFF_FIELD_PAPERS = 3
UNRESOLVED_SENTENCES = 4
SELF_CITING_SENTENCES = 4
ABSTRACTLESS_TARGET_SENTENCES = 4


def _build_families() -> list[str]:
    # consonant-vowel-consonant-vowel plus a final cluster that no Porter
    # rule rewrites, so base, +s, +ed and +ing all stem to the base
    rng = random.Random(20240421)
    consonants, vowels = "bdfgklmnprtvz", "aeiou"
    clusters = ("rk", "nd", "mp", "rn", "lk", "nk", "rp", "lm", "sk")
    seen: set[str] = set()
    bases: list[str] = []
    while len(bases) < N_FAMILIES:
        base = (
            rng.choice(consonants) + rng.choice(vowels) + rng.choice(consonants)
            + rng.choice(vowels) + rng.choice(clusters)
        )
        if base not in seen:
            seen.add(base)
            bases.append(base)
    return bases


FAMILIES = _build_families()
_FAMILY_OF = {base + suffix: base for base in FAMILIES for suffix in SUFFIXES}
_FUNC_CUM = list(accumulate(1.0 / (rank + 1) for rank in range(len(FUNCTION_WORDS))))
_FAMILY_CUM = list(accumulate(1.0 / (rank + 1) for rank in range(N_FAMILIES)))
_SUFFIX_CUM = list(accumulate(SUFFIX_WEIGHTS))


def word_class(token: str) -> str:
    """Stem class of a lowercase token: its family base, else the token itself."""
    return _FAMILY_OF.get(token, token)


def inflections(token: str) -> list[str]:
    """Other members of a token's inflection family (empty for function words)."""
    base = _FAMILY_OF.get(token)
    if base is None:
        return []
    return [base + s for s in SUFFIXES if base + s != token]


@dataclass(frozen=True)
class Spec:
    """Input make-up of one workload."""

    papers: int  # in-field papers with abstracts
    sections: int  # citing body sections per paper
    sentences: int  # sentences per citing section
    sentence_words: tuple[int, int]  # words per sentence, markers excluded
    cite_share: float  # share of citing-section sentences inside citing runs
    run_length: tuple[int, int]  # sentences per citing run
    abstract_sentences: int
    intro_sentences: int
    conclusion_sentences: int
    triplets_per_section: int
    verbatim_share: float  # share of mock answers that repeat the gold passage


@dataclass
class PlantedSample:
    sample_id: str
    source: str
    targets: tuple[str, ...]
    passage: str


@dataclass
class Truth:
    samples: list[PlantedSample] = field(default_factory=list)
    abstracts: dict[str, str] = field(default_factory=dict)  # paper id -> abstract
    ingest: dict[str, int] = field(default_factory=dict)
    extract: dict[str, int] = field(default_factory=dict)
    # (paper id, section) -> normalized triplets in first-seen order
    triplets: dict[tuple[str, str], list[tuple[str, str, str]]] = field(default_factory=dict)
    kg_ingest: dict[str, int] = field(default_factory=dict)


class _Writer:
    def __init__(self, rng: random.Random, spec: Spec):
        self.rng = rng
        self.spec = spec

    def word(self) -> str:
        rng = self.rng
        if rng.random() < FUNCTION_SHARE:
            return rng.choices(FUNCTION_WORDS, cum_weights=_FUNC_CUM)[0]
        base = rng.choices(FAMILIES, cum_weights=_FAMILY_CUM)[0]
        return base + rng.choices(SUFFIXES, cum_weights=_SUFFIX_CUM)[0]

    def words(self, n: int) -> list[str]:
        return [self.word() for _ in range(n)]

    def sentence(self, markers: list[str] = ()) -> tuple[str, list[tuple[int, int]]]:
        """A sentence with citation markers spread through it, and the marker offsets."""
        lo, hi = self.spec.sentence_words
        tokens = self.words(self.rng.randint(lo, hi))
        tokens[0] = tokens[0].capitalize()
        slots = sorted(self.rng.sample(range(1, len(tokens) + 1), len(markers)))
        for shift, (slot, marker) in enumerate(zip(slots, markers)):
            tokens.insert(slot + shift, marker)
        text = " ".join(tokens) + "."
        spans, pos = [], 0
        for marker in markers:
            start = text.index(marker, pos)
            spans.append((start, start + len(marker)))
            pos = start + len(marker)
        return text, spans

    def plain(self, n: int) -> list[str]:
        return [self.sentence()[0] for _ in range(n)]


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n values cycling evenly through lo..hi, shuffled: the spread repeats across seeds."""
    values = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(spec: Spec, seed: int) -> tuple[list[str], list[str], Truth]:
    rng = random.Random(seed)
    writer = _Writer(rng, spec)
    truth = Truth()

    pids = [f"p{i:05d}" for i in range(spec.papers)]
    abstractless = [f"n{i:03d}" for i in range(ABSTRACTLESS_PAPERS)]
    off_field = [f"o{i:03d}" for i in range(OFF_FIELD_PAPERS)]

    for pid in pids:
        truth.abstracts[pid] = f"[[{pid}]] " + " ".join(writer.plain(spec.abstract_sentences))

    # Citing segments per (paper, section): runs first, then distractors.
    runs_per_section = max(1, round(spec.cite_share * spec.sentences / (sum(spec.run_length) / 2)))
    run_lengths = iter(_stratified(rng, *spec.run_length, spec.papers * spec.sections * runs_per_section))
    segments: dict[tuple[int, int], list[tuple]] = {}
    for p in range(spec.papers):
        used_target_sets: set[tuple[str, ...]] = set()
        for s in range(spec.sections):
            runs = []
            for _ in range(runs_per_section):
                while True:
                    others = rng.sample(range(spec.papers - 1), rng.choice((2, 3)))
                    targets = tuple(pids[o if o < p else o + 1] for o in others)
                    if targets not in used_target_sets:
                        used_target_sets.add(targets)
                        break
                runs.append(("run", targets, next(run_lengths)))
            segments[(p, s)] = runs
    kinds = (
        ["unresolved"] * UNRESOLVED_SENTENCES
        + ["self"] * SELF_CITING_SENTENCES
        + ["abstractless"] * ABSTRACTLESS_TARGET_SENTENCES
    )

    def room(segs: list[tuple]) -> int:
        return spec.sentences - sum(seg[2] if seg[0] == "run" else 1 for seg in segs) - (len(segs) - 1)

    for kind in kinds:
        open_sections = [key for key, segs in segments.items() if room(segs) >= 2]
        if not open_sections:
            raise ValueError("spec leaves no room for the distractor sentences")
        segments[rng.choice(open_sections)].append((kind,))

    records: list[dict] = []
    sentences_scanned = 0
    for p, pid in enumerate(pids):
        bib: dict[str | None, str] = {}

        def marker(cited: str | None) -> str:
            key = cited if cited is not None else f"unresolved-{len(bib)}"
            if key not in bib:
                bib[key] = f"[{len(bib) + 1}]"
            return bib[key]

        sections = []
        if spec.intro_sentences:
            sections.append({"section_name": "Introduction", "sentences": writer.plain(spec.intro_sentences), "cite_spans": []})
        for s in range(spec.sections):
            sec_idx = len(sections)
            segs = segments[(p, s)]
            rng.shuffle(segs)
            spare = room(segs)
            if spare < 0:
                raise ValueError("spec packs more citing sentences into a section than fit")
            gaps = [0] + [1] * (len(segs) - 1) + [0]
            for _ in range(spare):
                gaps[rng.randrange(len(gaps))] += 1
            sentences: list[str] = []
            spans: list[dict] = []

            def cite(cited: list[str | None]) -> None:
                text, offsets = writer.sentence([marker(c) for c in cited])
                for c, (start, end) in zip(cited, offsets):
                    spans.append({"sentence_index": len(sentences), "char_start": start, "char_end": end, "resolved_paper_id": c})
                sentences.append(text)

            for seg, gap in zip(segs, gaps):
                sentences.extend(writer.plain(gap))
                first = len(sentences)
                if seg[0] == "run":
                    targets, length = seg[1], seg[2]
                    cite(list(targets))
                    for _ in range(length - 1):
                        cite(rng.sample(targets, rng.randint(1, len(targets))))
                    truth.samples.append(
                        PlantedSample(f"{pid}:{sec_idx}:{first}", pid, targets, " ".join(sentences[first:]))
                    )
                else:
                    valid = pids[rng.choice([q for q in range(spec.papers) if q != p])]
                    other = {
                        "unresolved": rng.choice([None, *off_field]),
                        "self": pid,
                        "abstractless": rng.choice(abstractless),
                    }[seg[0]]
                    cite([valid, other] if rng.random() < 0.5 else [other, valid])
            sentences.extend(writer.plain(gaps[-1]))
            sections.append({"section_name": f"Section {s + 1}", "sentences": sentences, "cite_spans": spans})
        if spec.conclusion_sentences:
            sections.append({"section_name": "Conclusion", "sentences": writer.plain(spec.conclusion_sentences), "cite_spans": []})
        sentences_scanned += sum(len(sec["sentences"]) for sec in sections)
        records.append(
            {
                "paper_id": pid,
                "title": " ".join(writer.words(5)),
                "abstract": truth.abstracts[pid],
                "fields_of_study": [FIELD],
                "body_sections": sections,
            }
        )

    def side_record(pid: str, abstract: str, field_name: str) -> dict:
        return {
            "paper_id": pid,
            "title": " ".join(writer.words(4)),
            "abstract": abstract,
            "fields_of_study": [field_name],
            "body_sections": [{"section_name": "Section 1", "sentences": writer.plain(4), "cite_spans": []}],
        }

    for pid in abstractless:
        records.append(side_record(pid, "", FIELD))
    for pid in off_field:
        records.append(side_record(pid, f"[[{pid}]] " + " ".join(writer.plain(2)), OFF_FIELD))
    invalid = side_record("x-invalid-span", "An abstract.", FIELD)
    invalid["body_sections"][0]["cite_spans"] = [
        {"sentence_index": 0, "char_start": 0, "char_end": 10_000, "resolved_paper_id": pids[0]}
    ]
    records.append(invalid)
    rng.shuffle(records)
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    lines.insert(rng.randrange(len(lines) + 1), '{"paper_id": "x-bad-json", "title": ')
    lines.append(json.dumps(side_record(pids[0], "A duplicate record.", FIELD)))

    truth.ingest = {
        "files_read": 1,
        "lines_read": len(lines),
        "records_yielded": spec.papers + ABSTRACTLESS_PAPERS,
        "parse_errors": 1,
        "validation_errors": 1,
        "duplicate_ids": 1,
        "filtered_out": OFF_FIELD_PAPERS,
    }
    truth.extract = {
        "sentences_scanned": sentences_scanned,
        "samples_emitted": len(truth.samples),
        "unresolved_citations": UNRESOLVED_SENTENCES,
        "missing_abstract": ABSTRACTLESS_TARGET_SENTENCES,
        "self_citations": SELF_CITING_SENTENCES,
        "targets_trimmed": 0,
        "sources_without_abstract": ABSTRACTLESS_PAPERS,
        "trimmed_by_source_cap": 0,
    }
    truth.samples.sort(key=lambda s: s.sample_id)
    triplet_lines = _triplets(rng, spec, pids, off_field, truth)
    return lines, triplet_lines, truth


def _triplets(rng: random.Random, spec: Spec, pids: list[str], off_field: list[str], truth: Truth) -> list[str]:
    """Triplet blocks with planted duplicates, whitespace variants and split blocks."""
    sections = ["abstract"]
    if spec.intro_sentences:
        sections.append("introduction")
    if spec.conclusion_sentences:
        sections.append("conclusion")
    stats = dict(lines_read=0, blocks_loaded=0, blocks_merged=0, malformed_lines=0,
                 invalid_triplets=0, duplicate_triplets=0, unknown_relations=0)

    def phrase() -> str:
        return " ".join(rng.choice(FAMILIES) for _ in range(rng.randint(1, 2)))

    def as_raw(t: tuple[str, str, str], spaced: bool = False) -> dict:
        head, rel, tail = t
        if spaced:
            head, tail = f"  {head.replace(' ', '   ')} ", f"\t{tail} "
        return {"head": head, "relation": rel, "tail": tail}

    # every tenth paper has no triplets; off-field papers get blocks no sample uses
    keyed = [(pid, sec) for pid in pids if int(pid[1:]) % 10 != 9 for sec in sections]
    keyed += [(pid, "abstract") for pid in off_field]
    rng.shuffle(keyed)
    firsts: list[str] = []
    seconds: list[str] = []
    for n, (pid, sec) in enumerate(keyed):
        planted: list[tuple[str, str, str]] = []
        while len(planted) < spec.triplets_per_section:
            t = (phrase(), rng.choice(RELATIONS), phrase())
            if t[0] != t[2] and t not in planted:
                planted.append(t)
        truth.triplets[(pid, sec)] = planted
        # dirt goes after the planted list, so first-seen order is the planted order
        dirt = []
        if n % 4 == 0:
            dirt.append(as_raw(rng.choice(planted)))
            stats["duplicate_triplets"] += 1
        if n % 5 == 0:
            dirt.append(as_raw(rng.choice(planted), spaced=True))
            stats["duplicate_triplets"] += 1
        if n % 7 == 0:
            word = rng.choice(FAMILIES)
            dirt.append({"head": word, "relation": "Compare", "tail": f" {word}"})
            stats["invalid_triplets"] += 1
        stats["blocks_loaded"] += 1
        raws = [as_raw(t) for t in planted]
        if n % 6 == 0 and len(planted) > 1:
            # split into two lines; the second repeats the first's lead triplet
            cut = len(planted) // 2
            firsts.append(json.dumps({"paper_id": pid, "section": sec, "triplets": raws[:cut]}))
            seconds.append(json.dumps({"paper_id": pid, "section": sec, "triplets": raws[cut:] + [raws[0]] + dirt}))
            stats["blocks_merged"] += 1
            stats["duplicate_triplets"] += 1
        else:
            firsts.append(json.dumps({"paper_id": pid, "section": sec, "triplets": raws + dirt}))
    rng.shuffle(seconds)
    lines = firsts + seconds
    for bad in ('{"paper_id": "p00000", "section": "abstract", "triplets": [',
                json.dumps({"paper_id": pids[0], "section": "methods", "triplets": []})):
        lines.insert(rng.randrange(len(lines) + 1), bad)
        stats["malformed_lines"] += 1
    stats["lines_read"] = len(lines)
    truth.kg_ingest = stats
    return lines


TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokens(text: str) -> list[str]:
    """The documented tokenizer: lowercase, split on runs of non-alphanumerics."""
    return TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Answer:
    sample_id: str
    text: str
    verbatim: bool


def answers(truth: Truth, spec: Spec, seed: int) -> dict[tuple[str, tuple[str, ...]], Answer]:
    """What the mock endpoint answers for each (source, targets) prompt.

    A seeded share repeats the gold passage verbatim; the rest perturb its
    tokens with drops, inflected variants, insertions and adjacent swaps.
    """
    rng = random.Random(seed ^ 0x5EED)
    writer = _Writer(rng, spec)
    table = {}
    for sample in truth.samples:
        if rng.random() < spec.verbatim_share:
            text, verbatim = sample.passage, True
        else:
            out: list[str] = []
            for tok in tokens(sample.passage):
                roll = rng.random()
                if roll < 0.08:
                    continue
                if roll < 0.20 and inflections(tok):
                    tok = rng.choice(inflections(tok))
                out.append(tok)
                if rng.random() < 0.06:
                    out.append(writer.word())
            for i in range(len(out) - 1):
                if rng.random() < 0.05:
                    out[i], out[i + 1] = out[i + 1], out[i]
            text, verbatim = " ".join(out) or writer.word(), False
        table[(sample.source, sample.targets)] = Answer(sample.sample_id, text, verbatim)
    return table
