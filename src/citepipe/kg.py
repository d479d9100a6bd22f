"""Ingest of (head | relation | tail) triplets and attachment to samples.

Triplet files are JSONL: one block per line with a paper id, a section name
(abstract, introduction, or conclusion), and the triplets extracted from
that section. Blocks for the same (paper, section) pair merge with exact
dedup after whitespace normalization. Relation labels are free-form unless
a validation vocabulary is supplied, in which case unknown labels are only
counted, never altered.

An enriched file holds one row per sample with its triplet blocks inline, by
the README's "File formats": each target's blocks at that target's position,
a block keyed by its place in the row and so without its paper_id and
section, each paper's text once, and a triplet's null types left out.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .dataset import CitationSample, last_entry, sample_encoder, sample_from_dict
from .jsonl import Record, dump_row, iter_jsonl, iter_rows, row_fields, without_nulls, write_text

SECTIONS = ("abstract", "introduction", "conclusion")

# Entity-relation label set commonly used for scientific IE; optional check.
SCIERC_RELATIONS = frozenset(
    {"Used-For", "Part-Of", "Feature-Of", "Compare", "Conjunction", "Evaluate-For", "Hyponym-Of"}
)


def normalize_phrase(text: str) -> str:
    """Trim and collapse internal whitespace runs; case is preserved."""
    return " ".join(text.split())


class KGTriplet(NamedTuple):
    head: str
    relation: str
    tail: str
    head_type: str | None = None
    tail_type: str | None = None


class TripletSet(Record):
    __slots__ = ("paper_id", "section", "triplets")

    def __init__(self, paper_id: str, section: str, triplets: list[KGTriplet] | None = None):
        self.paper_id, self.section = paper_id, section
        self.triplets = [] if triplets is None else triplets

    def __len__(self) -> int:
        return len(self.triplets)


class KgIngestStats(Record):
    __slots__ = ("lines_read", "blocks_loaded", "blocks_merged", "malformed_lines", "invalid_triplets",
                 "duplicate_triplets", "unknown_relations")
    _defaults = dict.fromkeys(__slots__, 0)


class TripletStore(Record):
    """`blocks`, the `TripletSet` of each (paper_id, section), and the
    `stats` of their ingest."""

    __slots__ = ("blocks", "stats")
    _defaults = {"blocks": dict, "stats": KgIngestStats}

    def get(self, paper_id: str, section: str) -> TripletSet | None:
        return self.blocks.get((paper_id, section))


# a triplet block and its entries, as triplet files and enriched files hold them
_BLOCK = {"paper_id": str, "section": str, "triplets": list}
_TRIPLET = {"head": str, "relation": str, "tail": str, "head_type": (str, None), "tail_type": (str, None)}
_TRIPLET_DEFAULTS = {"head_type": None, "tail_type": None}


def _parse_triplet(raw: dict, vocabulary: frozenset[str] | None, stats: KgIngestStats) -> KGTriplet | None:
    try:
        fields = row_fields(raw, _TRIPLET, _TRIPLET_DEFAULTS)
    except ValueError:  # not an object, or a field missing or of another type
        stats.invalid_triplets += 1
        return None
    head, relation, tail, head_type, tail_type = (f if f is None else normalize_phrase(f) for f in fields)
    if not head or not relation or not tail or head == tail:
        stats.invalid_triplets += 1
        return None
    if vocabulary is not None and relation not in vocabulary:
        stats.unknown_relations += 1
    return KGTriplet(head, relation, tail, head_type, tail_type)


def load_triplets(path: str | Path, vocabulary: frozenset[str] | None = None) -> TripletStore:
    """Load a triplet JSONL file into a TripletStore.

    Malformed lines (not a block, unknown section) and invalid triplets (a
    field that is not a string, an empty field, head == tail after
    normalization) are counted and skipped. Duplicate (paper, section)
    blocks merge, deduping identical triplets and keeping first-seen order.
    """
    store = TripletStore()
    stats = store.stats
    for lineno, line in iter_jsonl(path):
        stats.lines_read += 1
        try:
            paper_id, section, raw_triplets = row_fields(json.loads(line), _BLOCK)
        except ValueError:  # bad JSON, or a field of the wrong type
            stats.malformed_lines += 1
            continue
        if not paper_id or section not in SECTIONS:
            stats.malformed_lines += 1
            continue

        existing = store.blocks.get((paper_id, section))
        if existing is None:
            existing = store.blocks[paper_id, section] = TripletSet(paper_id, section)
            stats.blocks_loaded += 1
        else:
            stats.blocks_merged += 1

        seen = {(t.head, t.relation, t.tail) for t in existing.triplets}
        for raw_triplet in raw_triplets:
            triplet = _parse_triplet(raw_triplet, vocabulary, stats)
            if triplet is None:
                continue
            key = (triplet.head, triplet.relation, triplet.tail)
            if key in seen:
                stats.duplicate_triplets += 1
                continue
            seen.add(key)
            existing.triplets.append(triplet)
    return store


class TargetTriplets(NamedTuple):
    """Per-section triplet sets for one cited paper; None means no block."""

    paper_id: str
    abstract: TripletSet | None = None
    introduction: TripletSet | None = None
    conclusion: TripletSet | None = None

    def has_any(self) -> bool:
        return any(ts and len(ts) for ts in (self.abstract, self.introduction, self.conclusion))


class EnrichedSample(NamedTuple):
    sample: CitationSample
    source_triplets: TripletSet
    target_triplets: list[TargetTriplets]
    missing_target_triplets: bool = False


class AttachStats(Record):
    __slots__ = ("samples_enriched", "samples_without_target_triplets", "orphan_papers")
    _defaults = dict.fromkeys(__slots__, 0)


def attach_triplets(
    samples: Iterable[CitationSample],
    store: TripletStore,
    stats: AttachStats | None = None,
) -> Iterator[EnrichedSample]:
    """Join triplets onto samples without changing sample count or order,
    yielding each enriched sample as its sample arrives.

    The source paper contributes its abstract-section triplets; each target
    contributes abstract, introduction, and conclusion sections. Samples
    whose targets have no triplets at all are flagged, not dropped. Papers
    in the store never referenced by any sample count as orphans, which
    `stats` holds once the samples are exhausted.
    """
    if stats is None:
        stats = AttachStats()

    referenced: set[str] = set()
    for sample in samples:
        source_id = sample.source_paper_id
        referenced.add(source_id)
        source_set = store.get(source_id, "abstract")
        if source_set is None:
            source_set = TripletSet(source_id, "abstract")

        per_target: list[TargetTriplets] = []
        for target in sample.targets:
            referenced.add(target.paper_id)
            per_target.append(
                TargetTriplets(
                    paper_id=target.paper_id,
                    abstract=store.get(target.paper_id, "abstract"),
                    introduction=store.get(target.paper_id, "introduction"),
                    conclusion=store.get(target.paper_id, "conclusion"),
                )
            )

        missing = not any(t.has_any() for t in per_target)
        if missing:
            stats.samples_without_target_triplets += 1
        stats.samples_enriched += 1
        yield EnrichedSample(sample, source_set, per_target, missing)

    stats.orphan_papers = len({pid for pid, _ in store.blocks} - referenced)


def render_triplets(tset: TripletSet | None, budget: int | None = None) -> str:
    """Render as "(head | relation | tail)" joined by "; ".

    A budget keeps only the first `budget` triplets; None keeps all, and a
    negative one is a ValueError. Empty or missing sets render as the empty
    string.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"triplet budget must not be negative: {budget}")
    if tset is None or not tset.triplets:
        return ""
    triplets = tset.triplets if budget is None else tset.triplets[:budget]
    return "; ".join(f"({t.head} | {t.relation} | {t.tail})" for t in triplets)


def pooled_triplets(target: TargetTriplets) -> TripletSet:
    """All of a target's sections pooled in abstract, introduction, conclusion order."""
    pooled = TripletSet(target.paper_id, "abstract")
    seen: set[tuple[str, str, str]] = set()
    for tset in (target.abstract, target.introduction, target.conclusion):
        if tset is None:
            continue
        for t in tset.triplets:
            key = (t.head, t.relation, t.tail)
            if key not in seen:
                seen.add(key)
                pooled.triplets.append(t)
    return pooled


# Serialization for the enriched dataset written between pipeline stages.

def _tset_to_dict(tset: TripletSet) -> dict:
    """A block's entry: its triplets, as its place in its row is its key."""
    return {"triplets": [without_nulls(t) for t in tset.triplets]}


def _tset_from_dict(row: dict | None, papers: dict, paper_id: str, section: str) -> TripletSet | None:
    """A triplet block from its entry at the place in its row of (`paper_id`,
    `section`), which is its key: the entry of that key in `papers` (see
    `dataset.last_entry`). An entry that names another key is a ValueError."""

    def parse(raw: dict) -> TripletSet:
        *key, raw_triplets = row_fields(raw, _BLOCK, {"paper_id": paper_id, "section": section})
        if key != [paper_id, section]:
            raise ValueError(f"the block at {(paper_id, section)} names {tuple(key)}")
        return TripletSet(paper_id, section, [KGTriplet(*row_fields(t, _TRIPLET, _TRIPLET_DEFAULTS)) for t in raw_triplets])

    return None if row is None else last_entry(papers, (paper_id, section), row, parse)


_ENRICHED = {"source_triplets": (dict, None), "target_triplets": list, "missing_target_triplets": bool}
_TARGET_TRIPLETS = {"paper_id": str, **dict.fromkeys(SECTIONS, (dict, None))}


def enriched_from_dict(row: dict, papers: dict | None = None) -> EnrichedSample:
    """An enriched sample from its row; its targets, source abstract and
    triplet blocks are read through `papers`, the table of its file (see
    `sample_from_dict` and `_tset_from_dict`). The sample, and so its
    schema_version, is read before any other field. An entry of
    `target_triplets` that does not name the sample's target at its position,
    or a `missing_target_triplets` other than what `attach_triplets` sets for
    these blocks, is a ValueError."""
    if papers is None:
        papers = {}
    (sample,) = row_fields(row, {"sample": dict})
    sample = sample_from_dict(sample, papers)
    source, targets, missing = row_fields(row, _ENRICHED)
    if len(targets) != len(sample.targets):
        raise ValueError(f"target_triplets has length {len(targets)}, the sample's targets {len(sample.targets)}")
    per_target = []
    for target, tt in zip(sample.targets, targets):
        paper_id, *blocks = row_fields(tt, _TARGET_TRIPLETS)
        if paper_id != target.paper_id:
            raise ValueError(f"target_triplets names {paper_id!r} where the sample cites {target.paper_id!r}")
        per_target.append(
            TargetTriplets(paper_id, *[_tset_from_dict(b, papers, paper_id, s) for b, s in zip(blocks, SECTIONS)])
        )
    has_triplets = any(t.has_any() for t in per_target)
    if missing == has_triplets:  # attach_triplets sets it to `not has_triplets`
        some = "a" if has_triplets else "no"
        raise ValueError(f"missing_target_triplets is {dump_row(missing)}, but {some} target has triplets")
    source = _tset_from_dict(source, papers, sample.source_paper_id, "abstract")
    return EnrichedSample(sample, source, per_target, missing)


def write_enriched(samples: Iterable[EnrichedSample], path: str | Path) -> int:
    """Write one row per sample by the README's "File formats": a paper's text
    once, so a later mention of a target whose fields equal its last full
    entry is its bare id, and a source abstract equal to the last one written
    for its source_paper_id is left out (`sample_encoder(referencing=True)`);
    and a block by its place, reusing the bytes of the last block there that
    it is or equals. A sample whose `target_triplets` do not name its targets
    in order, or whose block is not its place's, is a ValueError, and `path`
    is kept."""
    encode_sample = sample_encoder(referencing=True)
    encoded: dict = {}

    def block(es: EnrichedSample, tset: TripletSet | None, *place: str) -> str:
        if tset is None:
            return "null"
        if (tset.paper_id, tset.section) != place:
            raise ValueError(f"sample {es.sample.sample_id!r}: the block of {(tset.paper_id, tset.section)} is at {place}")
        return last_entry(encoded, place, tset, lambda t: dump_row(_tset_to_dict(t)))

    def row(es: EnrichedSample) -> str:
        if [tt.paper_id for tt in es.target_triplets] != [t.paper_id for t in es.sample.targets]:
            raise ValueError(f"sample {es.sample.sample_id!r}: target_triplets do not name its targets in order")
        # keys in sorted order, as dump_row writes them
        targets = ", ".join(
            [
                f'{{"abstract": {block(es, tt.abstract, tt.paper_id, "abstract")}, '
                f'"conclusion": {block(es, tt.conclusion, tt.paper_id, "conclusion")}, '
                f'"introduction": {block(es, tt.introduction, tt.paper_id, "introduction")}, '
                f'"paper_id": {dump_row(tt.paper_id)}}}'
                for tt in es.target_triplets
            ]
        )
        source = block(es, es.source_triplets, es.sample.source_paper_id, "abstract")
        return (
            f'{{"missing_target_triplets": {dump_row(es.missing_target_triplets)}, '
            f'"sample": {encode_sample(es.sample)}, "source_triplets": {source}, '
            f'"target_triplets": [{targets}]}}\n'
        )

    return write_text(path, (row(es) for es in samples))


def iter_enriched(path: str | Path) -> Iterator[EnrichedSample]:
    """The samples of an enriched file, one at a time as it is read; a corrupt
    line fails with its line number when it is reached. Samples share their
    papers and triplet blocks by the README's "Each paper once per file", so
    treat them as read-only."""
    papers: dict = {}
    return iter_rows(path, lambda row: enriched_from_dict(row, papers))


def read_enriched(path: str | Path) -> list[EnrichedSample]:
    """Every sample of `iter_enriched`, for callers that need them all at once."""
    return list(iter_enriched(path))
