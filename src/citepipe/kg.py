"""Ingest of (head | relation | tail) triplets and attachment to samples.

Triplet files are JSONL: one block per line with a paper id, a section name
(abstract, introduction, or conclusion), and the triplets extracted from
that section. Blocks for the same (paper, section) pair merge with exact
dedup after whitespace normalization. Relation labels are free-form unless
a validation vocabulary is supplied, in which case unknown labels are only
counted, never altered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .dataset import CitationSample, sample_encoder, sample_from_dict, sample_to_dict
from .jsonl import dump_row, encoded_by_identity, iter_jsonl, iter_rows, row_fields, write_text

SECTIONS = ("abstract", "introduction", "conclusion")

# Entity-relation label set commonly used for scientific IE; optional check.
SCIERC_RELATIONS = frozenset(
    {"Used-For", "Part-Of", "Feature-Of", "Compare", "Conjunction", "Evaluate-For", "Hyponym-Of"}
)


def normalize_phrase(text: str) -> str:
    """Trim and collapse internal whitespace runs; case is preserved."""
    return " ".join(text.split())


@dataclass(frozen=True)
class KGTriplet:
    head: str
    relation: str
    tail: str
    head_type: str | None = None
    tail_type: str | None = None


@dataclass
class TripletSet:
    paper_id: str
    section: str
    triplets: list[KGTriplet] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.triplets)


@dataclass
class KgIngestStats:
    lines_read: int = 0
    blocks_loaded: int = 0
    blocks_merged: int = 0
    malformed_lines: int = 0
    invalid_triplets: int = 0
    duplicate_triplets: int = 0
    unknown_relations: int = 0


@dataclass
class TripletStore:
    blocks: dict[tuple[str, str], TripletSet] = field(default_factory=dict)  # by (paper_id, section)
    stats: KgIngestStats = field(default_factory=KgIngestStats)

    def get(self, paper_id: str, section: str) -> TripletSet | None:
        return self.blocks.get((paper_id, section))

    def __contains__(self, paper_id: str) -> bool:
        return any(pid == paper_id for pid, _ in self.blocks)


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


@dataclass
class TargetTriplets:
    """Per-section triplet sets for one cited paper; None means no block."""

    paper_id: str
    abstract: TripletSet | None = None
    introduction: TripletSet | None = None
    conclusion: TripletSet | None = None

    def has_any(self) -> bool:
        return any(ts and len(ts) for ts in (self.abstract, self.introduction, self.conclusion))


@dataclass
class EnrichedSample:
    sample: CitationSample
    source_triplets: TripletSet
    target_triplets: list[TargetTriplets]
    missing_target_triplets: bool = False


@dataclass
class AttachStats:
    samples_enriched: int = 0
    samples_without_target_triplets: int = 0
    orphan_papers: int = 0


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
    # a source paper without a block gets one empty set, shared by its samples,
    # since a writer keeps each block it encodes and one per row would pile up
    no_block: dict[str, TripletSet] = {}
    for sample in samples:
        source_id = sample.source_paper_id
        referenced.add(source_id)
        source_set = store.get(source_id, "abstract")
        if source_set is None:
            source_set = no_block.setdefault(source_id, TripletSet(source_id, "abstract"))

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

    A budget keeps only the first `budget` triplets; None keeps all. Empty
    or missing sets render as the empty string.
    """
    if tset is None or not tset.triplets:
        return ""
    triplets = tset.triplets if budget is None else tset.triplets[: max(budget, 0)]
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

def _tset_to_dict(tset: TripletSet | None) -> dict | None:
    if tset is None:
        return None
    return {
        "paper_id": tset.paper_id,
        "section": tset.section,
        "triplets": [
            {
                "head": t.head,
                "relation": t.relation,
                "tail": t.tail,
                "head_type": t.head_type,
                "tail_type": t.tail_type,
            }
            for t in tset.triplets
        ],
    }


def _tset_from_dict(row: dict | None, blocks: dict) -> TripletSet | None:
    """A triplet block from its row, shared through `blocks`, which maps every
    field of a block to its one TripletSet and gains the new ones."""
    if row is None:
        return None
    try:
        # only checked blocks are interned, so a hit needs no check
        return blocks[
            row["paper_id"],
            row["section"],
            tuple(
                (t["head"], t["relation"], t["tail"], t.get("head_type"), t.get("tail_type"))
                for t in row["triplets"]
            ),
        ]
    except (KeyError, TypeError):  # a miss, or a row the check names
        paper_id, section, raw_triplets = row_fields(row, _BLOCK)
        entries = tuple(tuple(row_fields(t, _TRIPLET, _TRIPLET_DEFAULTS)) for t in raw_triplets)
        tset = blocks[paper_id, section, entries] = TripletSet(paper_id, section, [KGTriplet(*t) for t in entries])
        return tset


def enriched_to_dict(es: EnrichedSample) -> dict:
    """The enriched row of a sample; `write_enriched` writes these bytes faster."""
    return {
        "sample": sample_to_dict(es.sample),
        "source_triplets": _tset_to_dict(es.source_triplets),
        "target_triplets": [
            {
                "paper_id": tt.paper_id,
                "abstract": _tset_to_dict(tt.abstract),
                "introduction": _tset_to_dict(tt.introduction),
                "conclusion": _tset_to_dict(tt.conclusion),
            }
            for tt in es.target_triplets
        ],
        "missing_target_triplets": es.missing_target_triplets,
    }


_ENRICHED = {"sample": dict, "source_triplets": (dict, None), "target_triplets": list, "missing_target_triplets": bool}
_TARGET_TRIPLETS = {"paper_id": str, **dict.fromkeys(SECTIONS, (dict, None))}


def enriched_from_dict(row: dict, papers: dict | None = None, blocks: dict | None = None) -> EnrichedSample:
    """An enriched sample from its row; targets are shared through `papers`
    (see `sample_from_dict`) and triplet blocks through `blocks`."""
    if blocks is None:
        blocks = {}
    sample, source, targets, missing = row_fields(row, _ENRICHED)
    per_target = []
    for tt in targets:
        paper_id, *sections = row_fields(tt, _TARGET_TRIPLETS)
        per_target.append(TargetTriplets(paper_id, *[_tset_from_dict(s, blocks) for s in sections]))
    return EnrichedSample(sample_from_dict(sample, papers), _tset_from_dict(source, blocks), per_target, missing)


def write_enriched(samples: Iterable[EnrichedSample], path: str | Path) -> int:
    """Write `dump_row(enriched_to_dict(es))` per sample, encoding each
    distinct sample, target and triplet block object once."""
    encode_sample = sample_encoder()
    encode_tset = encoded_by_identity(lambda tset: dump_row(_tset_to_dict(tset)))

    def block(tset: TripletSet | None) -> str:
        return "null" if tset is None else encode_tset(tset)

    def row(es: EnrichedSample) -> str:
        # keys in sorted order, as dump_row writes them
        targets = ", ".join(
            [
                f'{{"abstract": {block(tt.abstract)}, "conclusion": {block(tt.conclusion)}, '
                f'"introduction": {block(tt.introduction)}, "paper_id": {dump_row(tt.paper_id)}}}'
                for tt in es.target_triplets
            ]
        )
        return (
            f'{{"missing_target_triplets": {dump_row(es.missing_target_triplets)}, '
            f'"sample": {encode_sample(es.sample)}, "source_triplets": {block(es.source_triplets)}, '
            f'"target_triplets": [{targets}]}}\n'
        )

    return write_text(path, (row(es) for es in samples))


def iter_enriched(path: str | Path) -> Iterator[EnrichedSample]:
    """The samples of an enriched file, one at a time as it is read; a corrupt
    line fails with its line number when it is reached. Samples share one
    TargetPaper per distinct target and one TripletSet per distinct block, so
    treat them as read-only."""
    papers: dict = {}
    blocks: dict = {}
    return iter_rows(path, lambda row: enriched_from_dict(row, papers, blocks))


def read_enriched(path: str | Path) -> list[EnrichedSample]:
    """Every sample of `iter_enriched`, for callers that need them all at once."""
    return list(iter_enriched(path))
