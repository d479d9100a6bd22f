"""Build multi-reference citation samples from ingested paper records.

A sample is a sentence that cites at least two distinct resolvable papers
with non-empty abstracts, paired with the citing paper's abstract and the
cited papers' metadata. Sentences immediately adjacent to a qualifying
sentence join its citation passage when every citation they carry resolves
to a paper already in the target set, so a contiguous discussion of the
same papers travels as one passage.

How rows go on disk is the README's "File formats": dataset rows stand
alone, split parts and enriched files hold each paper once (`is_last` and
`last_entry` state that rule, which `sample_encoder` writes and
`sample_from_dict` reads), and a field at its reader's default is left out.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import __version__
from .config import DEFAULTS
from .jsonl import Frozen, Record, dump_object, dump_row, iter_rows, json_digest, row_fields, without_nulls, write_text

if TYPE_CHECKING:
    from .corpus import BodySection, PaperRecord

SCHEMA_VERSION = 2
READ_SCHEMA_VERSIONS = (1, 2)  # a row may also leave the field out

MAX_TARGETS = 3


class TargetPaper(NamedTuple):
    paper_id: str
    title: str = ""
    abstract: str = ""
    introduction: str | None = None
    conclusion: str | None = None


class CitationSample(NamedTuple):
    sample_id: str
    source_paper_id: str
    source_abstract: str
    targets: list[TargetPaper]
    citation_text: str
    section_name: str = ""


class ExtractStats(Record):
    __slots__ = ("sentences_scanned", "samples_emitted", "unresolved_citations", "missing_abstract",
                 "self_citations", "targets_trimmed", "sources_without_abstract", "trimmed_by_source_cap")
    _defaults = dict.fromkeys(__slots__, 0)


class DatasetStats(NamedTuple):
    n_samples: int = 0
    n_unique_source_papers: int = 0
    citation_chars_avg: float = 0.0
    citation_chars_max: int = 0
    source_abstract_chars_avg: float = 0.0
    source_abstract_chars_max: int = 0
    target_abstract_chars_avg: float = 0.0
    target_abstract_chars_max: int = 0
    avg_targets_per_sample: float = 0.0
    empty: bool = True

    def to_dict(self) -> dict:
        return self._asdict()


class SplitSpec(Frozen):
    """Fractions for the train/val/test partition plus the shuffle seed.

    Fractions must be positive and sum to 1 within 1e-9. Sizes come from
    flooring each fraction of n, then handing out the remainder one sample
    at a time in train, val, test order.
    """

    __slots__ = ("train_fraction", "val_fraction", "test_fraction", "seed")
    _defaults = dict(zip(__slots__, (DEFAULTS["split"][key] for key in ("train", "validation", "test", "seed"))))

    def _check(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(not f > 0 for f in fracs):  # NaN passes `f <= 0`
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {sum(fracs)!r}, expected 1.0")


_INTRO_KEYS = ("introduction",)
_CONCLUSION_KEYS = ("conclusion", "conclusions")


def _section_text(sections: list[BodySection], keys: tuple[str, ...]) -> str | None:
    for section in sections:
        name = section.section_name.lower()
        if any(key in name for key in keys):
            text = " ".join(section.sentences).strip()
            return text or None
    return None


def build_lookup(records: Iterable[PaperRecord]) -> dict[str, TargetPaper]:
    """Collect per-paper metadata used to resolve citation targets.

    Abstract-less papers stay in the lookup; extraction rejects them with a
    dedicated tally so the exclusion reasons stay distinguishable.
    """
    lookup: dict[str, TargetPaper] = {}
    for record in records:
        lookup[record.paper_id] = TargetPaper(
            paper_id=record.paper_id,
            title=record.title,
            abstract=record.abstract,
            introduction=_section_text(record.body_sections, _INTRO_KEYS),
            conclusion=_section_text(record.body_sections, _CONCLUSION_KEYS),
        )
    return lookup


def _extends_passage(cited: list[str | None], target_ids: set[str]) -> bool:
    # A neighbor joins the passage only if it cites something, and everything
    # it cites is already a target of the seed sentence.
    if not cited:
        return False
    return all(pid is not None and pid in target_ids for pid in cited)


def extract_samples(
    records: Iterable[PaperRecord],
    lookup: Mapping[str, TargetPaper],
    max_per_source: int | None = None,
    stats: ExtractStats | None = None,
) -> list[CitationSample]:
    """Scan records in corpus order and emit qualifying citation samples.

    A sentence qualifies when it cites >= 2 distinct papers that resolve in
    `lookup` with non-empty abstracts (self-citations excluded). Targets are
    capped at MAX_TARGETS keeping first-cited order. The citation passage
    grows over adjacent sentences whose citations all land inside the target
    set; consumed sentences never seed another sample. `max_per_source`, when
    given, caps the samples of each source paper (0 keeps none).
    """
    if max_per_source is not None and max_per_source < 0:
        raise ValueError(f"max_per_source must not be negative: {max_per_source}")
    if stats is None:
        stats = ExtractStats()

    samples: list[CitationSample] = []
    for record in records:
        if not record.abstract.strip():
            stats.sources_without_abstract += 1
            continue
        per_source = 0
        for sec_idx, section in enumerate(record.body_sections):
            next_free = 0
            n_sentences = len(section.sentences)
            stats.sentences_scanned += n_sentences

            i = 0
            while i < n_sentences:
                targets = _qualify(record, section.cited[i], lookup, stats)
                if targets is None:
                    i += 1
                    continue
                if max_per_source is not None and per_source >= max_per_source:
                    stats.trimmed_by_source_cap += 1
                    i += 1
                    continue

                target_ids = {t.paper_id for t in targets}
                left = i
                while left - 1 >= next_free and _extends_passage(section.cited[left - 1], target_ids):
                    left -= 1
                right = i
                while right + 1 < n_sentences and _extends_passage(section.cited[right + 1], target_ids):
                    right += 1

                samples.append(
                    CitationSample(
                        sample_id=f"{record.paper_id}:{sec_idx}:{i}",
                        source_paper_id=record.paper_id,
                        source_abstract=record.abstract,
                        targets=targets,
                        citation_text=" ".join(section.sentences[left : right + 1]),
                        section_name=section.section_name,
                    )
                )
                stats.samples_emitted += 1
                per_source += 1
                next_free = right + 1
                i = right + 1
    return samples


def _qualify(
    record: PaperRecord,
    cited: list[str | None],
    lookup: Mapping[str, TargetPaper],
    stats: ExtractStats,
) -> list[TargetPaper] | None:
    """Targets for one sentence, or None when it does not qualify."""
    targets: list[TargetPaper] = []
    seen: set[str] = set()
    for pid in cited:
        if pid is None or pid not in lookup:
            stats.unresolved_citations += 1
            continue
        if pid == record.paper_id:
            stats.self_citations += 1
            continue
        if pid in seen:
            continue
        target = lookup[pid]
        if not target.abstract:
            stats.missing_abstract += 1
            continue
        seen.add(pid)
        targets.append(target)
    if len(targets) < 2:
        return None
    if len(targets) > MAX_TARGETS:
        stats.targets_trimmed += len(targets) - MAX_TARGETS
        targets = targets[:MAX_TARGETS]
    return targets


def split_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    fracs = (spec.train_fraction, spec.val_fraction, spec.test_fraction)
    # tiny epsilon so fractions that are exact in decimal do not floor down
    # through float noise
    sizes = [math.floor(n * f + 1e-9) for f in fracs]
    remainder = n - sum(sizes)
    bucket = 0
    while remainder > 0:
        sizes[bucket % 3] += 1
        remainder -= 1
        bucket += 1
    return sizes[0], sizes[1], sizes[2]


def split_dataset(
    samples: list[CitationSample],
    spec: SplitSpec | None = None,
) -> tuple[list[CitationSample], list[CitationSample], list[CitationSample]]:
    """Deterministic seeded partition into train/val/test.

    The same spec always produces the same membership; the three parts are
    disjoint and exhaustive.
    """
    if spec is None:
        spec = SplitSpec()
    n_train, n_val, n_test = split_sizes(len(samples), spec)
    order = list(range(len(samples)))
    random.Random(spec.seed).shuffle(order)
    shuffled = [samples[i] for i in order]
    train = shuffled[:n_train]
    val = shuffled[n_train : n_train + n_val]
    test = shuffled[n_train + n_val :]
    assert len(test) == n_test
    return train, val, test


def compute_stats(samples: list[CitationSample]) -> DatasetStats:
    """Character-level dataset statistics (Unicode scalar counts)."""
    if not samples:
        return DatasetStats()

    citation_lens = [len(s.citation_text) for s in samples]
    source_lens = [len(s.source_abstract) for s in samples]
    target_lens = [len(t.abstract) for s in samples for t in s.targets]
    n_targets = [len(s.targets) for s in samples]

    def avg(xs: list[int]) -> float:
        return sum(xs) / len(xs)

    return DatasetStats(
        n_samples=len(samples),
        n_unique_source_papers=len({s.source_paper_id for s in samples}),
        citation_chars_avg=avg(citation_lens),
        citation_chars_max=max(citation_lens),
        source_abstract_chars_avg=avg(source_lens),
        source_abstract_chars_max=max(source_lens),
        target_abstract_chars_avg=avg(target_lens) if target_lens else 0.0,
        target_abstract_chars_max=max(target_lens) if target_lens else 0,
        avg_targets_per_sample=avg(n_targets),
        empty=False,
    )


def _target_to_dict(target: TargetPaper) -> dict:
    """A target's entry; a null section is left out, as its reader's default."""
    return without_nulls(target)


def sample_encoder(referencing: bool = False) -> Callable[[CitationSample], str]:
    """The row of a sample: its fields and each target's entry, a target that
    is or equals the last one of its paper_id reusing its bytes (see
    `last_entry`). A `referencing` encoder, for a file that holds each paper
    once, writes such a target as its bare id instead and leaves out a source
    abstract that is or equals the last one of its source_paper_id; its table
    keeps each key's last entry with the bytes of its reference, not its own,
    so it holds no paper's text encoded."""
    table: dict = {}

    def encode_target(target: TargetPaper) -> str:
        key = target.paper_id
        if not referencing:
            return last_entry(table, key, target, lambda t: dump_row(_target_to_dict(t)))
        if is_last(table, key, target):
            return table[key][1]
        table[key] = (target, dump_row(key))
        return dump_row(_target_to_dict(target))

    def encode(sample: CitationSample) -> str:
        fields = {
            "schema_version": SCHEMA_VERSION,
            "sample_id": sample.sample_id,
            "source_paper_id": sample.source_paper_id,
            "source_abstract": sample.source_abstract,
            "section_name": sample.section_name,
            "citation_text": sample.citation_text,
        }
        if referencing:
            source = (sample.source_paper_id,)
            if is_last(table, source, sample.source_abstract):
                del fields["source_abstract"]
            else:
                table[source] = (sample.source_abstract, None)
        return dump_object(fields, targets=[encode_target(t) for t in sample.targets])

    return encode


_SAMPLE = {"sample_id": str, "source_paper_id": str, "citation_text": str, "section_name": str, "targets": list}
_SOURCE_ABSTRACT = {"source_abstract": str}
_TARGET = {"paper_id": str, "title": str, "abstract": str, "introduction": (str, None), "conclusion": (str, None)}
_TARGET_DEFAULTS = {"title": "", "abstract": "", "introduction": None, "conclusion": None}


def is_last(papers: dict, key: Any, entry: Any) -> bool:
    """Whether `entry` is or equals the last entry of `key` in `papers`, the
    table of a file by the README's "Each paper once per file", which holds
    each key's last entry and its result."""
    last = papers.get(key)
    return last is not None and (last[0] is entry or last[0] == entry)


def last_entry(papers: dict, key: Any, entry: Any, parse: Callable[[Any], Any]) -> Any:
    """`parse(entry)` for an entry of `key`, raw JSON or an object: the result
    of the last entry of `key` in `papers` when `entry` is or equals it
    (`is_last`), which then needs no parse. JSON equal to it needs no check,
    as a string equals only a string and null only null; a target whose
    paper_id is not a string has the key None, for `parse` to name."""
    if not is_last(papers, key, entry):
        papers[key] = (entry, parse(entry))
    return papers[key][1]


def _target(raw: Any) -> TargetPaper:
    return TargetPaper(*row_fields(raw, _TARGET, _TARGET_DEFAULTS))


def sample_from_dict(row: dict, papers: dict | None = None) -> CitationSample:
    """A sample from its dataset or enriched row. `papers` is the table of its
    file (see `last_entry`), keyed by each target's paper_id and each source's
    (source_paper_id,); without it the row stands alone. A target given as a
    bare id string, or a row without `source_abstract`, takes the last entry
    of its key, and a key with none yet is a ValueError. A text field that is
    not a string is a ValueError; only a target's introduction and conclusion
    may be null. A `schema_version` other than one of `READ_SCHEMA_VERSIONS`,
    as an integer, is a ValueError, checked before any other field."""
    if papers is None:
        papers = {}
    version = row.get("schema_version", SCHEMA_VERSION) if type(row) is dict else SCHEMA_VERSION
    if type(version) is not int or version not in READ_SCHEMA_VERSIONS:
        takes = ", ".join(map(str, READ_SCHEMA_VERSIONS))
        raise ValueError(f"schema_version is {dump_row(version)}; this reader takes {takes}")
    sample_id, source_id, citation, section, raw_targets = row_fields(row, _SAMPLE, {"section_name": ""})
    source = (source_id,)
    if "source_abstract" in row:
        (abstract,) = row_fields(row, _SOURCE_ABSTRACT)
        abstract = last_entry(papers, source, abstract, str)  # rows of one source share one string
    elif source in papers:
        abstract = papers[source][1]
    else:
        raise ValueError(f"source {source_id!r} has no source_abstract in this row or an earlier one")
    targets = []
    for t in raw_targets:
        if type(t) is str:
            last = papers.get(t)
            if last is None:
                raise ValueError(f"target {t!r} is a bare id with no earlier full entry")
            targets.append(last[1])
        else:
            paper_id = t.get("paper_id") if type(t) is dict else None
            targets.append(last_entry(papers, paper_id if type(paper_id) is str else None, t, _target))
    return CitationSample(sample_id, source_id, abstract, targets, citation, section)


def write_dataset(samples: list[CitationSample], path: str | Path, referencing: bool = False) -> dict:
    """Write samples as JSONL, with every row standalone or, `referencing`,
    each paper's text once (see `sample_encoder`); returns the sample count,
    stats digest and builder/schema versions, which the stage records in its
    `.run.json`."""
    encode = sample_encoder(referencing)
    return {
        "samples": write_text(path, (encode(sample) + "\n" for sample in samples)),
        "stats_digest": json_digest(compute_stats(samples).to_dict()),
        "builder_version": __version__,
        "schema_version": SCHEMA_VERSION,
    }


def iter_dataset(path: str | Path) -> Iterator[CitationSample]:
    """The samples of a dataset file, one at a time as it is read; a corrupt
    line fails with its line number when it is reached. Samples share their
    papers by the README's "Each paper once per file", so treat them as
    read-only."""
    papers: dict = {}
    return iter_rows(path, lambda row: sample_from_dict(row, papers))


def read_dataset(path: str | Path) -> list[CitationSample]:
    """Every sample of `iter_dataset`, for callers that need them all at once."""
    return list(iter_dataset(path))
