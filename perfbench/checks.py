"""Output checks for one pass of the command chain.

Each check compares a command's output with the planted truth, or with a
property the method must have, using code of its own rather than the
program's: the split size rule, the token estimate, ROUGE, the METEOR
per-class match maximum and the corpus means are all recomputed here.
A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from gen import Truth, tokens, word_class

SPLIT_FRACTIONS = (0.8006, 0.0997, 0.0997)
MAX_TOKENS, RESERVE = 2048, 256
ROUGE_TOLERANCE = 1e-9


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _counts(path: Path) -> dict:
    with open(str(path) + ".run.json", encoding="utf-8") as fh:
        return json.load(fh)["counts"]


def _first(problems: list[str], limit: int = 5) -> list[str]:
    return problems[:limit] + ([f"... {len(problems) - limit} more"] if len(problems) > limit else [])


def check_build(dataset: Path, truth: Truth) -> list[str]:
    problems = []
    expected = {s.sample_id: s for s in truth.samples}
    rows = _rows(dataset)
    if sorted(r["sample_id"] for r in rows) != sorted(expected):
        problems.append(f"sample ids differ from the planted {len(expected)}")
    for row in rows:
        want = expected.get(row["sample_id"])
        if want is None:
            continue
        got_targets = tuple(t["paper_id"] for t in row["targets"])
        if row["source_paper_id"] != want.source or got_targets != want.targets:
            problems.append(f"{row['sample_id']}: source or targets differ")
        elif row["citation_text"] != want.passage:
            problems.append(f"{row['sample_id']}: passage differs")
        elif row["source_abstract"] != truth.abstracts[want.source] or any(
            t["abstract"] != truth.abstracts[t["paper_id"]] for t in row["targets"]
        ):
            problems.append(f"{row['sample_id']}: an abstract differs")
    counts = _counts(dataset)
    if counts.get("ingest") != truth.ingest:
        problems.append(f"ingest tallies {counts.get('ingest')} != planted {truth.ingest}")
    if counts.get("extract") != truth.extract:
        problems.append(f"extract tallies {counts.get('extract')} != planted {truth.extract}")
    return _first(problems)


def split_sizes(n: int) -> list[int]:
    """Floor each fraction of n, then hand out the remainder in train, val, test order."""
    sizes = [math.floor(n * f + 1e-9) for f in SPLIT_FRACTIONS]
    for k in range(n - sum(sizes)):
        sizes[k % 3] += 1
    return sizes


def check_split(split_dir: Path, dataset_ids: list[str]) -> list[str]:
    parts = [[r["sample_id"] for r in _rows(split_dir / f"{name}.jsonl")] for name in ("train", "validation", "test")]
    problems = []
    if [len(p) for p in parts] != split_sizes(len(dataset_ids)):
        problems.append(f"split sizes {[len(p) for p in parts]} != {split_sizes(len(dataset_ids))}")
    joined = [i for p in parts for i in p]
    if len(set(joined)) != len(joined):
        problems.append("split parts overlap")
    if set(joined) != set(dataset_ids):
        problems.append("split parts do not cover the dataset")
    return problems


def _triplets(block: dict | None) -> list[tuple[str, str, str]] | None:
    if block is None:
        return None
    return [(t["head"], t["relation"], t["tail"]) for t in block["triplets"]]


def check_kg(enriched: Path, truth: Truth) -> list[str]:
    problems = []
    referenced: set[str] = set()
    without = 0
    rows = _rows(enriched)
    for row in rows:
        sample = row["sample"]
        referenced.add(sample["source_paper_id"])
        if _triplets(row["source_triplets"]) != truth.triplets.get((sample["source_paper_id"], "abstract"), []):
            problems.append(f"{sample['sample_id']}: source triplets differ")
        any_target = False
        for tt in row["target_triplets"]:
            referenced.add(tt["paper_id"])
            for section in ("abstract", "introduction", "conclusion"):
                want = truth.triplets.get((tt["paper_id"], section))
                if _triplets(tt[section]) != want:
                    problems.append(f"{sample['sample_id']}: {tt['paper_id']} {section} triplets differ")
                any_target = any_target or bool(want)
        without += not any_target
        if row["missing_target_triplets"] == any_target:
            problems.append(f"{sample['sample_id']}: missing_target_triplets flag is wrong")
    counts = _counts(enriched)
    if counts.get("ingest") != truth.kg_ingest:
        problems.append(f"triplet tallies {counts.get('ingest')} != planted {truth.kg_ingest}")
    attach = {
        "samples_enriched": len(rows),
        "samples_without_target_triplets": without,
        "orphan_papers": len({pid for pid, _ in truth.triplets} - referenced),
    }
    if counts.get("attach") != attach:
        problems.append(f"attach tallies {counts.get('attach')} != {attach}")
    return _first(problems)


def check_prompts(prompts: Path, truth: Truth, expect_untruncated: bool) -> list[str]:
    problems = []
    expected = {s.sample_id: s for s in truth.samples}
    rows = _rows(prompts)
    if sorted(r["sample_id"] for r in rows) != sorted(expected):
        problems.append("prompt ids differ from the planted samples")
    incomplete = 0
    for row in rows:
        sample = expected.get(row["sample_id"])
        if sample is None:
            continue
        if (len(row["prompt"]) + 3) // 4 > MAX_TOKENS - RESERVE:
            problems.append(f"{sample.sample_id}: prompt over the {MAX_TOKENS - RESERVE}-token budget")
        if row.get("response") != sample.passage:
            problems.append(f"{sample.sample_id}: response is not the gold passage")
        incomplete += not all(truth.abstracts[p] in row["prompt"] for p in (sample.source, *sample.targets))
    truncated = _counts(prompts).get("truncated")
    if incomplete > truncated:
        problems.append(f"{incomplete} prompt(s) lack an abstract but only {truncated} were truncated")
    if expect_untruncated and truncated != 0:
        problems.append(f"{truncated} prompt(s) truncated where every prompt fits")
    return _first(problems)


def check_generated(
    generated: Path, expected: dict[str, str], requested: list[str | None], prewritten: set[str]
) -> list[str]:
    """`expected` maps sample id to the mock's answer; `requested` is the mock's log."""
    problems = []
    with open(generated, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        problems.append("generated file does not end with a newline")
    rows = [json.loads(line) for line in lines[:-1]]
    ids = [r["sample_id"] for r in rows]
    if ids != sorted(expected):
        problems.append(f"generated file holds {len(ids)} row(s), not one sorted row per {len(expected)} prompt(s)")
    for row in rows:
        if row["text"] != expected.get(row["sample_id"]):
            problems.append(f"{row['sample_id']}: text is not the mock's answer")
    if None in requested:
        problems.append(f"{requested.count(None)} request(s) carried a prompt with no planted answer")
        requested = [r for r in requested if r is not None]
    if set(requested) & prewritten:
        problems.append(f"{len(set(requested) & prewritten)} pre-written row(s) were requested again")
    if sorted(requested) != sorted(set(expected) - prewritten):
        problems.append("the mock did not see exactly one request per missing row")
    return _first(problems)


def _clipped_overlap(cand: list, ref: list) -> int:
    ref_counts = Counter(ref)
    return sum(min(n, ref_counts[g]) for g, n in Counter(cand).items())


def _prf(overlap: int, n_cand: int, n_ref: int) -> tuple[float, float, float]:
    p, r = overlap / max(1, n_cand), overlap / max(1, n_ref)
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def _lcs(a: list[str], b: list[str]) -> int:
    row = [0] * (len(b) + 1)
    for x in a:
        diag = 0
        for j, y in enumerate(b, start=1):
            diag, row[j] = row[j], diag + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


def reference_rouge(cand: list[str], ref: list[str]) -> dict[str, tuple[float, float, float]]:
    bigrams = lambda t: list(zip(t, t[1:]))  # noqa: E731
    return {
        "Rouge-1": _prf(_clipped_overlap(cand, ref), len(cand), len(ref)),
        "Rouge-2": _prf(_clipped_overlap(bigrams(cand), bigrams(ref)), len(cand) - 1, len(ref) - 1),
        "Rouge-L": _prf(_lcs(cand, ref), len(cand), len(ref)),
    }


def max_matches(cand: list[str], ref: list[str]) -> int:
    """Exact matches per surface class, then stem matches per class on the leftovers."""
    cc, rc = Counter(cand), Counter(ref)
    exact = _clipped_overlap(cand, ref)
    left_c, left_r = Counter(), Counter()
    for tok, n in cc.items():
        left_c[word_class(tok)] += n - min(n, rc[tok])
    for tok, n in rc.items():
        left_r[word_class(tok)] += n - min(n, cc[tok])
    return exact + sum(min(n, left_r[c]) for c, n in left_c.items())


def _meteor_bounds(matches: int, n_cand: int, n_ref: int) -> tuple[float, float]:
    p, r = matches / n_cand, matches / n_ref
    fmean = 10 * p * r / (r + 9 * p)
    return fmean * 0.5, fmean * (1 - 0.5 / matches**3)


def check_report(report: Path, pairs: dict[str, tuple[str, str]], verbatim: set[str]) -> list[str]:
    """`pairs` maps sample id to (generated text, gold passage)."""
    problems = []
    with open(report, encoding="utf-8") as fh:
        payload = json.load(fh)
    ids = sorted(pairs)
    rows = payload["per_sample"]
    if payload["n"] != len(ids) or [r.get("sample_id") for r in rows] != ids:
        return [f"report scores {payload['n']} sample(s), expected {len(ids)} in id order"]
    for row in rows:
        sid = row["sample_id"]
        cand, ref = (tokens(t) for t in pairs[sid])
        for metric, want in reference_rouge(cand, ref).items():
            got = (row[metric]["precision"], row[metric]["recall"], row[metric]["f"])
            if any(abs(g - w) > ROUGE_TOLERANCE for g, w in zip(got, want)):
                problems.append(f"{sid}: {metric} {got} != {want}")
        m = row["METEOR"]
        matches = max_matches(cand, ref)
        if matches == 0:
            if m["f"] != 0.0:
                problems.append(f"{sid}: METEOR {m['f']} with no matches")
            continue
        if abs(m["precision"] * len(cand) - matches) > 1e-6 or abs(m["recall"] * len(ref) - matches) > 1e-6:
            problems.append(f"{sid}: METEOR matched {m['precision'] * len(cand):.3f}, class maximum {matches}")
            continue
        low, high = _meteor_bounds(matches, len(cand), len(ref))
        if not low - 1e-12 <= m["f"] <= high + 1e-12:
            problems.append(f"{sid}: METEOR {m['f']} outside [{low}, {high}]")
        if sid in verbatim and abs(m["f"] - (1 - 0.5 / len(ref) ** 3)) > 1e-12:
            problems.append(f"{sid}: verbatim METEOR {m['f']} != 1 - 0.5/{len(ref)}^3")
    for column in ("METEOR", "Rouge-1", "Rouge-2", "Rouge-L"):
        mean = round(100 * sum(r[column]["f"] for r in rows) / len(rows), 2)
        if payload["corpus"][column] != mean:
            problems.append(f"corpus {column} {payload['corpus'][column]} != {mean}")
    return _first(problems)
