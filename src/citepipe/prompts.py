"""Prompt composition under a hard token budget.

Prompts follow the instruction/input/response layout: a fixed preamble and
instruction, an input section holding the source abstract, up to three
target abstracts, and optional relation blocks rendered from knowledge
graph triplets, then a response marker. Budgets are enforced with a
character-based token estimate and a fixed truncation ladder that cuts the
least important content first:

  1. target conclusion relation blocks
  2. target introduction relation blocks (and pooled relation blocks)
  3. target conclusion text (only present when explicitly enabled)
  4. target introduction text (only present when explicitly enabled)
  5. target abstracts, tail-trimmed longest first
  6. the source abstract, tail-trimmed but never below 200 estimated tokens

If the ladder runs out the sample does not fit and BudgetExhausted names it.
The block order and each target section's two rungs are stated once, in
`_SECTIONS`; the README's "Prompt files" table shows the same layout.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .config import DEFAULTS
from .dataset import CitationSample, last_entry
from .jsonl import Frozen, Record, write_jsonl
from .kg import EnrichedSample, TripletSet, pooled_triplets, render_triplets

SOURCE_ABSTRACT_FLOOR_TOKENS = 200
RESPONSE_MARKER = "### Response:"

PREAMBLE = (
    "Below is an instruction that describes a task, paired with an input that "
    "provides further context. Write a response that appropriately completes the request."
)

INSTRUCTION = (
    "Write the passage of a research paper that cites all of the target papers, "
    "staying consistent with the source paper's abstract. Cover every target paper's "
    "contribution in the passage."
)


def default_estimator(text: str) -> int:
    """ceil(len/4): the four-characters-per-token rule of thumb."""
    return (len(text) + 3) // 4


class TokenBudget(Frozen):
    __slots__ = ("max_tokens", "reserve_for_response")
    _defaults = {key: DEFAULTS["budget"][key] for key in __slots__}

    def _check(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if not 0 <= self.reserve_for_response < self.max_tokens:
            raise ValueError("reserve_for_response must be below max_tokens")

    @property
    def usable(self) -> int:
        return self.max_tokens - self.reserve_for_response


# the template names a prompt file records; both templates share INSTRUCTION
BASELINE_TEMPLATE = "instruct-baseline"
KG_TEMPLATE = "instruct-kg"


class Truncation(NamedTuple):
    slot: str
    original_len: int
    kept_len: int


class PromptInstance(Record):
    __slots__ = ("sample_id", "template_name", "text", "token_estimate", "truncations", "gold_response")

    def __init__(self, sample_id: str, template_name: str, text: str, token_estimate: int,
                 truncations: list[Truncation] | None = None, gold_response: str | None = None):
        self.sample_id, self.template_name, self.text = sample_id, template_name, text
        self.token_estimate, self.gold_response = token_estimate, gold_response
        self.truncations = [] if truncations is None else truncations


class BudgetExhausted(ValueError):
    """A sample that cannot fit its budget: bad input, so a ValueError."""

    def __init__(self, sample_id: str, budget: int):
        super().__init__(f"sample {sample_id} cannot fit a {budget}-token budget")
        self.sample_id = sample_id


class _Block(Record):
    __slots__ = ("slot", "label", "content", "rung", "header_when_empty", "dropped")

    def __init__(self, slot: str, label: str, content: str, rung: int, header_when_empty: bool = True,
                 dropped: bool = False):
        self.slot, self.label, self.content = slot, label, content
        self.rung = rung  # 0 = never cut by the ladder
        self.header_when_empty, self.dropped = header_when_empty, dropped


def _compose(instruction: str, blocks: list[_Block]) -> str:
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


def _part_len(block: _Block) -> int | None:
    """Length of the block's part of the composed input; None if it has none."""
    if block.dropped:
        return None
    if block.content:
        return len(block.label) + 1 + len(block.content)
    return len(block.label) if block.header_when_empty else None


def _fit(
    instruction: str,
    blocks: list[_Block],
    budget: TokenBudget,
    sample_id: str,
) -> tuple[str, list[Truncation]]:
    """Walk the truncation ladder until the prompt fits, composing it once.

    The composed length is kept as a running total of the parts `_compose`
    joins, so each step costs one part and a trim's kept length is solved for.
    """
    truncations: list[Truncation] = []
    # default_estimator(text) <= usable exactly when len(text) <= 4 * usable
    limit = 4 * budget.usable
    frame = len(_compose(instruction, []))
    present = [n for n in map(_part_len, blocks) if n is not None]
    chars, parts = sum(present), len(present)

    def length() -> int:
        return frame + chars + 2 * max(parts - 1, 0)  # parts are joined by "\n\n"

    def resize(old: int | None, new: int | None) -> None:
        nonlocal chars, parts
        chars += (new or 0) - (old or 0)
        parts += (new is not None) - (old is not None)

    def shrink_to_fit(block: _Block, floor_chars: int) -> bool:
        """Tail-trim `block` to the longest prefix that fits, floored; True if it fits."""
        original = block.content
        resize(_part_len(block), None)
        # a prefix of k >= 1 characters adds a separator and len(label) + 1 + k
        joined = frame + chars + 2 * parts
        best = min(len(original), limit - joined - len(block.label) - 1)
        if best < 1:  # only the empty prefix can fit: the bare header, or nothing
            empty = joined + len(block.label) if block.header_when_empty else length()
            best = 0 if empty <= limit else -1
        fitted = best >= floor_chars
        kept = best if fitted else floor_chars
        block.content = original[:kept]
        resize(None, _part_len(block))
        if kept < len(original):
            truncations.append(Truncation(block.slot, len(original), kept))
        return fitted

    if length() <= limit:
        return _compose(instruction, blocks), truncations

    for rung in (1, 2, 3, 4):
        for block in blocks:
            if block.rung != rung or block.dropped:
                continue
            resize(_part_len(block), None)
            block.dropped = True
            if block.content:
                truncations.append(Truncation(block.slot, len(block.content), 0))
            if length() <= limit:
                return _compose(instruction, blocks), truncations

    while True:
        candidates = [b for b in blocks if b.rung == 5 and not b.dropped and b.content]
        if not candidates:
            break
        longest = max(candidates, key=lambda b: len(b.content))
        if shrink_to_fit(longest, 0):
            return _compose(instruction, blocks), truncations

    for block in blocks:
        if block.rung == 6 and not block.dropped and block.content:
            floor_chars = min(len(block.content), 4 * SOURCE_ABSTRACT_FLOOR_TOKENS)
            if shrink_to_fit(block, floor_chars):
                return _compose(instruction, blocks), truncations

    raise BudgetExhausted(sample_id, budget.max_tokens)


# One row per target section: (section, rung of its text, rung of its relation
# block), in block order. README "Prompt files" shows the same table.
_SECTIONS = (("abstract", 5, 0), ("introduction", 4, 2), ("conclusion", 3, 1))


def _blocks(
    sample: CitationSample,
    include_introductions: bool,
    include_conclusions: bool,
    enriched: EnrichedSample | None = None,
    render_block: Callable[[TripletSet | None], str] | None = None,
    headers: bool = True,
    pooled: bool = False,
    triplet_budget: int | None = None,
) -> Iterator[_Block]:
    """The prompt's blocks in order: the source abstract, then per target its
    section texts. Given `enriched`, the source's relations follow its
    abstract and each target's relation blocks follow its texts, one per
    section or, when `pooled`, one for all its sections."""
    shown = {"introduction": include_introductions, "conclusion": include_conclusions}
    yield _Block("source_abstract", "Source abstract:", sample.source_abstract, rung=6)
    if enriched is not None:
        relations = render_block(enriched.source_triplets)
        yield _Block("source_kg_abstract", "Source abstract relations:", relations, 0, headers)
    per_target = enriched.target_triplets if enriched is not None else [None] * len(sample.targets)
    for k, (target, triplets) in enumerate(zip(sample.targets, per_target), start=1):
        for section, rung, _ in _SECTIONS:
            text = getattr(target, section)
            # an abstract always has its block; a body section only when shown and present
            if section == "abstract" or (shown[section] and text):
                yield _Block(f"target_{section}[{k}]", f"Target paper {k} {section}:", text, rung)
        if triplets is None:
            continue
        if pooled:  # the pooled set is new per sample, so its rendering is not cached
            relations = render_triplets(pooled_triplets(triplets), triplet_budget)
            yield _Block(f"target_kg[{k}]", f"Target paper {k} relations:", relations, 2, headers)
            continue
        for section, _, rung in _SECTIONS:
            relations = render_block(getattr(triplets, section))
            label = f"Target paper {k} {section} relations:"
            yield _Block(f"target_kg_{section}[{k}]", label, relations, rung, headers)


def _instance(
    template_name: str, sample: CitationSample, blocks: Iterable[_Block], budget: TokenBudget | None
) -> PromptInstance:
    """Fit `blocks` under `INSTRUCTION` to `budget` (the default budget when None)."""
    text, truncations = _fit(INSTRUCTION, list(blocks), budget or TokenBudget(), sample.sample_id)
    return PromptInstance(
        sample_id=sample.sample_id,
        template_name=template_name,
        text=text,
        token_estimate=default_estimator(text),
        truncations=truncations,
        gold_response=sample.citation_text,
    )


def render_baseline(
    sample: CitationSample,
    budget: TokenBudget | None = None,
    include_introductions: bool = False,
    include_conclusions: bool = False,
) -> PromptInstance:
    """Compose the plain prompt: source abstract plus target abstracts."""
    blocks = _blocks(sample, include_introductions, include_conclusions)
    return _instance(BASELINE_TEMPLATE, sample, blocks, budget)


def triplet_renderer(triplet_budget: int | None = None) -> Callable[[TripletSet | None], str]:
    """`render_triplets` under `triplet_budget`; a block that is or equals the
    last one of its (paper_id, section) takes its rendering (see `last_entry`)."""
    rendered: dict = {}

    def render(tset: TripletSet | None) -> str:
        if tset is None:
            return ""
        return last_entry(rendered, (tset.paper_id, tset.section), tset, lambda t: render_triplets(t, triplet_budget))

    return render


def render_kg(
    enriched: EnrichedSample,
    budget: TokenBudget | None = None,
    triplet_budget: int | None = None,
    include_empty_kg_headers: bool = True,
    pooled: bool = False,
    include_introductions: bool = False,
    include_conclusions: bool = False,
    render_block: Callable[[TripletSet | None], str] | None = None,
) -> PromptInstance:
    """Compose the relation-augmented prompt.

    Per-section relation blocks follow each target's texts; pooled=True
    collapses a target's sections into one block. triplet_budget keeps only
    the first k triplets of each set. With triplet_budget=0 and headers off
    the output text equals render_baseline's. Samples that share triplet
    blocks can share one `render_block = triplet_renderer(triplet_budget)`,
    which then renders a run of equal blocks once.
    """
    if render_block is None:
        render_block = triplet_renderer(triplet_budget)
    sample = enriched.sample
    blocks = _blocks(
        sample,
        include_introductions,
        include_conclusions,
        enriched,
        render_block,
        headers=include_empty_kg_headers,
        pooled=pooled,
        triplet_budget=triplet_budget,
    )
    return _instance(KG_TEMPLATE, sample, blocks, budget)


def emit_finetune_file(
    instances: Iterable[PromptInstance],
    path: str | Path,
    include_response: bool = True,
) -> dict:
    """Write prompt/response rows as JSONL in one pass over `instances`, which
    may be a generator; returns the prompt count, the templates used and how
    many prompts were truncated, which the stage records in its `.run.json`.
    JSON encoding keeps multi-line prompts one row per line."""
    templates: set[str] = set()
    truncated = 0

    def row(instance: PromptInstance) -> dict:
        nonlocal truncated
        templates.add(instance.template_name)
        truncated += bool(instance.truncations)
        out = {"sample_id": instance.sample_id, "prompt": instance.text}
        if include_response:
            if instance.gold_response is None:
                raise ValueError(f"sample {instance.sample_id} has no gold response")
            out["response"] = instance.gold_response
        return out

    return {
        "prompts": write_jsonl(path, (row(instance) for instance in instances)),
        "templates": sorted(templates),
        "truncated": truncated,
    }
