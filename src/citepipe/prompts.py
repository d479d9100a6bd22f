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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .dataset import CitationSample
from .jsonl import encoded_by_identity, write_jsonl
from .jsonl import read_prompt_file  # noqa: F401  (still importable from here)
from .kg import EnrichedSample, TripletSet, pooled_triplets, render_triplets

DEFAULT_MAX_TOKENS = 2048
DEFAULT_RESERVE = 256
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


@dataclass(frozen=True)
class TokenBudget:
    max_tokens: int = DEFAULT_MAX_TOKENS
    reserve_for_response: int = DEFAULT_RESERVE

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if not 0 <= self.reserve_for_response < self.max_tokens:
            raise ValueError("reserve_for_response must be below max_tokens")

    @property
    def usable(self) -> int:
        return self.max_tokens - self.reserve_for_response


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    instruction: str


BASELINE_TEMPLATE = PromptTemplate(
    name="instruct-baseline",
    instruction=INSTRUCTION,
)

KG_TEMPLATE = PromptTemplate(
    name="instruct-kg",
    instruction=INSTRUCTION,
)


@dataclass
class Truncation:
    slot: str
    original_len: int
    kept_len: int


@dataclass
class PromptInstance:
    sample_id: str
    template_name: str
    text: str
    token_estimate: int
    truncations: list[Truncation] = field(default_factory=list)
    gold_response: str | None = None


class BudgetExhausted(RuntimeError):
    def __init__(self, sample_id: str, budget: int):
        super().__init__(f"sample {sample_id} cannot fit a {budget}-token budget")
        self.sample_id = sample_id


@dataclass
class _Block:
    slot: str
    label: str
    content: str
    rung: int  # 0 = never cut by the ladder
    header_when_empty: bool = True
    dropped: bool = False


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


def _abstract_blocks(
    sample: CitationSample,
    include_introductions: bool,
    include_conclusions: bool,
) -> tuple[_Block, list[list[_Block]]]:
    source = _Block("source_abstract", "Source abstract:", sample.source_abstract, rung=6)
    per_target: list[list[_Block]] = []
    for k, target in enumerate(sample.targets, start=1):
        group = [
            _Block(f"target_abstract[{k}]", f"Target paper {k} abstract:", target.abstract, rung=5)
        ]
        if include_introductions and target.introduction:
            group.append(
                _Block(
                    f"target_introduction[{k}]",
                    f"Target paper {k} introduction:",
                    target.introduction,
                    rung=4,
                )
            )
        if include_conclusions and target.conclusion:
            group.append(
                _Block(
                    f"target_conclusion[{k}]",
                    f"Target paper {k} conclusion:",
                    target.conclusion,
                    rung=3,
                )
            )
        per_target.append(group)
    return source, per_target


def render_baseline(
    sample: CitationSample,
    budget: TokenBudget | None = None,
    include_introductions: bool = False,
    include_conclusions: bool = False,
) -> PromptInstance:
    """Compose the plain prompt: source abstract plus target abstracts."""
    budget = budget or TokenBudget()
    source, per_target = _abstract_blocks(sample, include_introductions, include_conclusions)
    blocks = [source]
    for group in per_target:
        blocks.extend(group)
    text, truncations = _fit(BASELINE_TEMPLATE.instruction, blocks, budget, sample.sample_id)
    return PromptInstance(
        sample_id=sample.sample_id,
        template_name=BASELINE_TEMPLATE.name,
        text=text,
        token_estimate=default_estimator(text),
        truncations=truncations,
        gold_response=sample.citation_text,
    )


def triplet_renderer(triplet_budget: int | None = None) -> Callable[[TripletSet | None], str]:
    """`render_triplets` under `triplet_budget`, run once per distinct block
    object for as long as the returned function is kept."""
    return encoded_by_identity(lambda tset: render_triplets(tset, triplet_budget))


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

    Per-section relation blocks follow each abstract; pooled=True collapses a
    target's sections into one block. triplet_budget keeps only the first k
    triplets of each set. With triplet_budget=0 and headers off the output
    text equals render_baseline's. Samples that share triplet blocks can
    share one `render_block = triplet_renderer(triplet_budget)`, which then
    renders each block once.
    """
    budget = budget or TokenBudget()
    if render_block is None:
        render_block = triplet_renderer(triplet_budget)
    sample = enriched.sample
    source, per_target = _abstract_blocks(sample, include_introductions, include_conclusions)

    blocks: list[_Block] = [
        source,
        _Block(
            "source_kg_abstract",
            "Source abstract relations:",
            render_block(enriched.source_triplets),
            rung=0,
            header_when_empty=include_empty_kg_headers,
        ),
    ]
    for k, group in enumerate(per_target, start=1):
        blocks.extend(group)
        tt = enriched.target_triplets[k - 1]
        if pooled:
            blocks.append(
                _Block(
                    f"target_kg[{k}]",
                    f"Target paper {k} relations:",
                    render_triplets(pooled_triplets(tt), triplet_budget),
                    rung=2,
                    header_when_empty=include_empty_kg_headers,
                )
            )
        else:
            blocks.append(
                _Block(
                    f"target_kg_abstract[{k}]",
                    f"Target paper {k} abstract relations:",
                    render_block(tt.abstract),
                    rung=0,
                    header_when_empty=include_empty_kg_headers,
                )
            )
            blocks.append(
                _Block(
                    f"target_kg_introduction[{k}]",
                    f"Target paper {k} introduction relations:",
                    render_block(tt.introduction),
                    rung=2,
                    header_when_empty=include_empty_kg_headers,
                )
            )
            blocks.append(
                _Block(
                    f"target_kg_conclusion[{k}]",
                    f"Target paper {k} conclusion relations:",
                    render_block(tt.conclusion),
                    rung=1,
                    header_when_empty=include_empty_kg_headers,
                )
            )

    text, truncations = _fit(KG_TEMPLATE.instruction, blocks, budget, sample.sample_id)
    return PromptInstance(
        sample_id=sample.sample_id,
        template_name=KG_TEMPLATE.name,
        text=text,
        token_estimate=default_estimator(text),
        truncations=truncations,
        gold_response=sample.citation_text,
    )


def emit_finetune_file(
    instances: Iterable[PromptInstance],
    path: str | Path,
    include_response: bool = True,
) -> dict:
    """Write prompt/response rows as JSONL in one pass over `instances`, which
    may be a generator; returns the prompt count, the templates used, how many
    prompts were truncated and `with_responses`, which the stage records in
    its `.run.json`. JSON encoding keeps multi-line prompts one row per line."""
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
        "with_responses": include_response,
    }
