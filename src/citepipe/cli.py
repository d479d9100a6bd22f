"""Command-line interface for the pipeline.

Every stage is a subcommand reading and writing plain files, so stages can
be re-run, inspected, and chained by hand. The configuration (`--config`
over `config.DEFAULTS`) supplies each command's option defaults, so a flag
wins over the file and the file over the built-in value. Exit codes: 0
success, 1 bad usage or bad input data, 2 environment failures (unreadable
files, endpoint errors).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .config import config_from_dict, load_config, write_run_manifest
from .jsonl import read_generations, read_prompt_file, write_json

if TYPE_CHECKING:
    from .dataset import DatasetStats

# The layer names the commands call, by module. Each command binds the
# names of its own layers when it starts (`_bind`), so a command imports only
# what it runs; any other access is bound on first use by the module
# `__getattr__`. A name already bound is kept: whatever wraps one, like the
# benchmark's tracer, must set its wrapper before the command runs.
_LAYERS = {
    "corpus": ("CorpusFilter", "IngestStats", "corpus_files", "stream_corpus"),
    "dataset": (
        "ExtractStats",
        "SplitSpec",
        "build_lookup",
        "compute_stats",
        "extract_samples",
        "read_dataset",
        "split_dataset",
        "write_dataset",
    ),
    "kg": (
        "SCIERC_RELATIONS",
        "AttachStats",
        "attach_triplets",
        "load_triplets",
        "read_enriched",
        "write_enriched",
    ),
    "prompts": ("TokenBudget", "emit_finetune_file", "render_baseline", "render_kg", "triplet_renderer"),
    "client": ("ClientPolicy", "GenerationRequest", "generate_batch", "request_summary"),
    "metrics": ("evaluate_corpus", "render_report_table", "report_from_dict", "report_to_dict"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}


def _bind(*layers: str) -> None:
    """Import `layers` and bind those of their names not bound yet."""
    bound = globals()
    for layer in layers:
        module = None
        for name in _LAYERS[layer]:
            if name not in bound:
                module = module or importlib.import_module(f"{__package__}.{layer}")
                bound[name] = getattr(module, name)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(layer)
    return globals()[name]


def _loaded(layer: str, error: str) -> tuple[type, ...]:
    """The error class `error` of `layer`, or none when the layer was never
    imported, since then nothing can have raised it."""
    module = sys.modules.get(f"{__package__}.{layer}")
    return (getattr(module, error),) if module else ()


AUTH_TOKEN_ENV = "CITEPIPE_API_TOKEN"


@click.group()
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="YAML config file; flags override its values.",
)
@click.pass_context
def cli(ctx: click.Context, config_path: str | None):
    """Citation-text pipeline: build, split, enrich, prompt, generate, evaluate."""
    config = load_config(config_path) if config_path else config_from_dict({})
    ctx.ensure_object(dict)["config"] = config
    # each command's option defaults, keyed by parameter name; a flag still wins
    ctx.default_map = {
        "build": {"corpus_path": config["paths"]["corpus"], "fields": config["filter"]["fields_of_study"]},
        "split": config["split"],
        "kg-merge": {"triplets_path": config["paths"]["triplets"]},
        "prompts": config["budget"],
        "generate": config["endpoint"],
    }


@cli.command()
@click.option("--corpus", "corpus_path", help="Corpus JSONL file or shard directory.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--field",
    "fields",
    multiple=True,
    help="Field of study to keep (repeatable); default from config.",
)
@click.option("--max-samples-per-source", type=int, default=None, help="Cap per source paper.")
@click.pass_context
def build(ctx, corpus_path, out_path, fields, max_samples_per_source):
    """Extract citation samples from a corpus into a dataset file."""
    _bind("corpus", "dataset")
    corpus_filter = CorpusFilter(fields_of_study=frozenset(fields))

    ingest = IngestStats()
    lookup = build_lookup(stream_corpus(corpus_path, corpus_filter, ingest))
    extract = ExtractStats()
    samples = list(
        extract_samples(
            stream_corpus(corpus_path, corpus_filter),
            lookup,
            max_per_source=max_samples_per_source,
            stats=extract,
        )
    )
    written = write_dataset(samples, out_path)
    write_run_manifest(
        out_path,
        "build",
        list(corpus_files(corpus_path)),
        ctx.obj["config"],
        counts={**written, "ingest": asdict(ingest), "extract": asdict(extract)},
    )
    click.echo(
        f"read {ingest.records_yielded} record(s) from {ingest.files_read} file(s); "
        f"skipped {ingest.skipped}, filtered out {ingest.filtered_out}"
    )
    click.echo(f"wrote {len(samples)} sample(s) to {out_path}")


def _stats_table(stats: DatasetStats) -> str:
    def count(x: int) -> str:
        return f"{x:,}"

    def mean(x: float) -> str:
        return f"{x:.2f}"

    rows = [
        ("# citations", count(stats.n_samples)),
        ("# unique papers", count(stats.n_unique_source_papers)),
        ("CITATIONS  Avg # characters", mean(stats.citation_chars_avg)),
        ("CITATIONS  Max # characters", count(stats.citation_chars_max)),
        ("SOURCE ABSTRACTS  Avg # characters", mean(stats.source_abstract_chars_avg)),
        ("SOURCE ABSTRACTS  Max # characters", count(stats.source_abstract_chars_max)),
        ("TARGET ABSTRACTS  Avg # characters", mean(stats.target_abstract_chars_avg)),
        ("TARGET ABSTRACTS  Max # characters", count(stats.target_abstract_chars_max)),
        ("Avg # of Targets per sample", mean(stats.avg_targets_per_sample)),
    ]
    label_width = max(len(label) for label, _ in rows)
    value_width = max(len(value) for _, value in rows)
    return "\n".join(
        f"{label.ljust(label_width)}  {value.rjust(value_width)}" for label, value in rows
    )


@cli.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Print the statistics as JSON instead.")
@click.pass_context
def stats(ctx, dataset_path, as_json):
    """Print dataset statistics."""
    _bind("dataset")
    dataset_stats = compute_stats(read_dataset(dataset_path))
    if as_json:
        click.echo(json.dumps(dataset_stats.to_dict(), indent=2, sort_keys=True))
    else:
        click.echo(_stats_table(dataset_stats))


@cli.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int)
@click.option("--train", type=float)
@click.option("--validation", type=float)
@click.option("--test", type=float)
@click.pass_context
def split(ctx, dataset_path, out_dir, seed, train, validation, test):
    """Partition a dataset into train/validation/test files."""
    _bind("dataset")
    spec = SplitSpec(train_fraction=train, val_fraction=validation, test_fraction=test, seed=seed)
    samples = read_dataset(dataset_path)
    parts = split_dataset(samples, spec)
    os.makedirs(out_dir, exist_ok=True)
    sizes = []
    digests: dict = {}  # the three manifests hash the dataset once
    for name, part in zip(("train", "validation", "test"), parts):
        part_path = Path(out_dir) / f"{name}.jsonl"
        written = write_dataset(part, part_path)
        write_run_manifest(
            part_path,
            f"split:{name}",
            [dataset_path],
            ctx.obj["config"],
            counts={**written, "seed": spec.seed},
            digests=digests,
        )
        sizes.append(len(part))
    click.echo(
        f"split {len(samples)} sample(s) into {sizes[0]}/{sizes[1]}/{sizes[2]} "
        f"under {out_dir} (seed {spec.seed})"
    )


@cli.command("kg-merge")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--triplets", "triplets_path", help="Triplet JSONL file.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--scierc-vocabulary",
    is_flag=True,
    help="Count relations outside the SciERC vocabulary as unknown.",
)
@click.pass_context
def kg_merge(ctx, dataset_path, triplets_path, out_path, scierc_vocabulary):
    """Join knowledge-graph triplets onto dataset samples."""
    _bind("dataset", "kg")
    if not triplets_path:
        raise click.UsageError("no triplet file given (--triplets or paths.triplets)")
    samples = read_dataset(dataset_path)
    store = load_triplets(triplets_path, vocabulary=SCIERC_RELATIONS if scierc_vocabulary else None)
    attach = AttachStats()
    enriched = attach_triplets(samples, store, attach)
    write_enriched(enriched, out_path)
    write_run_manifest(
        out_path,
        "kg-merge",
        [dataset_path, triplets_path],
        ctx.obj["config"],
        counts={"ingest": asdict(store.stats), "attach": asdict(attach)},
    )
    click.echo(
        f"enriched {attach.samples_enriched} sample(s); "
        f"{attach.samples_without_target_triplets} without target relations; "
        f"{attach.orphan_papers} orphan paper(s) in the triplet store"
    )


@cli.command()
@click.option("--dataset", "dataset_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--enriched", "enriched_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["baseline", "kg"]), default="baseline")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--max-tokens", type=int)
@click.option("--reserve", "reserve_for_response", type=int, help="Tokens held back for the response.")
@click.option("--triplet-budget", type=int, help="Keep first k triplets per block.")
@click.option("--empty-kg-headers/--no-empty-kg-headers", default=True)
@click.option("--pooled", is_flag=True, help="One pooled relation block per target.")
@click.option("--include-introductions", is_flag=True)
@click.option("--include-conclusions", is_flag=True)
@click.option("--responses/--no-responses", default=True, help="Include gold responses.")
@click.pass_context
def prompts(
    ctx,
    dataset_path,
    enriched_path,
    mode,
    out_path,
    max_tokens,
    reserve_for_response,
    triplet_budget,
    empty_kg_headers,
    pooled,
    include_introductions,
    include_conclusions,
    responses,
):
    """Compose budgeted prompts from a dataset or an enriched dataset."""
    _bind("dataset", "kg", "prompts")
    budget = TokenBudget(max_tokens=max_tokens, reserve_for_response=reserve_for_response)
    if mode == "baseline":
        if dataset_path is None:
            raise click.UsageError("--mode baseline needs --dataset")
        samples = read_dataset(dataset_path)
        # rendered one row at a time as the file is written, never all held
        instances = (
            render_baseline(s, budget, include_introductions, include_conclusions)
            for s in samples
        )
        input_path = dataset_path
    else:
        if enriched_path is None:
            raise click.UsageError("--mode kg needs --enriched")
        blocks = triplet_renderer(triplet_budget)  # each shared triplet block rendered once
        instances = (
            render_kg(
                es,
                budget,
                triplet_budget=triplet_budget,
                render_block=blocks,
                include_empty_kg_headers=empty_kg_headers,
                pooled=pooled,
                include_introductions=include_introductions,
                include_conclusions=include_conclusions,
            )
            for es in read_enriched(enriched_path)
        )
        input_path = enriched_path
    written = emit_finetune_file(instances, out_path, include_response=responses)
    write_run_manifest(
        out_path,
        "prompts",
        [input_path],
        ctx.obj["config"],
        counts={**written, "mode": mode},
    )
    click.echo(
        f"wrote {written['prompts']} prompt(s) to {out_path}; "
        f"{written['truncated']} truncated to fit {budget.max_tokens} tokens"
    )


@cli.command()
@click.option("--prompts", "prompts_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--endpoint", "url")
@click.option("--max-parallel", type=int)
@click.option("--max-attempts", type=int)
@click.option("--backoff-seconds", type=float)
@click.option("--timeout-seconds", type=float)
@click.option("--max-new-tokens", type=int)
@click.option("--temperature", type=float)
@click.pass_context
def generate(
    ctx,
    prompts_path,
    out_path,
    url,
    max_parallel,
    max_attempts,
    backoff_seconds,
    timeout_seconds,
    max_new_tokens,
    temperature,
):
    """Send prompts to the generation endpoint, resuming any partial output.

    Bearer auth comes from the CITEPIPE_API_TOKEN environment variable.
    """
    _bind("client")
    cfg = ctx.obj["config"]
    policy = ClientPolicy(
        max_parallel=max_parallel,
        max_attempts=max_attempts,
        backoff_seconds=backoff_seconds,
        backoff_multiplier=cfg["endpoint"]["backoff_multiplier"],  # config-only, no flag
        timeout_seconds=timeout_seconds,
    )
    rows = read_prompt_file(prompts_path)
    batch = []
    for row in rows:
        if "sample_id" not in row or "prompt" not in row:
            raise ValueError(f"{prompts_path}: prompt rows need sample_id and prompt fields")
        batch.append(
            GenerationRequest(
                sample_id=row["sample_id"],
                prompt=row["prompt"],
                max_new_tokens=max_new_tokens,
                temperature=temperature,
            )
        )
    results = generate_batch(
        batch,
        url,
        policy,
        out_path=out_path,
        auth_token=os.environ.get(AUTH_TOKEN_ENV),
    )
    reused = sum(1 for r in results if r.attempt == 0)
    write_run_manifest(
        out_path,
        "generate",
        [prompts_path],
        cfg,
        counts={"generated": len(results), "reused": reused},
    )
    click.echo(
        f"generated {len(results)} completion(s) to {out_path} "
        f"({reused} reused from a previous run)"
    )
    click.echo(request_summary(results), err=True)


@cli.command()
@click.option("--generated", "generated_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "report_path", required=True, type=click.Path(dir_okay=False))
@click.option("--label", default="model", help="Row label in the printed table.")
@click.pass_context
def evaluate(ctx, generated_path, dataset_path, report_path, label):
    """Score generated texts against gold citation passages."""
    _bind("dataset", "metrics")
    gold = {s.sample_id: s.citation_text for s in read_dataset(dataset_path)}
    generated = read_generations(generated_path)
    unknown = sorted(set(generated) - set(gold))
    if unknown:
        raise ValueError(f"generated sample(s) missing from the dataset: {', '.join(unknown[:3])}")
    ids = sorted(generated)
    report = evaluate_corpus([(generated[i], gold[i]) for i in ids], sample_ids=ids)
    write_json(report_path, {"label": label, **report_to_dict(report)})
    write_run_manifest(
        report_path,
        "evaluate",
        [generated_path, dataset_path],
        ctx.obj["config"],
        counts={"scored": report.n},
    )
    click.echo(render_report_table(report, label), nl=False)


@cli.command("report")
@click.option("--report", "report_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--label", default=None, help="Override the stored row label.")
def report_cmd(report_path, label):
    """Re-render a stored evaluation report."""
    _bind("metrics")
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    report = report_from_dict(payload)
    click.echo(render_report_table(report, label or payload.get("label", "corpus")), nl=False)


@cli.group()
def numerics():
    """Quantization and optimizer demonstrations."""


@numerics.command("quantile-map")
@click.option("--bits", type=int, default=4)
@click.option("--symmetric/--asymmetric", "symmetric", default=True)
def quantile_map_cmd(bits, symmetric):
    """Print the quantile bin values for an n-bit code."""
    from .numerics import build_quantile_map  # only the numerics commands need it

    qmap = build_quantile_map(bits, symmetric=symmetric)
    click.echo(f"n_bits={qmap.n_bits} symmetric={qmap.symmetric} normalization={qmap.normalization}")
    for index, value in enumerate(qmap.bins):
        click.echo(f"{index:4d}  {value!r}")


@numerics.command("optimize")
@click.option("--curvatures", default="1.0", help="Comma-separated quadratic curvatures.")
@click.option("--x0", default=None, help="Comma-separated start point; default all ones.")
@click.option("--steps", type=int, default=500)
@click.option("--lr", type=float, default=0.1)
@click.option("--mode", type=click.Choice(["paper", "standard"]), default="paper")
@click.option("--warmup", type=int, default=None, help="Warmup steps (needs --total).")
@click.option("--total", type=int, default=None, help="Total schedule steps; enables the schedule.")
@click.option("--weight-decay", type=float, default=0.0)
def optimize_cmd(curvatures, x0, steps, lr, mode, warmup, total, weight_decay):
    """Minimize a quadratic and print the trajectory as CSV."""
    from .numerics import LrSchedule, minimize, quadratic  # only the numerics commands need it

    curves = [float(c) for c in curvatures.split(",") if c.strip()]
    if not curves:
        raise click.UsageError("--curvatures needs at least one value")
    start = [float(v) for v in x0.split(",")] if x0 else [1.0] * len(curves)
    if len(start) != len(curves):
        raise click.UsageError("--x0 dimension must match --curvatures")
    schedule = None
    if total is not None:
        schedule = LrSchedule(base_lr=lr, warmup_steps=warmup or 0, total_steps=total)
    elif warmup is not None:
        raise click.UsageError("--warmup needs --total")
    trajectory = minimize(
        quadratic(curves),
        start,
        steps=steps,
        lr=lr,
        schedule=schedule,
        mode=mode,
        weight_decay=weight_decay,
    )
    click.echo("step,value," + ",".join(f"w{i}" for i in range(len(curves))))
    for point in trajectory:
        coords = ",".join(f"{w:.12g}" for w in point.w)
        click.echo(f"{point.step},{point.value:.12g},{coords}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with stable exit codes: 0 ok, 1 bad usage/data, 2 environment."""
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except Exception as exc:
        bad_input = (*_loaded("prompts", "BudgetExhausted"), ValueError)
        environment = (*_loaded("dataset", "DatasetReadError"), *_loaded("client", "EndpointError"), OSError)
        if isinstance(exc, bad_input):
            code = 1
        elif isinstance(exc, environment):
            code = 2
        else:
            raise
        click.echo(f"error: {exc}", err=True)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
