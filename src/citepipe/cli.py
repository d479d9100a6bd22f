"""Command-line interface for the pipeline.

Every stage is a subcommand reading and writing plain files, so stages can
be re-run, inspected, and chained by hand. The configuration (`--config`
over `config.DEFAULTS`) supplies the value of each flag it feeds when the
flag is not given, so a flag wins over the file and the file over the
built-in value. Exit codes follow the error's type alone: 0 success, 1 bad
usage or a ValueError (bad data), 2 an OSError (environment failures such as
unreadable files or endpoint errors); each layer's errors subclass one of them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import config_from_dict, load_config, read_run_manifest, run_manifest_path, write_run_manifest
from .jsonl import is_type, iter_rows, read_generations, row_fields, write_json_rows
# no command calls it now, but code that wraps this module's names before a
# command runs, like the benchmark's tracer, still expects to find it here
from .jsonl import read_prompt_file  # noqa: F401

if TYPE_CHECKING:
    from .dataset import DatasetStats

# The layer names the commands call, by module. Each command binds the
# names of its own layers when it starts (`_bind`), so a command imports only
# what it runs; any other access is bound on first use by the module
# `__getattr__`. A name already bound is kept: whatever wraps one, like the
# benchmark's tracer, must set its wrapper before the command runs.
_LAYERS = {
    "corpus": ("IngestStats", "corpus_files", "stream_corpus"),
    "dataset": (
        "ExtractStats",
        "SplitSpec",
        "build_lookup",
        "compute_stats",
        "extract_samples",
        "iter_dataset",
        "read_dataset",
        "split_dataset",
        "write_dataset",
    ),
    "kg": (
        "SCIERC_RELATIONS",
        "AttachStats",
        "attach_triplets",
        "iter_enriched",
        "load_triplets",
        "read_enriched",
        "write_enriched",
    ),
    "prompts": ("TokenBudget", "emit_finetune_file", "render_baseline", "render_kg", "triplet_renderer"),
    "client": ("ClientPolicy", "GenerationRequest", "generate_batch", "request_summary"),
    # `evaluate` writes the report's encoded rows and calls no `report_to_dict`,
    # but a wrapper like the benchmark's tracer still expects to find it here
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


AUTH_TOKEN_ENV = "CITEPIPE_API_TOKEN"


class UsageError(Exception):
    """Bad command-line usage, found by the parser or by a command through
    its `args.parser.error`; `main` prints the message and exits 1."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated flags and raises
    `UsageError` where argparse would print its usage and exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise UsageError(f"{self.prog}: error: {message}")

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except UsageError:
            # a command's parser reports a flag it does not know before a
            # missing one, which argparse would name first
            if self.get_default("run") is None:
                raise
            known = self._option_string_actions
            unknown = [a for a in args if a.startswith("-") and a.partition("=")[0] not in known]
            if unknown:
                self.error(f"unrecognized arguments: {' '.join(unknown)}")
            raise


def _input_file(value: str) -> str:
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    if not os.path.exists(value):
        raise argparse.ArgumentTypeError(f"{value!r} does not exist")
    return value


def _output_file(value: str) -> str:
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    return value


def _output_dir(value: str) -> str:
    if os.path.exists(value) and not os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is not a directory")
    return value


def build(args: argparse.Namespace) -> None:
    """Extract citation samples from a corpus into a dataset file."""
    _bind("corpus", "dataset")
    ingest = IngestStats()
    lookup = build_lookup(stream_corpus(args.corpus, args.fields, ingest))
    extract = ExtractStats()
    samples = extract_samples(
        stream_corpus(args.corpus, args.fields),
        lookup,
        max_per_source=args.max_samples_per_source,
        stats=extract,
    )
    written = write_dataset(samples, args.out)
    write_run_manifest(args.out, "build", list(corpus_files(args.corpus)), _settings(args),
                       counts={**written, "ingest": ingest._asdict(), "extract": extract._asdict()})
    print(
        f"read {ingest.records_yielded} record(s) from {ingest.files_read} file(s); "
        f"skipped {ingest.skipped}, filtered out {ingest.filtered_out}"
    )
    print(f"wrote {len(samples)} sample(s) to {args.out}")


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


def stats(args: argparse.Namespace) -> None:
    """Print dataset statistics."""
    _bind("dataset")
    dataset_stats = compute_stats(read_dataset(args.dataset))
    if args.json:
        print(json.dumps(dataset_stats.to_dict(), indent=2, sort_keys=True))
    else:
        print(_stats_table(dataset_stats))


def split(args: argparse.Namespace) -> None:
    """Partition a dataset into train/validation/test files."""
    _bind("dataset")
    spec = SplitSpec(
        train_fraction=args.train, val_fraction=args.validation, test_fraction=args.test, seed=args.seed
    )
    samples = read_dataset(args.dataset)
    parts = split_dataset(samples, spec)
    os.makedirs(args.out_dir, exist_ok=True)
    sizes = []
    digests: dict = {}  # the three manifests hash the dataset once
    train_sources = {s.source_paper_id for s in parts[0]}
    for name, part in zip(("train", "validation", "test"), parts):
        part_path = Path(args.out_dir) / f"{name}.jsonl"
        written = write_dataset(part, part_path, referencing=True)  # each part stands alone
        sources = {s.source_paper_id for s in part}
        # a held-out part's source papers that train holds too, as their samples share an abstract
        leaked = {} if name == "train" else {"sources_in_train": len(sources & train_sources)}
        write_run_manifest(part_path, f"split:{name}", [args.dataset], _settings(args),
                           counts={**written, "source_papers": len(sources), **leaked}, digests=digests)
        sizes.append(len(part))
    print(
        f"split {len(samples)} sample(s) into {sizes[0]}/{sizes[1]}/{sizes[2]} "
        f"under {args.out_dir} (seed {spec.seed})"
    )


def kg_merge(args: argparse.Namespace) -> None:
    """Join knowledge-graph triplets onto dataset samples."""
    _bind("dataset", "kg")
    if not args.triplets:
        args.parser.error("no triplet file given (--triplets or paths.triplets)")
    store = load_triplets(args.triplets, vocabulary=SCIERC_RELATIONS if args.scierc_vocabulary else None)
    attach = AttachStats()
    # each sample is read, enriched and written in turn, never all held
    write_enriched(attach_triplets(iter_dataset(args.dataset), store, attach), args.out)
    write_run_manifest(args.out, "kg-merge", [args.dataset, args.triplets], _settings(args),
                       counts={"ingest": store.stats._asdict(), "attach": attach._asdict()})
    print(
        f"enriched {attach.samples_enriched} sample(s); "
        f"{attach.samples_without_target_triplets} without target relations; "
        f"{attach.orphan_papers} orphan paper(s) in the triplet store"
    )


def prompts(args: argparse.Namespace) -> None:
    """Compose budgeted prompts from a dataset or an enriched dataset."""
    _bind("dataset", "kg", "prompts")
    budget = TokenBudget(max_tokens=args.max_tokens, reserve_for_response=args.reserve_for_response)
    if args.triplet_budget is not None and args.triplet_budget < 0:  # refused in either mode, as no run could use it
        raise ValueError(f"triplet budget must not be negative: {args.triplet_budget}")
    if args.mode == "baseline":
        if args.dataset is None:
            args.parser.error("--mode baseline needs --dataset")
        # read and rendered one row at a time as the file is written, never all held
        instances = (
            render_baseline(s, budget, args.include_introductions, args.include_conclusions)
            for s in iter_dataset(args.dataset)
        )
        input_path = args.dataset
    else:
        if args.enriched is None:
            args.parser.error("--mode kg needs --enriched")
        blocks = triplet_renderer(args.triplet_budget)  # a run of equal triplet blocks rendered once
        instances = (
            render_kg(
                es,
                budget,
                triplet_budget=args.triplet_budget,
                render_block=blocks,
                include_empty_kg_headers=args.empty_kg_headers,
                pooled=args.pooled,
                include_introductions=args.include_introductions,
                include_conclusions=args.include_conclusions,
            )
            for es in iter_enriched(args.enriched)
        )
        input_path = args.enriched
    written = emit_finetune_file(instances, args.out, include_response=args.responses)
    write_run_manifest(args.out, "prompts", [input_path], _settings(args), counts=written)
    print(
        f"wrote {written['prompts']} prompt(s) to {args.out}; "
        f"{written['truncated']} truncated to fit {budget.max_tokens} tokens"
    )


def _recorded_reserve(prompts_path: str) -> int | None:
    """The tokens the prompts at `prompts_path` were fitted to leave for the
    response, as their `.run.json` records it; None without one, or with
    one from a version that recorded no settings."""
    try:
        settings = read_run_manifest(prompts_path).get("settings")
        if settings is None:
            return None
        reserve = settings["reserve_for_response"]
    except FileNotFoundError:
        return None
    except (ValueError, AttributeError, KeyError, TypeError):  # not JSON, or not a prompts manifest
        reserve = None
    if not (is_type(reserve, int) and reserve >= 0):
        raise ValueError(f"{run_manifest_path(prompts_path)}: not a prompts run manifest with a non-negative "
                         "integer reserve_for_response")
    return reserve


def generate(args: argparse.Namespace) -> None:
    """Send prompts to the generation endpoint, resuming any partial output.

    Bearer auth comes from the CITEPIPE_API_TOKEN environment variable.
    """
    _bind("client")
    # ask for the room the prompts were fitted to leave, and never for more
    reserve, source = _recorded_reserve(args.prompts), str(run_manifest_path(args.prompts))
    if args.max_new_tokens is None:
        if reserve is None:
            source = "budget.reserve_for_response"
            reserve = _config_value(args, source, int)
        args.max_new_tokens = reserve
    elif reserve is not None and args.max_new_tokens > reserve:
        raise ValueError(f"--max-new-tokens {args.max_new_tokens} is above the {reserve} tokens {source} "
                         "reserved for the response")
    else:
        source = "--max-new-tokens"
    policy = ClientPolicy(
        max_parallel=args.max_parallel,
        max_attempts=args.max_attempts,
        backoff_seconds=args.backoff_seconds,
        backoff_multiplier=_config_value(args, "endpoint.backoff_multiplier", float),  # config-only, no flag
        timeout_seconds=args.timeout_seconds,
        max_new_tokens=args.max_new_tokens,
        temperature=args.temperature,
    )

    def request(row) -> GenerationRequest:
        try:
            sample_id, prompt = row_fields(row, {"sample_id": str, "prompt": str})
        except ValueError as exc:
            raise ValueError(f"prompt rows need sample_id and prompt fields, both strings: {exc}") from exc
        return GenerationRequest(sample_id, prompt)

    class Batch:  # read twice, from the file each time, so no prompt is held
        def __iter__(self):
            return iter_rows(args.prompts, request)  # each request built as its line is read

    results = generate_batch(
        Batch(),
        args.url,
        policy,
        out_path=args.out,
        auth_token=os.environ.get(AUTH_TOKEN_ENV),
    )
    reused = sum(1 for r in results if r.attempt == 0)
    write_run_manifest(args.out, "generate", [args.prompts], _settings(args),
                       counts={"generated": len(results), "reused": reused})
    print(
        f"generated {len(results)} completion(s) to {args.out} "
        f"({reused} reused from a previous run)",
        flush=True,  # ahead of the summary on stderr when both go to one file
    )
    print(f"{request_summary(results)}; max_new_tokens {args.max_new_tokens} from {source}", file=sys.stderr)


def evaluate(args: argparse.Namespace) -> None:
    """Score generated texts against gold citation passages."""
    _bind("dataset", "metrics")
    generated = read_generations(args.generated)
    # the dataset streams past: only the gold texts of generated samples are kept
    gold: dict[str, str] = {}
    missing: list[str] = []
    n_gold = 0
    for sample in iter_dataset(args.dataset):
        n_gold += 1
        if sample.sample_id in generated:
            gold[sample.sample_id] = sample.citation_text
        else:
            missing.append(sample.sample_id)
    unknown = sorted(set(generated) - set(gold))
    if unknown:
        raise ValueError(f"generated sample(s) missing from the dataset: {', '.join(unknown[:3])}")
    ids = sorted(generated)
    # the report holds each sample's row encoded, which goes to the file as it is
    report = evaluate_corpus([(generated[i], gold[i]) for i in ids], sample_ids=ids)
    write_json_rows(args.out, {"label": args.label, "n": report.n, "corpus": report.corpus}, "per_sample", report.rows)
    counts = {"scored": report.n, "gold": n_gold, "missing": len(missing), "missing_ids": sorted(missing)}
    write_run_manifest(args.out, "evaluate", [args.generated, args.dataset], _settings(args), counts=counts)
    print(render_report_table(report, args.label), end="")


def report(args: argparse.Namespace) -> None:
    """Re-render a stored evaluation report."""
    _bind("metrics")
    try:  # the file may hold any JSON, or none
        payload = json.loads(Path(args.report).read_text(encoding="utf-8"))
        table = render_report_table(report_from_dict(payload), args.label or payload.get("label", "corpus"))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{args.report}: not an evaluation report ({type(exc).__name__}: {exc})") from exc
    print(table, end="")


def quantile_map(args: argparse.Namespace) -> None:
    """Print the quantile bin values for an n-bit code."""
    from .numerics import build_quantile_map  # only the numerics commands need it

    qmap = build_quantile_map(args.bits, symmetric=args.symmetric)
    print(f"n_bits={qmap.n_bits} symmetric={qmap.symmetric} normalization={qmap.normalization}")
    for index, value in enumerate(qmap.bins):
        print(f"{index:4d}  {value!r}")


def optimize(args: argparse.Namespace) -> None:
    """Minimize a quadratic and print the trajectory as CSV."""
    from .numerics import LrSchedule, minimize, quadratic  # only the numerics commands need it

    curves = [float(c) for c in args.curvatures.split(",") if c.strip()]
    if not curves:
        args.parser.error("--curvatures needs at least one value")
    start = [float(v) for v in args.x0.split(",")] if args.x0 else [1.0] * len(curves)
    if len(start) != len(curves):
        args.parser.error("--x0 dimension must match --curvatures")
    schedule = None
    if args.total is not None:
        schedule = LrSchedule(base_lr=args.lr, warmup_steps=args.warmup or 0, total_steps=args.total)
    elif args.warmup is not None:
        args.parser.error("--warmup needs --total")
    trajectory = minimize(
        quadratic(curves),
        start,
        steps=args.steps,
        lr=args.lr,
        schedule=schedule,
        mode=args.mode,
        weight_decay=args.weight_decay,
    )
    print("step,value," + ",".join(f"w{i}" for i in range(len(curves))))
    for point in trajectory:
        coords = ",".join(f"{w:.12g}" for w in point.w)
        print(f"{point.step},{point.value:.12g},{coords}")


def _command(commands, run, name: str | None = None) -> argparse.ArgumentParser:
    """The subcommand `name` (by default `run`'s name), which calls `run` and
    takes its help from `run`'s docstring."""
    doc = run.__doc__
    parser = commands.add_parser(name or run.__name__, help=doc.splitlines()[0], description=doc)
    parser.set_defaults(run=run, parser=parser)
    return parser


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citepipe",
        description="Citation-text pipeline: build, split, enrich, prompt, generate, evaluate.",
    )
    parser.add_argument("--config", dest="config_path", metavar="FILE", type=_input_file,
                        help="YAML config file; flags override its values.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    p = _command(commands, build)
    p.add_argument("--corpus", type=str, help="Corpus JSONL file or shard directory.")
    p.add_argument("--out", required=True, type=_output_file)
    p.add_argument("--field", dest="fields", metavar="FIELD", action="append", type=str,
                   help="Field of study to keep (repeatable); default from config.")
    p.add_argument("--max-samples-per-source", type=int, help="Cap per source paper.")

    p = _command(commands, stats)
    p.add_argument("--dataset", required=True, type=_input_file)
    p.add_argument("--json", action="store_true", help="Print the statistics as JSON instead.")

    p = _command(commands, split)
    p.add_argument("--dataset", required=True, type=_input_file)
    p.add_argument("--out-dir", required=True, type=_output_dir)
    p.add_argument("--seed", type=int)
    p.add_argument("--train", type=float)
    p.add_argument("--validation", type=float)
    p.add_argument("--test", type=float)

    p = _command(commands, kg_merge, "kg-merge")
    p.add_argument("--dataset", required=True, type=_input_file)
    p.add_argument("--triplets", type=str, help="Triplet JSONL file.")
    p.add_argument("--out", required=True, type=_output_file)
    p.add_argument("--scierc-vocabulary", action="store_true",
                   help="Count relations outside the SciERC vocabulary as unknown.")

    p = _command(commands, prompts)
    p.add_argument("--dataset", type=_input_file)
    p.add_argument("--enriched", type=_input_file)
    p.add_argument("--mode", choices=["baseline", "kg"], default="baseline")
    p.add_argument("--out", required=True, type=_output_file)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--reserve", dest="reserve_for_response", type=int,
                   help="Tokens held back for the response.")
    p.add_argument("--triplet-budget", type=int, help="Keep first k triplets per block.")
    p.add_argument("--empty-kg-headers", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--pooled", action="store_true", help="One pooled relation block per target.")
    p.add_argument("--include-introductions", action="store_true")
    p.add_argument("--include-conclusions", action="store_true")
    p.add_argument("--responses", action=argparse.BooleanOptionalAction, default=True,
                   help="Include gold responses.")

    p = _command(commands, generate)
    p.add_argument("--prompts", required=True, type=_input_file)
    p.add_argument("--out", required=True, type=_output_file)
    p.add_argument("--endpoint", dest="url", type=str)
    p.add_argument("--max-parallel", type=int)
    p.add_argument("--max-attempts", type=int)
    p.add_argument("--backoff-seconds", type=float)
    p.add_argument("--timeout-seconds", type=float)
    p.add_argument("--max-new-tokens", type=int)
    p.add_argument("--temperature", type=float)

    p = _command(commands, evaluate)
    p.add_argument("--generated", required=True, type=_input_file)
    p.add_argument("--dataset", required=True, type=_input_file)
    p.add_argument("--out", required=True, type=_output_file)
    p.add_argument("--label", default="model", help="Row label in the printed table.")

    p = _command(commands, report)
    p.add_argument("--report", required=True, type=_input_file)
    p.add_argument("--label", help="Override the stored row label.")

    doc = "Quantization and optimizer demonstrations."
    numerics = commands.add_parser("numerics", help=doc, description=doc)
    numerics_commands = numerics.add_subparsers(title="commands", metavar="COMMAND", required=True)

    p = _command(numerics_commands, quantile_map, "quantile-map")
    p.add_argument("--bits", type=int, default=4)
    p.add_argument("--symmetric", action="store_true", default=True)
    p.add_argument("--asymmetric", dest="symmetric", action="store_false")

    p = _command(numerics_commands, optimize)
    p.add_argument("--curvatures", default="1.0", help="Comma-separated quadratic curvatures.")
    p.add_argument("--x0", help="Comma-separated start point; default all ones.")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--mode", choices=["paper", "standard"], default="paper")
    p.add_argument("--warmup", type=int, help="Warmup steps (needs --total).")
    p.add_argument("--total", type=int, help="Total schedule steps; enables the schedule.")
    p.add_argument("--weight-decay", type=float, default=0.0)
    return parser


def _configured(config: dict) -> dict:
    """The values the configuration gives each command's flags, by command
    and parameter name; each flag named here has a type to convert them."""
    return {
        build: {"corpus": config["paths"]["corpus"], "fields": config["filter"]["fields_of_study"]},
        split: config["split"],
        kg_merge: {"triplets": config["paths"]["triplets"]},
        prompts: config["budget"],
        generate: config["endpoint"],  # backoff_multiplier has no flag
    }


# the YAML types a number flag takes besides a string; a float flag takes an int
_NUMBER_TYPES = {int: (int,), float: (int, float)}


def _from_config(value, convert):
    """A configured `value` as a flag of type `convert` takes it: a string
    is converted as if it had been given on the command line, and any other
    value must be of a type the flag takes by `is_type`'s exact rule, so
    true is not an int and 2.7 is not an int. Otherwise a ValueError."""
    if type(value) is not str and not any(is_type(value, kind) for kind in _NUMBER_TYPES.get(convert, ())):
        raise ValueError(f"not {convert.__name__}")
    return convert(value)


def _config_error(args: argparse.Namespace, name: str, convert, value) -> None:
    args.parser.error(f"{name}: invalid {convert.__name__} value in the config: {value!r}")


def _config_value(args: argparse.Namespace, name: str, convert):
    """The configured value of `name` (`section.key`), which no flag of the
    command feeds, taken as `_from_config` takes it."""
    section, key = name.split(".")
    value = args.config[section][key]
    try:
        return _from_config(value, convert)
    except ValueError:
        _config_error(args, name, convert, value)


# the flags no `.run.json` records: paths, the endpoint URL, and generate's
# transport settings, which change how its requests go but not what they ask
_UNRECORDED = {"help", "corpus", "dataset", "triplets", "enriched", "prompts", "generated", "out", "out_dir", "url",
               "max_parallel", "max_attempts", "backoff_seconds", "timeout_seconds"}


def _settings(args: argparse.Namespace) -> dict:
    """The resolved value of each flag of the command that can change its
    output or its counts, by dest: what its `.run.json` records as `settings`."""
    return {a.dest: getattr(args, a.dest) for a in args.parser._actions if a.dest not in _UNRECORDED}


def _apply_config(args: argparse.Namespace) -> None:
    """Give each flag left off the command line its configured value, taken
    as `_from_config` takes it."""
    values = _configured(args.config).get(args.run, {})
    for action in args.parser._actions:
        value = values.get(action.dest)
        if value is None or getattr(args, action.dest) is not None:
            continue
        convert = action.type
        try:
            if isinstance(action, argparse._AppendAction):  # a repeatable flag takes a list
                value = [_from_config(v, convert) for v in value]
            else:
                value = _from_config(value, convert)
        except (TypeError, ValueError):
            _config_error(args, f"argument {'/'.join(action.option_strings)}", convert, value)
        setattr(args, action.dest, value)


def main(argv: list[str] | None = None) -> int:
    """Entry point with stable exit codes: 0 ok, 1 bad usage/data, 2 environment."""
    try:
        args = _parser().parse_args(argv)
        args.config = load_config(args.config_path) if args.config_path else config_from_dict({})
        _apply_config(args)
        args.run(args)
    except SystemExit as done:  # argparse exits only after printing --help
        return done.code
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
